"""Cross-checks of the analytic environments and their closed forms.

These are the measuring instruments for the rest of the suite, so they get
verified first, against finite differences, Monte Carlo, and hand-worked
arithmetic rather than against the library's own formulas.
"""

import numpy as np
import pytest

from refs import finite_diff_grad, power_iteration_top_sv
from zodd import (
    DeterministicEnv,
    QuadraticShiftOracle,
    estimator_moment_bound,
    mc_smoothed_value,
    offset_tracking_ceiling,
    register_env,
    split_rng,
)


def random_oracle(rng, d):
    a = rng.standard_normal((d, d)) * 0.3
    b = rng.standard_normal(d)
    return QuadraticShiftOracle(a, b, float(rng.uniform(0.2, 1.5)))


def test_value_matches_direct_formula():
    rng = split_rng(41, 0)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        oracle = random_oracle(rng, d)
        x = rng.standard_normal(d)
        direct = float(x @ x + oracle.b @ (oracle.a_matrix @ x))
        assert np.isclose(oracle.value(x), direct, rtol=1e-14)


def test_gradient_matches_finite_differences():
    rng = split_rng(42, 0)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        oracle = random_oracle(rng, d)
        x = rng.standard_normal(d)
        fd = finite_diff_grad(oracle.value, x)
        assert np.allclose(oracle.gradient(x), fd, atol=1e-6)


def test_smoothed_value_closed_form_vs_monte_carlo():
    # mean of f(x + mu*u) over u ~ N(0, I) and fresh outcomes
    rng = split_rng(43, 0)
    d = 4
    oracle = QuadraticShiftOracle(0.25 * np.eye(d), np.full(d, 0.6), 0.5)
    x = np.array([1.0, -0.5, 0.3, 0.8])
    mu = 0.3
    closed = oracle.smoothed_value(x, mu)
    means = [
        mc_smoothed_value(register_env(oracle), x, mu, 4000, rng) for _ in range(25)
    ]
    se = np.std(means, ddof=1) / np.sqrt(len(means))
    assert abs(np.mean(means) - closed) <= 5 * se
    # for a quadratic, smoothing adds exactly mu^2 * d
    assert np.isclose(closed - oracle.value(x), mu**2 * d, rtol=1e-12)


def test_smoothed_gradient_equals_gradient_for_quadratic():
    rng = split_rng(44, 0)
    oracle = random_oracle(rng, 5)
    x = rng.standard_normal(5)
    assert np.allclose(oracle.smoothed_gradient(x, 0.7), oracle.gradient(x))


def test_oracle_constants():
    rng = split_rng(45, 0)
    a = rng.standard_normal((4, 4))
    b = np.array([3.0, 0.0, 4.0, 0.0])
    oracle = QuadraticShiftOracle(a, b, 0.5)
    assert oracle.sigma == pytest.approx(5.0 * 0.5)
    assert oracle.smoothness == 2.0
    assert oracle.lip_xi == pytest.approx(5.0)
    assert oracle.alpha == pytest.approx(power_iteration_top_sv(a), rel=1e-9)


def test_sampling_distribution_tracks_probe():
    d = 3
    oracle = QuadraticShiftOracle(np.diag([1.0, 2.0, 3.0]), np.ones(d), 0.4)
    env = register_env(oracle)
    probe = np.array([1.0, -1.0, 0.5])
    batch = env.sample(probe, 50_000, split_rng(46, 0))
    emp = batch.outcomes.mean(axis=0)
    se = 0.4 / np.sqrt(50_000)
    assert np.all(np.abs(emp - oracle.a_matrix @ probe) <= 5 * se)
    assert env.total_draws == 50_000


def test_moment_bound_hand_worked_values():
    # d=4, mu=1, m=1, sigma=1, curvature 2, zero gradient:
    #   common term 1.5 * 1 * 4 * (4+6)^3 = 6000
    #   two-point noise term 1.5 * 1 * 4 / (1 * 1) = 6
    #   one-point noise term 3 * 1 * 4 / (1 * 1) = 12
    #   one-point offset term 3 * 4 * gap2 / 1
    common = dict(d=4, mu=1.0, m=1, sigma=1.0, smoothness=2.0, grad_norm_sq=0.0)
    assert estimator_moment_bound("two-point", **common) == 6006.0
    assert estimator_moment_bound("one-point", **common) == 6012.0
    assert estimator_moment_bound("one-point", offset_gap_sq=2.0, **common) == 6036.0


def test_moment_bound_term_structure():
    base = dict(d=6, mu=0.3, m=5, sigma=1.3, smoothness=1.7, grad_norm_sq=2.5)
    one = estimator_moment_bound("one-point", offset_gap_sq=0.0, **base)
    two = estimator_moment_bound("two-point", **base)
    # one-point pays double the sampling-noise term at equal gap
    noise = 3.0 * base["sigma"] ** 2 * base["d"] / (base["mu"] ** 2 * base["m"])
    assert one - two == pytest.approx(noise / 2.0, rel=1e-12)
    # gap enters quadratically, scaled by 3d/mu^2
    gapped = estimator_moment_bound("one-point", offset_gap_sq=0.9, **base)
    assert gapped - one == pytest.approx(3.0 * 6 * 0.9 / 0.09, rel=1e-12)
    with pytest.raises(ValueError):
        estimator_moment_bound("three-point", **base)


def test_tracking_ceiling_hand_worked_value():
    # k=0, delta0^2=1, d=4, mu0=mu_min=0.1, m=10, curvature 2, unit
    # constants: 1 + 0.05 + 0.16 + 0.32 + 0.5 = 2.03
    args = dict(
        d=4, mu0=0.1, mu_min=0.1, m_min=10, smoothness=2.0,
        lip_xi=1.0, alpha=1.0, lip_x=1.0, sigma=1.0,
    )
    assert offset_tracking_ceiling(0, 1.0, **args) == pytest.approx(2.03, rel=1e-12)
    # the seeded term halves each iteration and the rest is a fixed floor
    floor = 0.05 + 0.16 + 0.32 + 0.5
    assert offset_tracking_ceiling(10, 1.0, **args) == pytest.approx(
        floor + 0.5**10, rel=1e-12
    )
    vals = [offset_tracking_ceiling(k, 1.0, **args) for k in range(30)]
    assert np.all(np.diff(vals) < 0)
    assert offset_tracking_ceiling(60, 1.0, **args) == pytest.approx(floor, rel=1e-9)


def test_deterministic_env_wraps_plain_function():
    env = register_env(DeterministicEnv(lambda x: float(np.sum(x**2)), 3))
    rng = split_rng(47, 0)
    batch = env.sample(np.ones(3), 4, rng)
    assert batch.outcomes.shape == (4,)
    assert np.all(batch.outcomes == 0.0)
    assert env.eval_f(np.array([1.0, 2.0, 2.0]), 0.0) == 9.0
    assert env.total_draws == 4


def test_oracle_rejects_bad_shapes():
    with pytest.raises(ValueError):
        QuadraticShiftOracle(np.eye(3), np.ones(4), 1.0)
    with pytest.raises(ValueError):
        QuadraticShiftOracle(np.eye(3), np.ones(3), -1.0)
