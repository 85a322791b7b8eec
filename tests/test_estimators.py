"""Gradient estimator mechanics: exact identities, seeding, moment helpers."""

import numpy as np
import pytest

from zodd import (
    DeterministicEnv,
    EstimatorSample,
    PricingEnv,
    QuadraticShiftOracle,
    SmoothingState,
    make_pricing_spec,
    moment_samples,
    one_point_estimate,
    register_env,
    split_rng,
    synth_theta,
    two_point_estimate,
)


def test_smoothing_state_validation():
    SmoothingState(0.1, 3.0)
    with pytest.raises(ValueError):
        SmoothingState(0.0, 0.0)
    with pytest.raises(ValueError):
        SmoothingState(-0.1, 0.0)
    with pytest.raises(ValueError):
        SmoothingState(1e-200, 0.0)
    with pytest.raises(ValueError):
        SmoothingState(0.1, np.inf)


def test_one_point_exact_identity_on_deterministic_env():
    # with a noiseless environment the estimate is (f(x + mu u) - c)/mu * u
    d, mu, c = 3, 0.25, 1.5
    fn = lambda x: float(np.sum(x) ** 2)
    env = register_env(DeterministicEnv(fn, d))
    x = np.array([0.5, -1.0, 2.0])
    est = one_point_estimate(env, x, SmoothingState(mu, c), 4, split_rng(9, 0))
    u = split_rng(9, 0).standard_normal(d)
    assert np.array_equal(est.u, u)
    expect = (fn(x + mu * u) - c) / mu * u
    assert np.allclose(est.g, expect, rtol=1e-14)
    assert est.mu == mu and est.kind == "one-point"
    assert len(est.batches) == 1
    assert est.batches[0].batch_size == 4
    assert np.array_equal(est.batches[0].probe, x + mu * u)
    assert env.total_draws == 4


def test_two_point_exact_identity_on_deterministic_env():
    d, mu = 3, 0.4
    fn = lambda x: float(2.0 * x[0] - x[1] + 0.5 * x[2])
    env = register_env(DeterministicEnv(fn, d))
    x = np.zeros(d)
    est = two_point_estimate(env, x, SmoothingState(mu), 2, split_rng(10, 0))
    u = split_rng(10, 0).standard_normal(d)
    expect = (fn(x + mu * u) - fn(x - mu * u)) / (2.0 * mu) * u
    assert np.allclose(est.g, expect, rtol=1e-14)
    # a linear function makes the two-point estimate exact: (a.u) u
    assert np.allclose(est.g, float(np.array([2.0, -1.0, 0.5]) @ u) * u, rtol=1e-12)
    assert est.kind == "two-point"
    assert len(est.batches) == 2
    assert np.array_equal(est.batches[0].probe, x + mu * u)
    assert np.array_equal(est.batches[1].probe, x - mu * u)
    assert env.total_draws == 4


def test_offset_cancels_in_the_mean():
    # the c term has mean zero because E[u] = 0; seeded means must agree
    # far more tightly than either deviates from the target
    d = 4
    oracle = QuadraticShiftOracle(0.2 * np.eye(d), np.full(d, 0.5), 0.7)
    x = np.full(d, 0.8)
    state_a = SmoothingState(0.5, 0.0)
    state_b = SmoothingState(0.5, 37.0)
    n = 40_000
    sums = {}
    for key, state in (("a", state_a), ("b", state_b)):
        env = register_env(oracle)
        rng = split_rng(11, 0)
        env_rng = split_rng(11, 1)
        total = np.zeros(d)
        for _ in range(n):
            total += one_point_estimate(env, x, state, 1, rng, env_rng).g
        sums[key] = total / n
    # identical streams: the difference is exactly -(c_b - c_a)/mu * mean(u)
    rng = split_rng(11, 0)
    mean_u = np.mean([rng.standard_normal(d) for _ in range(n)], axis=0)
    gap = sums["a"] - sums["b"]
    assert np.allclose(gap, 37.0 / 0.5 * mean_u, rtol=1e-10)
    target = oracle.smoothed_gradient(x, 0.5)
    assert np.linalg.norm(sums["a"] - target) < 0.5


def test_batch_mean_is_used():
    # m outcomes at one shared probe: estimate uses their mean
    d = 2
    oracle = QuadraticShiftOracle(np.eye(d), np.ones(d), 1.0)
    env = register_env(oracle)
    rng = split_rng(12, 0)
    env_rng = split_rng(12, 1)
    est = one_point_estimate(env, np.ones(d), SmoothingState(0.3, 2.0), 6, rng, env_rng)
    probe = est.batches[0].probe
    fbar = float(np.mean(oracle.eval_f_batch(probe, est.batches[0].outcomes)))
    assert np.allclose(est.g, (fbar - 2.0) / 0.3 * est.u, rtol=1e-14)


def test_separate_env_stream_leaves_perturbation_untouched():
    d = 3
    oracle = QuadraticShiftOracle(np.eye(d), np.ones(d), 1.0)
    est_merged = one_point_estimate(
        register_env(oracle), np.zeros(d), SmoothingState(0.2), 2, split_rng(13, 0)
    )
    est_split = one_point_estimate(
        register_env(oracle), np.zeros(d), SmoothingState(0.2), 2,
        split_rng(13, 0), env_rng=split_rng(13, 1),
    )
    assert np.array_equal(est_merged.u, est_split.u)
    assert not np.array_equal(
        est_merged.batches[0].outcomes, est_split.batches[0].outcomes
    )


def test_moment_samples_match_direct_calls():
    d = 3
    oracle = QuadraticShiftOracle(0.1 * np.eye(d), np.ones(d), 0.5)
    state = SmoothingState(0.4, 1.0)
    sq = moment_samples(
        register_env(oracle), np.ones(d), state, 2, 50, split_rng(14, 0)
    )
    env = register_env(oracle)
    rng = split_rng(14, 0)
    def dot_sq():
        g = one_point_estimate(env, np.ones(d), state, 2, rng).g
        return float(g @ g)

    direct = [dot_sq() for _ in range(50)]
    assert np.array_equal(sq, direct)


def test_two_point_needs_no_offset_and_double_draws():
    d = 2
    oracle = QuadraticShiftOracle(np.eye(d), np.ones(d), 1.0)
    env = register_env(oracle)
    two_point_estimate(env, np.zeros(d), SmoothingState(0.2), 5, split_rng(15, 0))
    assert env.total_draws == 10


def test_estimator_sample_is_frozen():
    est = EstimatorSample(
        g=np.zeros(2), u=np.zeros(2), mu=0.1, batches=(), kind="one-point"
    )
    with pytest.raises(AttributeError):
        est.mu = 0.2


def test_estimates_equal_an_np_mean_reference_bit_for_bit():
    # the estimators' batch means must round exactly as np.mean does
    def reference(env, x, state, m, rng, env_rng, kind):
        u = rng.standard_normal(x.size)
        signs = (1.0,) if kind == "one-point" else (1.0, -1.0)
        means = []
        for sign in signs:
            probe = x + sign * state.mu * u
            batch = env.sample(probe, m, env_rng)
            means.append(float(np.mean(env.eval_f_batch(probe, batch.outcomes))))
        if kind == "one-point":
            return ((means[0] - state.c) / state.mu) * u
        return ((means[0] - means[1]) / (2.0 * state.mu)) * u

    pricing = PricingEnv(make_pricing_spec(10, 40, *synth_theta(10, split_rng(16, 0))))
    oracle = QuadraticShiftOracle(0.2 * np.eye(5), np.full(5, 0.45), 1.0)
    for env, x in ((pricing, np.full(10, 0.5)), (oracle, np.ones(5))):
        for m in (1, 7, 30):
            for kind, estimate in (
                ("one-point", one_point_estimate),
                ("two-point", two_point_estimate),
            ):
                state = SmoothingState(0.19, -1.3)
                got_rngs = (split_rng(17, 0), split_rng(17, 1))
                ref_rngs = (split_rng(17, 0), split_rng(17, 1))
                handle, ref_handle = register_env(env), register_env(env)
                for _ in range(40):
                    g = estimate(handle, x, state, m, *got_rngs).g
                    expect = reference(ref_handle, x, state, m, *ref_rngs, kind)
                    assert np.array_equal(g, expect)
