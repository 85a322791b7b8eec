"""Optimizer loop: schedules, accounting, step laws, baselines, determinism."""

import numpy as np
import pytest

from zodd import (
    AffineBatch,
    ConstantBatch,
    ConstantBeta,
    DeterministicEnv,
    GeometricBeta,
    QuadraticShiftOracle,
    RunConfig,
    STREAM_PERTURBATION,
    TheoryConstants,
    register_env,
    run,
    split_rng,
    theory_params,
)

D = 4


def oracle():
    return QuadraticShiftOracle(0.2 * np.eye(D), np.full(D, 0.5), 0.8)


def base_cfg(**over):
    kw = dict(
        x0=np.full(D, 1.0),
        mu0=0.19,
        mu_min=1e-2,
        gamma=0.95,
        s_max=10,
        m_scale=0.1,
        beta_schedule=GeometricBeta(1e-3 * 0.95, 0.95),
        batch_schedule=AffineBatch(30, 2),
        c0_samples=20,
        sample_budget=4000,
        max_iters=10_000,
        seed=77,
        method="alg1",
    )
    kw.update(over)
    return RunConfig(**kw)


def test_schedule_values():
    assert ConstantBeta(0.01).value(5) == 0.01
    geo = GeometricBeta(2.0, 0.5)
    assert geo.value(0) == 2.0 and geo.value(3) == 0.25
    assert GeometricBeta(1.0, 1.0).value(100) == 1.0
    assert ConstantBatch(7).value(9) == 7
    aff = AffineBatch(30, 2)
    assert [aff.value(k) for k in (0, 1, 5)] == [30, 32, 40]


def test_schedule_validation():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            ConstantBeta(bad)
    with pytest.raises(ValueError):
        GeometricBeta(0.1, 0.0)
    with pytest.raises(ValueError):
        GeometricBeta(0.1, 1.5)
    with pytest.raises(ValueError):
        ConstantBatch(0)
    with pytest.raises(ValueError):
        AffineBatch(1, -1)


def test_geometric_beta_matches_shifted_power_form():
    # beta0 = base * decay reproduces the "decay^(k+1)" convention
    geo = GeometricBeta(1e-3 * 0.95, 0.95)
    for k in range(0, 300, 7):
        assert geo.value(k) == pytest.approx(1e-3 * 0.95 ** (k + 1), rel=1e-12)


def test_run_config_validation():
    with pytest.raises(ValueError):
        base_cfg(mu_min=0.5, mu0=0.1)
    with pytest.raises(ValueError):
        base_cfg(gamma=0.0)
    with pytest.raises(ValueError):
        base_cfg(gamma=1.2)
    with pytest.raises(ValueError):
        base_cfg(method="alg3")
    with pytest.raises(ValueError):
        base_cfg(sample_budget=0)
    with pytest.raises(ValueError):
        base_cfg(c0_samples=-1)
    with pytest.raises(ValueError, match="c0_samples must not exceed sample_budget"):
        base_cfg(c0_samples=21, sample_budget=20)
    with pytest.raises(ValueError):
        base_cfg(x0=np.array([1.0, np.inf, 0.0, 0.0]))
    # gamma = 1 is the legitimate frozen-radius case
    base_cfg(gamma=1.0)


def test_radius_follows_floored_recursion_exactly():
    res = run(register_env(oracle()), base_cfg())
    mu = 0.19
    for t in res.traces:
        assert t.mu == mu
        mu = max(0.95 * mu, 1e-2)


def test_initial_offset_may_spend_the_whole_budget():
    env = register_env(oracle())
    res = run(env, base_cfg(c0_samples=40, sample_budget=40))
    assert res.draws_used == env.total_draws == 40
    assert res.iterations == 0 and res.traces == []


def test_budget_and_draw_accounting():
    cfg = base_cfg()
    env = register_env(oracle())
    res = run(env, cfg)
    planned = sum(30 + 2 * k for k in range(res.iterations))
    assert res.draws_used == cfg.c0_samples + planned
    assert env.total_draws == res.draws_used <= cfg.sample_budget
    # the next batch would not have fit
    assert res.draws_used + (30 + 2 * res.iterations) > cfg.sample_budget
    assert res.traces[-1].cumulative_draws == res.draws_used


def test_two_point_draw_accounting_and_no_offset():
    cfg = base_cfg(method="alg2", c0_samples=0)
    env = register_env(oracle())
    res = run(env, cfg)
    assert env.total_draws == 2 * sum(30 + 2 * k for k in range(res.iterations))
    assert all(t.c is None for t in res.traces)


def test_max_iters_cap():
    res = run(register_env(oracle()), base_cfg(max_iters=5))
    assert res.iterations == 5 and len(res.traces) == 5


def test_step_law_links_consecutive_iterates():
    res = run(register_env(oracle()), base_cfg(max_iters=40))
    for prev, nxt in zip(res.traces, res.traces[1:]):
        step_sq = float(np.sum((nxt.x - prev.x) ** 2))
        assert step_sq == pytest.approx(prev.beta**2 * prev.grad_norm_sq, rel=1e-9)
    last = res.traces[-1]
    assert np.sum((res.x_final - last.x) ** 2) == pytest.approx(
        last.beta**2 * last.grad_norm_sq, rel=1e-9
    )


@pytest.mark.parametrize("method", ["alg1", "alg2", "czo1"])
def test_steps_follow_the_written_out_update_bit_for_bit(method):
    # f ignores the outcome, so each step is a closed form of the u_k draws
    def f(x):
        return float(x @ x + np.sin(x).sum())

    env = register_env(DeterministicEnv(f, D))
    cfg = base_cfg(method=method, beta_schedule=ConstantBeta(1e-3),
                   batch_schedule=ConstantBatch(1), max_iters=80, sample_budget=10_000)
    res = run(env, cfg)
    assert res.iterations == 80 and not res.diverged
    # only alg1 spends draws on an initial offset; alg2 draws two per element
    per_iter = 2 if method == "alg2" else 1
    assert res.draws_used == (cfg.c0_samples if method == "alg1" else 0) + 80 * per_iter

    rng_u = split_rng(cfg.seed, STREAM_PERTURBATION)
    x, mu = cfg.x0.copy(), cfg.mu0
    for t in res.traces:
        u = rng_u.standard_normal(D)
        beta = cfg.beta_schedule.value(t.k)
        assert np.array_equal(t.x, x) and t.mu == mu and t.beta == beta
        if method == "alg2":
            assert t.c is None
            g = ((f(x + mu * u) - f(x - mu * u)) / (2.0 * mu)) * u
        elif method == "czo1":
            assert t.c == 0.0
            g = ((f(x + mu * u) - 0.0) / mu) * u
        else:
            # the tracked offset is the window's weighted mean of f(x_k)
            assert t.c == pytest.approx(f(x), rel=1e-12)
            g = ((f(x + mu * u) - t.c) / mu) * u
        assert t.grad_norm_sq == float(g @ g)
        x = x - beta * g
        if method != "czo1":  # czo1 holds the radius at mu0
            mu = max(0.95 * mu, 1e-2)
    assert mu == (0.19 if method == "czo1" else 1e-2)
    assert np.array_equal(res.x_final, x)


def test_seeded_runs_are_reproducible():
    a = run(register_env(oracle()), base_cfg())
    b = run(register_env(oracle()), base_cfg())
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        assert np.array_equal(ta.x, tb.x)
        assert (ta.mu, ta.c, ta.grad_norm_sq) == (tb.mu, tb.c, tb.grad_norm_sq)
    c = run(register_env(oracle()), base_cfg(seed=78))
    assert not np.array_equal(a.x_final, c.x_final)


def test_exploding_run_flags_divergence_and_keeps_trace():
    # czo1's zero offset lets the raw objective value drive the step straight
    # into overflow; the adaptive offset would cancel most of the growth
    env = register_env(DeterministicEnv(lambda x: float(x @ x), D))
    cfg = base_cfg(method="czo1", beta_schedule=ConstantBeta(1e8), c0_samples=0,
                   sample_budget=10_000, batch_schedule=ConstantBatch(1))
    res = run(env, cfg)
    assert res.diverged
    assert 0 < res.iterations < 20
    assert len(res.traces) == res.iterations + 1
    assert res.draws_used == res.iterations + 1
    for t in res.traces:
        assert np.all(np.isfinite(t.x))
    assert np.all(np.isfinite(res.x_final))


def test_nan_objective_aborts_immediately():
    env = register_env(DeterministicEnv(lambda x: float("nan"), D))
    res = run(env, base_cfg(c0_samples=0))
    assert res.diverged and res.iterations == 0 and len(res.traces) == 1


def test_probe_cadence_and_argument():
    res = run(
        register_env(oracle()), base_cfg(max_iters=20),
        probe_fn=lambda x: float(x[0]), probe_every=3,
    )
    for k, t in enumerate(res.traces):
        if k % 3 == 0:
            nxt = res.traces[k + 1].x if k + 1 < len(res.traces) else res.x_final
            assert t.obj_probe == float(nxt[0])
        else:
            assert t.obj_probe is None


def test_uniform_pick_comes_from_the_iterate_sequence():
    res = run(register_env(oracle()), base_cfg(max_iters=30))
    iterates = [t.x for t in res.traces] + [res.x_final]
    assert any(np.array_equal(res.x_uniform, it) for it in iterates)
    again = run(register_env(oracle()), base_cfg(max_iters=30))
    assert np.array_equal(res.x_uniform, again.x_uniform)


def test_uniform_weight_ablation_changes_offsets():
    plain = run(register_env(oracle()), base_cfg(max_iters=25))
    flat = run(register_env(oracle()), base_cfg(max_iters=25, uniform_weights=True))
    cs_plain = [t.c for t in plain.traces[2:]]
    cs_flat = [t.c for t in flat.traces[2:]]
    assert cs_plain != cs_flat


def test_theory_params_hand_worked_values():
    tc = TheoryConstants(sigma=1.0, alpha=1.0, lip_xi=1.0, lip_x=1.0,
                         smoothness=1.0, epsilon=0.1)
    # scale chosen so mu_min is exactly 0.1 at d=4
    s1 = 8.0
    tp = theory_params(tc, d=4, T=99, scale=(s1, s1, 1.0), method="alg1")
    assert tp.mu_min == pytest.approx(0.1, rel=1e-15)
    # candidates: 1/96 ~ 0.01042, 1/(10 * 4^0.75) ~ 0.03536, 0.1/(2 sqrt 24)
    assert tp.beta == pytest.approx(0.1 / (2.0 * np.sqrt(24.0)), rel=1e-15)
    assert tp.beta == pytest.approx(0.010206, abs=5e-7)
    tp2 = theory_params(tc, d=4, T=99, scale=(s1, s1, 1.0), method="alg2")
    assert tp2.beta == pytest.approx(1.0 / 96.0, rel=1e-15)
    bare = theory_params(tc, d=4, T=99)
    assert bare.mu_min == pytest.approx(0.0125, rel=1e-15)
    assert bare.batch_size == 1600
    assert bare.m_scale == pytest.approx(1.0, rel=1e-15)
    assert bare.mu0 == bare.mu_min


def test_theory_params_validation():
    tc = TheoryConstants(sigma=1.0, alpha=1.0, lip_xi=1.0, lip_x=1.0,
                         smoothness=1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        theory_params(tc, d=0, T=10)
    with pytest.raises(ValueError):
        theory_params(tc, d=4, T=10, method="czo1")
    with pytest.raises(ValueError):
        theory_params(tc, d=4, T=10, scale=(0.0, 1.0, 1.0))
    tc0 = TheoryConstants(sigma=0.0, alpha=1.0, lip_xi=1.0, lip_x=1.0,
                          smoothness=1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        theory_params(tc0, d=4, T=10)
