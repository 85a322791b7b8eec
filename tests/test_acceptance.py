"""End-to-end acceptance checks for the whole library.

Each test covers one advertised behavioral guarantee, measures it the way a
skeptical user would (closed forms, independent references, fresh seeds),
and records a one-line verdict for the terminal summary. Monte-Carlo sizes
and tolerances are fixed; every run is deterministic.
"""

import filecmp
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from refs import pg_min_quadratic_simplex, quadratic_simplex_obj
from zodd import (
    Environment,
    ExperimentSpec,
    PricingEnv,
    QuadraticShiftOracle,
    RunConfig,
    SmoothingState,
    estimator_moment_bound,
    make_pricing_spec,
    moment_samples,
    offset_tracking_ceiling,
    one_point_estimate,
    register_env,
    run,
    run_experiment,
    split_rng,
    synth_theta,
    two_point_estimate,
)
from zodd.optimize import ConstantBatch, ConstantBeta, GeometricBeta


def _verdict(ok, name, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    record_criterion(line)
    print(line)
    assert ok, line


def _mean_and_se(env, x, state, n, rng, kind):
    estimate = one_point_estimate if kind == "one-point" else two_point_estimate
    d = env.dim()
    total = np.zeros(d)
    total_sq = np.zeros(d)
    for _ in range(n):
        g = estimate(env, x, state, 1, rng).g
        total += g
        total_sq += g * g
    mean = total / n
    var = np.maximum(total_sq / n - mean**2, 0.0)
    return mean, np.sqrt(var / n)


def acceptance_oracle(d=5):
    return QuadraticShiftOracle(0.2 * np.eye(d), np.full(d, 0.45), 1.0)


def test_estimator_means_match_smoothed_gradient():
    # both estimators, 2e5 trials each, componentwise deviation <= 5 SE,
    # one-point checked at offsets 0, F(x), and 100
    t0 = time.perf_counter()
    d, mu, n = 5, 0.5, 200_000
    oracle = acceptance_oracle(d)
    x = np.ones(d)
    target = oracle.smoothed_gradient(x, mu)
    rng = split_rng(501, 0)
    worst = 0.0
    for c in (0.0, oracle.value(x), 100.0):
        mean, se = _mean_and_se(
            register_env(oracle), x, SmoothingState(mu, c), n, rng, "one-point"
        )
        worst = max(worst, float(np.max(np.abs(mean - target) / se)))
    mean, se = _mean_and_se(
        register_env(oracle), x, SmoothingState(mu), n, rng, "two-point"
    )
    worst = max(worst, float(np.max(np.abs(mean - target) / se)))
    elapsed = time.perf_counter() - t0
    _verdict(
        worst <= 5.0 and elapsed < 30.0,
        "estimator unbiasedness",
        f"max deviation {worst:.2f} SE (limit 5), {elapsed:.1f}s (limit 30)",
    )


def test_offset_at_function_value_halves_second_moment():
    # second moment of the one-point estimate at a point with F(x) = 10,
    # offset F(x) vs offset 0, ratio < 0.5 at 1e5 trials
    d, mu, n = 5, 0.1, 100_000
    oracle = acceptance_oracle(d)
    # solve ||x||^2 + b.(A t e) = 10 along x = t e
    lin = float(np.full(d, 0.45) @ (0.2 * np.eye(d) @ np.ones(d)))
    t = (-lin + np.sqrt(lin**2 + 4.0 * d * 10.0)) / (2.0 * d)
    x = np.full(d, t)
    assert oracle.value(x) == pytest.approx(10.0, abs=1e-12)
    rng = split_rng(502, 0)
    with_offset = np.mean(
        moment_samples(register_env(oracle), x, SmoothingState(mu, oracle.value(x)),
                       1, n, rng)
    )
    without = np.mean(
        moment_samples(register_env(oracle), x, SmoothingState(mu, 0.0), 1, n, rng)
    )
    ratio = float(with_offset / without)
    _verdict(ratio < 0.5, "offset variance reduction",
             f"second-moment ratio {ratio:.4f} (limit 0.5)")


def test_second_moments_within_analytic_bounds():
    # empirical E||g||^2 against the closed-form bound on a (mu, m) grid,
    # 1e5 trials per cell, violations beyond 3 SE fail
    d, n = 5, 100_000
    oracle = acceptance_oracle(d)
    x = np.ones(d)
    grad_sq = float(np.sum(oracle.gradient(x) ** 2))
    rng = split_rng(503, 0)
    worst = -np.inf
    for kind in ("one-point", "two-point"):
        for mu in (0.05, 0.1, 0.5):
            for m in (1, 10):
                sq = moment_samples(
                    register_env(oracle), x, SmoothingState(mu), m, n, rng, kind
                )
                emp = float(np.mean(sq))
                se = float(np.std(sq) / np.sqrt(n))
                bound = estimator_moment_bound(
                    kind, d=d, mu=mu, m=m, sigma=oracle.sigma,
                    smoothness=oracle.smoothness, grad_norm_sq=grad_sq,
                    offset_gap_sq=oracle.value(x) ** 2 if kind == "one-point" else 0.0,
                )
                worst = max(worst, (emp - bound) / se)
    _verdict(worst <= 3.0, "second-moment bounds",
             f"worst excess {worst:.2f} SE over 12 grid cells (limit 3)")


def test_reuse_weights_are_simplex_optimal():
    # closed form vs projected-gradient reference and 1e5 random simplex
    # points, for 100 random score vectors spanning [1e-3, 1e3]
    rng = split_rng(504, 0)
    worst_gap = -np.inf
    beaten = 0
    for _ in range(100):
        s = int(rng.integers(1, 11))
        b = 10.0 ** rng.uniform(-3.0, 3.0, s)
        a = (1.0 / b) / np.sum(1.0 / b)
        obj = quadratic_simplex_obj(b, a)
        worst_gap = max(worst_gap, obj - quadratic_simplex_obj(b, pg_min_quadratic_simplex(b)))
        cand = rng.dirichlet(np.ones(s), size=100_000)
        if float(np.min((cand**2) @ b)) < obj - 1e-12:
            beaten += 1
    _verdict(
        worst_gap <= 1e-8 and beaten == 0,
        "reuse weight optimality",
        f"max gap to reference {worst_gap:.2e} (limit 1e-8), beaten {beaten}/100",
    )


class _ProbeRecorder(Environment):
    """Pass-through wrapper that records every probe norm it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.max_probe_norm = 0.0

    def dim(self):
        return self.inner.dim()

    def sample(self, x, m, rng):
        self.max_probe_norm = max(self.max_probe_norm, float(np.linalg.norm(x)))
        return self.inner.sample(x, m, rng)

    def eval_f(self, x, xi):
        return self.inner.eval_f(x, xi)

    def eval_f_batch(self, x, outcomes):
        return self.inner.eval_f_batch(x, outcomes)


def test_offset_tracks_objective_under_ceiling():
    # (F(x_k) - c_k)^2 stays under the analytic ceiling for k >= 20 on
    # 10/10 seeds; step size within the validity cap is asserted up front
    d = 5
    oracle = QuadraticShiftOracle(0.3 * np.eye(d), np.eye(d)[0], 1.0)
    mu_min, mu0, m, beta = 0.05, 0.5, 30, 0.01
    cap = mu_min / (2.0 * oracle.lip_xi * oracle.alpha * np.sqrt(6.0 * d))
    assert beta <= cap
    seeds_ok = 0
    worst_frac = -np.inf
    for seed in range(510, 520):
        recorder = _ProbeRecorder(oracle)
        env = register_env(recorder)
        cfg = RunConfig(
            x0=np.ones(d), mu0=mu0, mu_min=mu_min, gamma=0.95, s_max=10,
            m_scale=oracle.lip_xi**2 * oracle.alpha**2 / oracle.sigma**2,
            beta_schedule=ConstantBeta(beta), batch_schedule=ConstantBatch(m),
            c0_samples=30, sample_budget=30 + 80 * m, max_iters=80,
            seed=seed, method="alg1",
        )
        res = run(env, cfg)
        assert not res.diverged
        iterate_norms = [float(np.linalg.norm(t.x)) for t in res.traces]
        lip_x = 2.0 * max(recorder.max_probe_norm, max(iterate_norms))
        delta0_sq = (oracle.value(res.traces[0].x) - res.traces[0].c) ** 2
        ok = True
        for t in res.traces:
            if t.k < 20:
                continue
            err = (oracle.value(t.x) - t.c) ** 2
            ceiling = offset_tracking_ceiling(
                t.k, delta0_sq, d=d, mu0=mu0, mu_min=mu_min, m_min=m,
                smoothness=oracle.smoothness, lip_xi=oracle.lip_xi,
                alpha=oracle.alpha, lip_x=lip_x, sigma=oracle.sigma,
            )
            worst_frac = max(worst_frac, err / ceiling)
            ok &= err <= ceiling
        seeds_ok += ok
    _verdict(seeds_ok == 10, "offset tracking ceiling",
             f"{seeds_ok}/10 seeds under ceiling, worst error/ceiling {worst_frac:.3f}")


def test_both_methods_shrink_true_gradient_tenfold():
    # trailing-quarter mean of closed-form ||grad F||^2 under 10% of its
    # initial value within a 5e4-draw budget, averaged over 10 seeds
    t0 = time.perf_counter()
    d = 5
    oracle = QuadraticShiftOracle(0.2 * np.eye(d), np.full(d, 0.45), 0.5)
    budget = 50_000
    ratios = {"alg1": [], "alg2": []}
    for seed in range(530, 540):
        for method in ("alg1", "alg2"):
            env = register_env(oracle)
            cfg = RunConfig(
                x0=np.full(d, 3.0), mu0=0.19, mu_min=0.05, gamma=0.95,
                s_max=10, m_scale=0.1, beta_schedule=ConstantBeta(0.01),
                batch_schedule=ConstantBatch(30), c0_samples=20,
                sample_budget=budget, max_iters=10**6, seed=seed, method=method,
            )
            res = run(env, cfg)
            assert not res.diverged
            assert env.total_draws <= budget
            grads = [float(np.sum(oracle.gradient(t.x) ** 2)) for t in res.traces]
            grads.append(float(np.sum(oracle.gradient(res.x_final) ** 2)))
            tail = grads[-max(1, len(grads) // 4):]
            ratios[method].append(float(np.mean(tail) / grads[0]))
    r1 = float(np.mean(ratios["alg1"]))
    r2 = float(np.mean(ratios["alg2"]))
    elapsed = time.perf_counter() - t0
    _verdict(
        r1 < 0.1 and r2 < 0.1 and elapsed < 60.0,
        "convergence trend",
        f"trailing/initial grad-norm-sq {r1:.4f} (one-point) {r2:.4f} "
        f"(two-point), limits 0.1, {elapsed:.1f}s (limit 60)",
    )


def test_pricing_benchmark_orders_methods(tmp_path):
    # 20 synthetic instances, budget 5000: both proposed methods beat the
    # conventional baseline with Welch two-sided p < 0.05
    t0 = time.perf_counter()
    spec = ExperimentSpec(output_dir=str(tmp_path / "bench"))
    outcome = run_experiment(spec)
    rows = {r.method: r for r in outcome.summary}
    czo = rows["czo1-mini"]
    a1, a2 = rows["alg1-mini"], rows["alg2-mini"]
    elapsed = time.perf_counter() - t0
    ok = (
        not outcome.any_diverged
        and a1.mean_obj < czo.mean_obj and a1.p_value < 0.05
        and a2.mean_obj < czo.mean_obj and a2.p_value < 0.05
        and elapsed < 600.0
    )
    _verdict(
        ok,
        "pricing benchmark ordering",
        f"mean obj {a1.mean_obj:.3f} (one-point, p={a1.p_value:.2e}) and "
        f"{a2.mean_obj:.3f} (two-point, p={a2.p_value:.2e}) vs baseline "
        f"{czo.mean_obj:.3f}, {elapsed:.0f}s (limit 600)",
    )


def test_demand_calibration_at_reference_prices():
    # at x = theta every option has probability 1/(n + a0); with n=10,
    # a0=1, 40 buyers: E[xi_i] = 40/11, checked to 3 SE at 1e5 draws
    n_draws = 100_000
    theta, w = synth_theta(10, split_rng(505, 0))
    spec = make_pricing_spec(10, 40, theta, w)
    batch = register_env(PricingEnv(spec)).sample(theta, n_draws, split_rng(506, 0))
    conserved = bool(np.all(batch.outcomes.sum(axis=1) == 40))
    p = 1.0 / 11.0
    se = np.sqrt(40 * p * (1 - p) / n_draws)
    dev = float(np.max(np.abs(batch.outcomes[:, 1:].mean(axis=0) - 40 * p) / se))
    _verdict(
        conserved and dev <= 3.0,
        "demand calibration",
        f"max |mean - 40/11| = {dev:.2f} SE (limit 3), all realizations sum to 40",
    )


def test_reruns_are_bit_identical_and_draws_match_schedule(tmp_path):
    # same config + seed twice: byte-identical outputs; ledger draws equal
    # the planned batch schedule exactly and never exceed the budget
    def spec_for(out):
        return ExperimentSpec(
            env_kind="analytic", d=4, methods=tuple(
                ("alg1-mini", "alg1-b1", "alg2-mini", "alg2-b1", "czo1-mini", "czo1-b1")
            ),
            n_instances=2, budget=2500, c0_samples=0, metric_samples=100,
            output_dir=str(tmp_path / out),
        )

    out_a = run_experiment(spec_for("a"))
    out_b = run_experiment(spec_for("b"))
    identical = True
    for key, path_a in out_a.trace_paths.items():
        same = filecmp.cmp(path_a, out_b.trace_paths[key], shallow=False)
        identical &= same
    for name in ("runs.jsonl", "summary.csv"):
        identical &= (
            Path(out_a.output_dir, name).read_bytes()
            == Path(out_b.output_dir, name).read_bytes()
        )

    # every trace row's cumulative draw count must step by exactly the
    # planned batch size, twice that for the two-point method
    accounted = True
    recs = {(r.method, r.seed): r for r in out_a.records}
    for key, path in out_a.trace_paths.items():
        kind, variant = key[0].split("-")
        factor = 2 if kind == "alg2" else 1
        cums = [
            json.loads(line)["cumulative_draws"]
            for line in Path(path).read_text().splitlines()
        ]
        steps = [b - a for a, b in zip([0] + cums, cums)]
        planned = [
            factor * (30 + 2 * k if variant == "mini" else 1)
            for k in range(len(cums))
        ]
        accounted &= steps == planned
        accounted &= recs[key].draws == cums[-1] <= 2500
    # the initial-offset estimate is itself metered when enabled
    spec_c0 = ExperimentSpec(
        env_kind="analytic", d=4, methods=("alg1-mini",), n_instances=1,
        budget=2500, c0_samples=20, metric_samples=100,
        output_dir=str(tmp_path / "c"),
    )
    rec = run_experiment(spec_c0).records[0]
    accounted &= not rec.diverged
    accounted &= rec.draws == 20 + sum(30 + 2 * k for k in range(rec.iterations))

    _verdict(
        identical and accounted,
        "determinism and accounting",
        "12 reruns byte-identical; every trace steps by the planned batch "
        "size (doubled for two-point) within budget",
    )
