"""Monte-Carlo and property verification suites behind ``zodd verify``.

Each suite re-checks the behavioral contracts of one area against closed
forms, brute-force references, or direct reruns, and reports one pass/fail
line per invariant. The suites use reduced trial counts suitable for an
interactive command; the test suite runs the same checks at full size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .env import SampleBatch, SampleLedger, register_env
from .estimators import (
    SmoothingState,
    moment_samples,
    one_point_estimate,
    two_point_estimate,
)
from .history import HistoryWindow, compute_weights
from .optimize import (
    AffineBatch,
    ConstantBeta,
    GeometricBeta,
    RunConfig,
    TheoryConstants,
    run,
    theory_params,
)
from .oracles import QuadraticShiftOracle, estimator_moment_bound
from .pricing import (
    PricingEnv,
    choice_probs,
    eval_obj_metric,
    make_pricing_spec,
    piecewise_cost,
    synth_theta,
)
from .rng import split_rng

__all__ = [
    "CheckResult",
    "verify_estimators",
    "verify_weights",
    "verify_schedules",
    "verify_pricing",
    "run_suite",
    "SUITES",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: str
    threshold: str


def _check(name: str, passed: bool, observed: str, threshold: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), observed=observed, threshold=threshold)


def _mean_estimates(env, x, state, m, n, rng, kind):
    """Componentwise Monte-Carlo mean of g and its standard errors."""
    estimate = one_point_estimate if kind == "one-point" else two_point_estimate
    total = np.zeros(env.dim())
    total_sq = np.zeros(env.dim())
    for _ in range(n):
        g = estimate(env, x, state, m, rng).g
        total += g
        total_sq += g * g
    mean = total / n
    var = total_sq / n - mean**2
    se = np.sqrt(np.maximum(var, 0.0) / n)
    return mean, se


def verify_estimators(seed: int = 2024, n_trials: int = 40_000) -> list[CheckResult]:
    """Unbiasedness, offset invariance, variance ordering, moment bounds."""
    results = []
    rng = split_rng(seed, 100)
    d = 5
    oracle = QuadraticShiftOracle(0.2 * np.eye(d), np.full(d, 1.0 / np.sqrt(d)), 1.0)
    x = np.ones(d)
    mu = 0.5
    target = oracle.smoothed_gradient(x, mu)
    f_x = oracle.value(x)

    for c in (0.0, f_x, 100.0):
        env = register_env(oracle)
        mean, se = _mean_estimates(env, x, SmoothingState(mu, c), 1, n_trials, rng, "one-point")
        dev = np.max(np.abs(mean - target) / se)
        results.append(
            _check(f"one-point unbiased (c={c:g})", dev <= 5.0, f"max dev {dev:.2f} SE", "<= 5 SE")
        )
    env = register_env(oracle)
    mean, se = _mean_estimates(env, x, SmoothingState(mu, 0.0), 1, n_trials, rng, "two-point")
    dev = np.max(np.abs(mean - target) / se)
    results.append(_check("two-point unbiased", dev <= 5.0, f"max dev {dev:.2f} SE", "<= 5 SE"))

    # variance ordering at a point with F(x) = 10 and sigma = 1
    flat = QuadraticShiftOracle(np.zeros((d, d)), np.full(d, 1.0 / np.sqrt(d)), 1.0)
    x10 = np.full(d, np.sqrt(2.0))
    sm_good = np.mean(
        moment_samples(register_env(flat), x10, SmoothingState(0.1, flat.value(x10)), 1, n_trials, rng)
    )
    sm_zero = np.mean(
        moment_samples(register_env(flat), x10, SmoothingState(0.1, 0.0), 1, n_trials, rng)
    )
    ratio = sm_good / sm_zero
    results.append(
        _check("variance ordering (c=F vs c=0)", ratio < 0.5, f"ratio {ratio:.4f}", "< 0.5")
    )

    # second-moment bounds across the (mu, m) grid, both estimators
    worst = -np.inf
    grad_sq = float(target @ target)
    for kind in ("one-point", "two-point"):
        for mu_b in (0.05, 0.1, 0.5):
            for m in (1, 10):
                sq = moment_samples(
                    register_env(oracle), x, SmoothingState(mu_b, 0.0), m, n_trials // 2, rng, kind
                )
                emp = float(np.mean(sq))
                se_b = float(np.std(sq) / np.sqrt(sq.size))
                bound = estimator_moment_bound(
                    kind,
                    d=d,
                    mu=mu_b,
                    m=m,
                    sigma=oracle.sigma,
                    smoothness=oracle.smoothness,
                    grad_norm_sq=grad_sq,
                    offset_gap_sq=f_x**2 if kind == "one-point" else 0.0,
                )
                worst = max(worst, (emp - bound) / se_b)
    results.append(
        _check("second-moment bounds (mu x m grid)", worst <= 3.0, f"worst excess {worst:.2f} SE", "<= 3 SE")
    )
    return results


def _projected_gradient_weights(b: np.ndarray, iters: int = 5000) -> np.ndarray:
    """Independent simplex minimizer of sum_i b_i a_i^2 (reference path)."""
    s = b.size
    a = np.full(s, 1.0 / s)
    step = 1.0 / (2.0 * b.max())
    for _ in range(iters):
        a = _project_simplex(a - step * 2.0 * b * a)
    return a


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection onto the probability simplex (sort-based).
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - 1.0))[0][-1]
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _history_from_scores(rng, n_entries, d=3):
    """Random history window with known probes and batch sizes."""
    win = HistoryWindow(n_entries)
    for _ in range(n_entries):
        probe = rng.standard_normal(d)
        m_i = int(rng.integers(1, 20))
        win.push(SampleBatch(probe=probe, outcomes=np.zeros(m_i), batch_size=m_i))
    return win


def verify_weights(seed: int = 2024) -> list[CheckResult]:
    """Simplex feasibility, closed-form optimality, monotone preference."""
    results = []
    rng = split_rng(seed, 101)

    worst_sum = 0.0
    feasible = True
    for _ in range(1000):
        win = _history_from_scores(rng, int(rng.integers(1, 11)))
        wv = compute_weights(win, rng.standard_normal(3), float(rng.uniform(0, 2)))
        feasible &= bool(np.all(wv.a >= 0))
        worst_sum = max(worst_sum, abs(float(wv.a.sum()) - 1.0))
    results.append(
        _check("weights on simplex (1000 random)", feasible and worst_sum <= 1e-12,
               f"max |sum-1| {worst_sum:.2e}", "<= 1e-12, all a_i >= 0")
    )

    worst_gap = 0.0
    beaten = 0
    for _ in range(100):
        s = int(rng.integers(1, 11))
        b = 10.0 ** rng.uniform(-3, 3, s)
        a_closed = (1.0 / b) / np.sum(1.0 / b)
        obj_closed = float(np.sum(b * a_closed**2))
        a_ref = _projected_gradient_weights(b)
        obj_ref = float(np.sum(b * a_ref**2))
        worst_gap = max(worst_gap, obj_closed - obj_ref)
        cand = rng.dirichlet(np.ones(s), size=2000)
        if np.min(cand**2 @ b) < obj_closed - 1e-12:
            beaten += 1
    results.append(
        _check("closed-form weights optimal", worst_gap <= 1e-8 and beaten == 0,
               f"max gap {worst_gap:.2e}, beaten {beaten}x", "gap <= 1e-8, never beaten")
    )

    ok = True
    for _ in range(200):
        win = HistoryWindow(2)
        x_next = rng.standard_normal(3)
        near = x_next + 0.1 * rng.standard_normal(3)
        far = x_next + 2.0 * rng.standard_normal(3)
        if np.linalg.norm(near - x_next) >= np.linalg.norm(far - x_next):
            continue
        win.push(SampleBatch(probe=near, outcomes=np.zeros(5), batch_size=5))
        win.push(SampleBatch(probe=far, outcomes=np.zeros(5), batch_size=5))
        wv = compute_weights(win, x_next, 1.0)
        ok &= wv.a[0] > wv.a[1]
    results.append(_check("closer probes weigh more", ok, "all ordered", "a_near > a_far"))
    return results


def verify_schedules(seed: int = 2024) -> list[CheckResult]:
    """Radius law, budget accounting, frozen baseline, determinism."""
    results = []
    d = 3
    oracle = QuadraticShiftOracle(0.1 * np.eye(d), np.ones(d), 0.5)

    cfg = RunConfig(
        x0=np.full(d, 1.0),
        mu0=0.19,
        mu_min=1e-4,
        gamma=0.95,
        s_max=10,
        m_scale=0.1,
        beta_schedule=GeometricBeta(1e-3 * 0.95, 0.95),
        batch_schedule=AffineBatch(30, 2),
        c0_samples=20,
        sample_budget=20000,
        max_iters=200,
        seed=seed,
        method="alg1",
    )
    res = run(register_env(oracle), cfg)
    mus = np.array([t.mu for t in res.traces])
    law_ok = np.isclose(mus[1], 0.19 * 0.95) and np.all(np.diff(mus) <= 0) and np.all(mus >= 1e-4)
    k_pin = int(np.ceil(np.log(1e-4 / 0.19) / np.log(0.95)))
    if len(mus) > k_pin:
        law_ok &= bool(np.all(mus[k_pin:] == 1e-4))
    results.append(
        _check("radius schedule law", law_ok, f"mu1={mus[1]:.6f}, pinned from k={k_pin}",
               "max(gamma*mu, mu_min), floor 1e-4")
    )

    cfg_b = replace(cfg, sample_budget=5000, c0_samples=0, max_iters=10**6)
    env_b = register_env(oracle)
    res_b = run(env_b, cfg_b)
    expected = sum(30 + 2 * k for k in range(res_b.iterations))
    next_batch = 30 + 2 * res_b.iterations
    budget_ok = (
        env_b.total_draws == expected
        and env_b.total_draws <= 5000
        and env_b.total_draws + next_batch > 5000
    )
    results.append(
        _check("budget accounting (alg1)", budget_ok,
               f"draws {env_b.total_draws} after {res_b.iterations} iters", "sum m_k <= 5000 < sum + next")
    )

    cfg_czo = replace(
        cfg,
        method="czo1",
        mu0=1e-3,
        mu_min=1e-3,
        beta_schedule=ConstantBeta(1e-5),
        sample_budget=3000,
    )
    res_czo = run(register_env(oracle), cfg_czo)
    frozen_ok = bool(res_czo.traces) and all(t.mu == 1e-3 and t.c == 0.0 for t in res_czo.traces)
    results.append(
        _check("czo1 holds mu and c", frozen_ok,
               f"{len(res_czo.traces)} iterations", "mu = 1e-3, c = 0.0 throughout")
    )

    cfg2 = replace(cfg, method="alg2")
    env2 = register_env(oracle)
    res2 = run(env2, cfg2)
    expected2 = 2 * sum(30 + 2 * k for k in range(res2.iterations))
    results.append(
        _check("two-point draw accounting", env2.total_draws == expected2,
               f"draws {env2.total_draws}", "2 * sum m_k")
    )

    rerun = run(register_env(oracle), cfg)
    ident = len(rerun.traces) == len(res.traces) and all(
        np.array_equal(a.x, b.x) and a.c == b.c and a.grad_norm_sq == b.grad_norm_sq
        for a, b in zip(rerun.traces, res.traces)
    )
    results.append(_check("seeded rerun bit-identical", ident, "traces equal", "bit-identical"))

    return results + _theory_examples()


def _theory_examples() -> list[CheckResult]:
    # Step-size selection examples with hand-derived values.
    tc = TheoryConstants(sigma=1.0, alpha=1.0, lip_xi=1.0, lip_x=1.0, smoothness=1.0, epsilon=0.1)
    results = []
    s1 = 0.1 / (tc.epsilon * 4**-1.5)  # scale making mu_min exactly 0.1 at d=4
    tp1 = theory_params(tc, d=4, T=99, scale=(s1, s1, 1.0), method="alg1")
    tp2 = theory_params(tc, d=4, T=99, scale=(s1, s1, 1.0), method="alg2")
    ok1 = abs(tp1.beta - 0.1 / (2.0 * np.sqrt(24.0))) < 1e-12
    ok2 = abs(tp2.beta - 1.0 / 96.0) < 1e-12
    results.append(
        _check("theory step size (three-term min)", ok1, f"beta={tp1.beta:.6f}", "0.010206")
    )
    results.append(
        _check("theory step size (two-term min)", ok2, f"beta={tp2.beta:.6f}", "0.010417")
    )
    tp3 = theory_params(tc, d=4, T=99, scale=(1.0, 1.0, 1.0))
    ok3 = abs(tp3.mu_min - 0.0125) < 1e-15 and tp3.batch_size == 1600
    results.append(
        _check("theory sizing (mu_min, batch)", ok3,
               f"mu_min={tp3.mu_min}, m={tp3.batch_size}", "0.0125, 1600")
    )
    return results


def verify_pricing(seed: int = 2024) -> list[CheckResult]:
    """Choice probabilities, demand sampling, costs, metric separation."""
    results = []
    rng = split_rng(seed, 102)
    n, m_buyers = 10, 40

    worst = 0.0
    in_range = True
    mono_ok = True
    for _ in range(1000):
        theta, w = synth_theta(n, rng)
        spec = make_pricing_spec(n, m_buyers, theta, w)
        x = rng.uniform(-2, 4, n)
        p = choice_probs(spec, x)
        worst = max(worst, abs(float(p.sum()) - 1.0))
        in_range &= bool(np.all((p >= 0) & (p <= 1)))
        j = int(rng.integers(n))
        x_up = x.copy()
        x_up[j] += float(rng.uniform(0.1, 1.0))
        p_up = choice_probs(spec, x_up)
        others = np.delete(np.arange(n + 1), j + 1)
        mono_ok &= p_up[j + 1] < p[j + 1] and bool(np.all(p_up[others] >= p[others]))
    results.append(
        _check("choice probabilities on simplex", in_range and worst <= 1e-12,
               f"max |sum-1| {worst:.2e}", "<= 1e-12")
    )
    results.append(
        _check("raising a price lowers its share", mono_ok, "all ordered", "p_j down, others up")
    )

    theta, w = synth_theta(n, split_rng(seed, 103))
    spec = make_pricing_spec(n, m_buyers, theta, w)
    env = register_env(PricingEnv(spec))
    batch = env.sample(theta, 100_000, split_rng(seed, 104))
    sums_ok = bool(np.all(batch.outcomes.sum(axis=1) == m_buyers))
    emp = batch.outcomes[:, 1:].mean(axis=0)
    p_i = 1.0 / (n + spec.a0)
    se = np.sqrt(m_buyers * p_i * (1 - p_i) / batch.batch_size)
    dev = float(np.max(np.abs(emp - m_buyers * p_i) / se))
    results.append(_check("demand conserves buyers", sums_ok, "all sum to 40", "== m_buyers"))
    results.append(
        _check("demand calibration at x=theta", dev <= 3.0, f"max dev {dev:.2f} SE", "<= 3 SE of 40/11")
    )

    cont = slope_ok = True
    rng2 = split_rng(seed, 105)
    for _ in range(100):
        theta2, w2 = synth_theta(n, rng2)
        spec2 = make_pricing_spec(n, m_buyers, theta2, w2)
        eps = 1e-9
        at_l = piecewise_cost(spec2, spec2.l)
        below_l = piecewise_cost(spec2, spec2.l - eps)
        at_u = piecewise_cost(spec2, spec2.u)
        below_u = piecewise_cost(spec2, spec2.u - eps)
        cont &= bool(np.all(np.abs(at_l - below_l) < 1e-6) and np.all(np.abs(at_u - below_u) < 1e-6))
        mid_lo = piecewise_cost(spec2, spec2.l + 1.0)
        mid_hi = piecewise_cost(spec2, spec2.l + 2.0)
        hi_lo = piecewise_cost(spec2, spec2.u + 1.0)
        hi_hi = piecewise_cost(spec2, spec2.u + 2.0)
        lo_0 = piecewise_cost(spec2, np.zeros(n))
        lo_1 = piecewise_cost(spec2, np.minimum(spec2.l, 1.0))
        slope_ok &= bool(
            np.allclose(mid_hi - mid_lo, spec2.w)
            and np.allclose(hi_hi - hi_lo, 3.0 * spec2.w)
            and np.allclose(lo_1 - lo_0, 2.0 * spec2.w * np.minimum(spec2.l, 1.0))
        )
    results.append(_check("cost continuous at breakpoints", cont, "gaps < 1e-6", "continuous"))
    results.append(_check("cost slopes 2w / w / 3w", slope_ok, "all match", "per branch"))

    budget_env = register_env(PricingEnv(spec))
    metric_ledger = SampleLedger()
    eval_obj_metric(spec, theta, 1000, split_rng(seed, 106), metric_ledger)
    results.append(
        _check("metric draws on separate ledger",
               metric_ledger.total_draws == 1000 and budget_env.total_draws == 0,
               f"metric {metric_ledger.total_draws}, budget {budget_env.total_draws}",
               "1000 metric, 0 budget")
    )
    return results


SUITES = {
    "estimators": verify_estimators,
    "weights": verify_weights,
    "schedules": verify_schedules,
    "pricing": verify_pricing,
}


def run_suite(name: str, seed: int = 2024) -> list[CheckResult]:
    """Run one named suite, or all of them with ``name='all'``."""
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite(seed))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed)
