"""Checks of the library's contracts, behind ``zodd verify`` and the tests.

Each ``check_*`` function measures one contract against closed forms,
brute-force references or direct reruns, at the size and with the generator
it is given, and returns a :class:`CheckResult` (a list when it reports
several lines). ``SUITES`` runs them at sizes fit for an interactive
command; the acceptance tests run the same functions at full size:

* ``test_estimator_means_match_smoothed_gradient``: :func:`check_unbiased`
* ``test_offset_at_function_value_halves_second_moment``:
  :func:`check_offset_variance`
* ``test_second_moments_within_analytic_bounds``: :func:`check_moment_bounds`
* ``test_demand_calibration_at_reference_prices``: :func:`check_demand`
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .env import SampleBatch, SampleLedger, mean_objective, register_env
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
    make_pricing_spec,
    piecewise_cost,
    synth_theta,
)
from .rng import split_rng

__all__ = [
    "CheckResult",
    "check_unbiased",
    "check_offset_variance",
    "check_moment_bounds",
    "check_weights_on_simplex",
    "check_weights_optimal",
    "check_closer_probes_weigh_more",
    "check_choice_probs",
    "check_demand",
    "check_costs",
    "check_metric_ledger",
    "run_suite",
    "SUITES",
]


@dataclass(frozen=True)
class CheckResult:
    """One verdict; ``value`` is the measured number it compares, if any."""

    name: str
    passed: bool
    observed: str
    threshold: str
    value: float = math.nan


def _check(name, passed, observed, threshold, value=math.nan) -> CheckResult:
    return CheckResult(name, bool(passed), observed, threshold, float(value))


# --- estimators ----------------------------------------------------------------


# Every estimator check runs in dimension 5.
_D = 5


def _check_oracle() -> QuadraticShiftOracle:
    """The estimator checks' oracle: A = 0.2 I, b = 0.45 (every entry), sigma = 1."""
    return QuadraticShiftOracle(0.2 * np.eye(_D), np.full(_D, 0.45), 1.0)


def _mean_and_se(env, x, state, n, rng, kind):
    """Componentwise Monte-Carlo mean of ``n`` single-draw estimates g and its SE."""
    estimate = one_point_estimate if kind == "one-point" else two_point_estimate
    total = np.zeros(env.dim())
    total_sq = np.zeros(env.dim())
    for _ in range(n):
        g = estimate(env, x, state, 1, rng).g
        total += g
        total_sq += g * g
    mean = total / n
    var = np.maximum(total_sq / n - mean**2, 0.0)
    return mean, np.sqrt(var / n)


def check_unbiased(n_trials: int, rng) -> list[CheckResult]:
    """Estimator means within 5 SE of the smoothed gradient at x = 1 with mu = 0.5:
    one-point at offsets 0, F(x) and 100, then two-point, ``n_trials`` estimates each."""
    oracle = _check_oracle()
    mu = 0.5
    x = np.ones(_D)
    target = oracle.smoothed_gradient(x, mu)
    cases = [("one-point", c) for c in (0.0, oracle.value(x), 100.0)] + [("two-point", 0.0)]
    results = []
    for kind, c in cases:
        mean, se = _mean_and_se(register_env(oracle), x, SmoothingState(mu, c), n_trials, rng, kind)
        dev = float(np.max(np.abs(mean - target) / se))
        name = f"one-point unbiased (c={c:g})" if kind == "one-point" else "two-point unbiased"
        results.append(_check(name, dev <= 5.0, f"max dev {dev:.2f} SE", "<= 5 SE", dev))
    return results


def check_offset_variance(n_trials: int, rng) -> CheckResult:
    """One-point second moment with offset F(x) under half that with offset 0, with
    mu = 0.1 at the point ``x = t 1`` where F(x) = 10, ``n_trials`` estimates per offset."""
    oracle = _check_oracle()
    mu = 0.1
    # solve ||x||^2 + b.(A t 1) = 10 along x = t 1
    lin = float(oracle.b @ (oracle.a_matrix @ np.ones(_D)))
    x = np.full(_D, (-lin + np.sqrt(lin**2 + 4.0 * _D * 10.0)) / (2.0 * _D))
    f_x = oracle.value(x)
    with_offset = np.mean(moment_samples(register_env(oracle), x, SmoothingState(mu, f_x), 1, n_trials, rng))
    without = np.mean(moment_samples(register_env(oracle), x, SmoothingState(mu, 0.0), 1, n_trials, rng))
    ratio = float(with_offset / without)
    return _check("variance ordering (c=F vs c=0)", ratio < 0.5 and abs(f_x - 10.0) <= 1e-12,
                  f"ratio {ratio:.4f} at F(x) = {f_x:g}", "< 0.5 at F(x) = 10", ratio)


def check_moment_bounds(n_trials: int, rng) -> CheckResult:
    """E||g||^2 at x = 1 within 3 SE of its closed-form bound, for both estimators,
    mu in {0.05, 0.1, 0.5} and m in {1, 10}: 12 cells of ``n_trials`` estimates."""
    oracle = _check_oracle()
    x = np.ones(_D)
    grad_sq = float(np.sum(oracle.gradient(x) ** 2))
    worst = -np.inf
    for kind in ("one-point", "two-point"):
        for mu in (0.05, 0.1, 0.5):
            for m in (1, 10):
                sq = moment_samples(register_env(oracle), x, SmoothingState(mu), m, n_trials, rng, kind)
                emp = float(np.mean(sq))
                se = float(np.std(sq) / np.sqrt(n_trials))
                bound = estimator_moment_bound(
                    kind, d=_D, mu=mu, m=m, sigma=oracle.sigma,
                    smoothness=oracle.smoothness, grad_norm_sq=grad_sq,
                    offset_gap_sq=oracle.value(x) ** 2 if kind == "one-point" else 0.0,
                )
                worst = max(worst, (emp - bound) / se)
    return _check("second-moment bounds (mu x m grid)", worst <= 3.0,
                  f"worst excess {worst:.2f} SE", "<= 3 SE", worst)


def verify_estimators(seed: int = 2024) -> list[CheckResult]:
    """Unbiasedness, offset invariance, variance ordering, moment bounds."""
    rng = split_rng(seed, 100)
    return [
        *check_unbiased(40_000, rng),
        check_offset_variance(40_000, rng),
        check_moment_bounds(20_000, rng),
    ]


# --- reuse weights -------------------------------------------------------------


def _random_window(rng, n_entries, d=3):
    """Random history window with known probes and batch sizes."""
    win = HistoryWindow(n_entries)
    for _ in range(n_entries):
        probe = rng.standard_normal(d)
        m_i = int(rng.integers(1, 20))
        win.push(SampleBatch(probe=probe, outcomes=np.zeros(m_i), batch_size=m_i))
    return win


def check_weights_on_simplex(n_windows: int, rng) -> CheckResult:
    """Weights of random windows are nonnegative and sum to 1 within 1e-12."""
    worst_sum = 0.0
    feasible = True
    for _ in range(n_windows):
        win = _random_window(rng, int(rng.integers(1, 11)))
        wv = compute_weights(win, rng.standard_normal(3), float(rng.uniform(0, 2)))
        feasible &= bool(np.all(wv.a >= 0))
        worst_sum = max(worst_sum, abs(float(wv.a.sum()) - 1.0))
    return _check(f"weights on simplex ({n_windows} random)", feasible and worst_sum <= 1e-12,
                  f"max |sum-1| {worst_sum:.2e}", "<= 1e-12, all a_i >= 0", worst_sum)


def check_weights_optimal(n_windows: int, n_candidates: int, rng) -> CheckResult:
    """:func:`compute_weights` returns the simplex minimizer of sum_i b_i a_i^2.

    Certified on random windows, with ``m_scale`` spread over 1e-3..1e3: the
    weights lie on the simplex and ``a_i b_i`` is equal across entries to
    within 1e-12 relative, the KKT condition of this strictly convex
    problem, and none of ``n_candidates`` Dirichlet points does better.
    """
    worst_spread = 0.0
    certified = True
    beaten = 0
    for _ in range(n_windows):
        s = int(rng.integers(1, 11))
        wv = compute_weights(_random_window(rng, s), rng.standard_normal(3), 10.0 ** rng.uniform(-3, 3))
        a, b = wv.a, wv.b
        ab = a * b
        spread = float((ab.max() - ab.min()) / ab.mean())
        certified &= bool(np.all(a >= 0)) and abs(float(a.sum()) - 1.0) <= 1e-12 and spread <= 1e-12
        worst_spread = max(worst_spread, spread)
        cand = rng.dirichlet(np.ones(s), size=n_candidates)
        if np.min(cand**2 @ b) < float(b @ a**2) - 1e-12:
            beaten += 1
    return _check("closed-form weights optimal", certified and beaten == 0,
                  f"max a*b spread {worst_spread:.2e}, beaten {beaten}x",
                  "on simplex, a*b spread <= 1e-12, never beaten", worst_spread)


def check_closer_probes_weigh_more(n_pairs: int, rng) -> CheckResult:
    """Of two equal batches, the one probed nearer the next iterate weighs more."""
    ok = True
    for _ in range(n_pairs):
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
    return _check("closer probes weigh more", ok, "all ordered", "a_near > a_far")


def verify_weights(seed: int = 2024) -> list[CheckResult]:
    """Simplex feasibility, certified optimality, monotone preference."""
    rng = split_rng(seed, 101)
    return [
        check_weights_on_simplex(1000, rng),
        check_weights_optimal(100, 2000, rng),
        check_closer_probes_weigh_more(200, rng),
    ]


# --- schedules -----------------------------------------------------------------


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


# --- pricing# --- pricing -------------------------------------------------------------------

# Every pricing check runs on 10 products and 40 buyers.
_N, _BUYERS = 10, 40


def check_choice_probs(n_points: int, rng) -> list[CheckResult]:
    """Choice probabilities lie on the simplex and fall with their own price."""
    worst = 0.0
    in_range = True
    mono_ok = True
    for _ in range(n_points):
        theta, w = synth_theta(_N, rng)
        spec = make_pricing_spec(_N, _BUYERS, theta, w)
        x = rng.uniform(-2, 4, _N)
        p = choice_probs(spec, x)
        worst = max(worst, abs(float(p.sum()) - 1.0))
        in_range &= bool(np.all((p >= 0) & (p <= 1)))
        j = int(rng.integers(_N))
        x_up = x.copy()
        x_up[j] += float(rng.uniform(0.1, 1.0))
        p_up = choice_probs(spec, x_up)
        others = np.delete(np.arange(_N + 1), j + 1)
        mono_ok &= p_up[j + 1] < p[j + 1] and bool(np.all(p_up[others] >= p[others]))
    return [
        _check("choice probabilities on simplex", in_range and worst <= 1e-12,
               f"max |sum-1| {worst:.2e}", "<= 1e-12", worst),
        _check("raising a price lowers its share", mono_ok, "all ordered", "p_j down, others up"),
    ]


def check_demand(n_draws: int, instance_rng, rng) -> list[CheckResult]:
    """At x = theta demand conserves buyers and each option's mean count is
    within 3 SE of 40/11 (probability 1/(n + a0) = 1/11 per option)."""
    theta, w = synth_theta(_N, instance_rng)
    spec = make_pricing_spec(_N, _BUYERS, theta, w)
    batch = register_env(PricingEnv(spec)).sample(theta, n_draws, rng)
    sums_ok = bool(np.all(batch.outcomes.sum(axis=1) == _BUYERS))
    p_i = 1.0 / (_N + spec.a0)
    se = np.sqrt(_BUYERS * p_i * (1 - p_i) / n_draws)
    dev = float(np.max(np.abs(batch.outcomes[:, 1:].mean(axis=0) - _BUYERS * p_i) / se))
    return [
        _check("demand conserves buyers", sums_ok, f"all sum to {_BUYERS}", "== m_buyers"),
        _check("demand calibration at x=theta", dev <= 3.0, f"max dev {dev:.2f} SE",
               "<= 3 SE of 40/11", dev),
    ]


def check_costs(n_instances: int, rng) -> list[CheckResult]:
    """Piecewise cost is continuous at l and u, with slopes 2w, w and 3w."""
    cont = slope_ok = True
    for _ in range(n_instances):
        theta, w = synth_theta(_N, rng)
        spec = make_pricing_spec(_N, _BUYERS, theta, w)
        eps = 1e-9
        at_l = piecewise_cost(spec, spec.l)
        below_l = piecewise_cost(spec, spec.l - eps)
        at_u = piecewise_cost(spec, spec.u)
        below_u = piecewise_cost(spec, spec.u - eps)
        cont &= bool(np.all(np.abs(at_l - below_l) < 1e-6) and np.all(np.abs(at_u - below_u) < 1e-6))
        mid_lo = piecewise_cost(spec, spec.l + 1.0)
        mid_hi = piecewise_cost(spec, spec.l + 2.0)
        hi_lo = piecewise_cost(spec, spec.u + 1.0)
        hi_hi = piecewise_cost(spec, spec.u + 2.0)
        lo_0 = piecewise_cost(spec, np.zeros(_N))
        lo_1 = piecewise_cost(spec, np.minimum(spec.l, 1.0))
        slope_ok &= bool(
            np.allclose(mid_hi - mid_lo, spec.w)
            and np.allclose(hi_hi - hi_lo, 3.0 * spec.w)
            and np.allclose(lo_1 - lo_0, 2.0 * spec.w * np.minimum(spec.l, 1.0))
        )
    return [
        _check("cost continuous at breakpoints", cont, "gaps < 1e-6", "continuous"),
        _check("cost slopes 2w / w / 3w", slope_ok, "all match", "per branch"),
    ]


def check_metric_ledger(n_eval: int, rng) -> CheckResult:
    """The solution metric counts its draws on its own ledger, not the budget's.

    Follows ``run_experiment``: the metric samples the environment that the
    optimizer's budget handle wraps.
    """
    theta, w = synth_theta(_N, rng)
    env = PricingEnv(make_pricing_spec(_N, _BUYERS, theta, w))
    handle = register_env(env)
    metric_ledger = SampleLedger()
    mean_objective(env, theta, n_eval, rng, metric_ledger)
    return _check("metric draws on separate ledger",
                  metric_ledger.total_draws == n_eval and handle.total_draws == 0,
                  f"metric {metric_ledger.total_draws}, budget {handle.total_draws}",
                  f"{n_eval} metric, 0 budget")


def verify_pricing(seed: int = 2024) -> list[CheckResult]:
    """Choice probabilities, demand sampling, costs, metric separation."""
    return [
        *check_choice_probs(1000, split_rng(seed, 102)),
        *check_demand(100_000, split_rng(seed, 103), split_rng(seed, 104)),
        *check_costs(100, split_rng(seed, 105)),
        check_metric_ledger(1000, split_rng(seed, 106)),
    ]


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
