"""Correctness references and output checks for the zodd benchmark.

Everything here is written from the model definitions, not from zodd's own
formulas, and imports nothing from zodd:

* the exact expected pricing objective of a decision, from the logit choice
  model and binomial marginals of the per-product buyer counts;
* the quadratic oracle's value ``||x||^2 + b.(A x)`` and gradient
  ``2 x + A^T b``;
* the draws a run must meter, from the definition of its batch schedule.

Each ``check_*`` function returns a list of failure messages; an empty list
means the outputs passed. Every check is a deterministic function of the
outputs, and the tolerances below are chosen so that a correct program fails
with negligible probability (see README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

# A record's ``obj`` (a mean over the metric's fresh draws) must lie within
# this many standard errors of the exact expected objective.
Z_OBJ = 6.0
# Each component of an estimator mean must lie within this many standard
# errors of the true gradient.
Z_GRAD = 6.0


# --- pricing ------------------------------------------------------------------


@dataclass(frozen=True)
class PricingInstance:
    """The parameters of one pricing instance, copied out as plain arrays."""

    theta: np.ndarray
    gamma_sens: np.ndarray
    a0: float
    w: np.ndarray
    l: np.ndarray
    u: np.ndarray
    m_buyers: int

    @classmethod
    def from_spec(cls, spec) -> "PricingInstance":
        def copy(name):
            return np.array(getattr(spec, name), dtype=np.float64)

        return cls(
            theta=copy("theta"),
            gamma_sens=copy("gamma_sens"),
            a0=float(spec.a0),
            w=copy("w"),
            l=copy("l"),
            u=copy("u"),
            m_buyers=int(spec.m_buyers),
        )


def logit_probabilities(inst: PricingInstance, x) -> np.ndarray:
    """Probability that one buyer picks product ``i`` at prices ``x``.

    The no-purchase option has weight ``a0`` and product ``i`` has weight
    ``exp(gamma_i (theta_i - x_i))``; the returned vector leaves out the
    no-purchase option, so it sums to less than one.
    """
    scores = inst.gamma_sens * (inst.theta - np.asarray(x, dtype=np.float64))
    top = max(float(scores.max()), math.log(inst.a0))
    weights = np.exp(scores - top)
    return weights / (inst.a0 * math.exp(-top) + weights.sum())


def unit_cost(q, w, l, u):
    """Replenishment cost of ``q`` units: slope 2w up to l, w up to u, 3w above."""
    q = np.asarray(q, dtype=np.float64)
    return (
        2.0 * w * np.minimum(q, l)
        + w * np.clip(q - l, 0.0, u - l)
        + 3.0 * w * np.maximum(q - u, 0.0)
    )


def binomial_pmf(m: int, p) -> np.ndarray:
    """(m+1, len(p)) table of P(K = k) for K ~ Binomial(m, p_i).

    Computed in log space with ``0 log 0 = 0``, so that probabilities that
    are exactly 0 or 1, or vanishingly small, stay exact instead of raising.
    """
    k = np.arange(m + 1, dtype=np.float64)[:, None]
    p = np.asarray(p, dtype=np.float64)[None, :]
    log_comb = gammaln(m + 1.0) - gammaln(k + 1.0) - gammaln(m - k + 1.0)
    return np.exp(log_comb + xlogy(k, p) + xlog1py(m - k, -p))


def expected_objective(inst: PricingInstance, x) -> tuple[float, float]:
    """Exact ``E f(x, xi)`` at prices ``x`` and an upper bound on its sd.

    ``f`` is cost minus revenue and separates over products, and each
    product's count is Binomial(m_buyers, p_i), so the mean is exact from the
    binomial pmf. The counts are dependent; ``sum_i sd_i`` bounds the sd of
    their sum for any dependence. Counts of probability 0 are left out of
    the sums, so that prices a run has driven to huge values cannot turn
    ``0 * inf`` into NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    pmf = binomial_pmf(inst.m_buyers, logit_probabilities(inst, x))
    k = np.arange(inst.m_buyers + 1, dtype=np.float64)[:, None]
    f = -x[None, :] * k + unit_cost(k, inst.w, inst.l, inst.u)
    seen = pmf > 0
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.where(seen, pmf * f, 0.0).sum(axis=0)
        variances = np.where(seen, pmf * (f - means) ** 2, 0.0).sum(axis=0)
    return float(means.sum()), float(np.sqrt(variances).sum())


@dataclass(frozen=True)
class Plan:
    """What the batch schedule says one run must do."""

    iterations: int
    draws: int
    next_cost: int  # draws the first batch not started would have needed


def planned_run(method: str, budget: int, m0: int, slope: int, c0_samples: int) -> Plan:
    """Iterations and ledger draws of a run, from its schedule alone.

    ``alg1`` first spends ``c0_samples`` draws on its initial offset (when
    they fit the budget). Iteration ``k`` draws ``m_k = m0 + slope k``
    outcomes for ``-mini`` methods and one outcome for ``-b1`` methods,
    doubled for the two-point ``alg2``. A run starts a batch only when it
    fits what is left of the budget.
    """
    kind, variant = method.split("-")
    per = 2 if kind == "alg2" else 1
    used = c0_samples if kind == "alg1" and 0 < c0_samples <= budget else 0
    k = 0
    while True:
        cost = per * (m0 + slope * k if variant == "mini" else 1)
        if used + cost > budget:
            return Plan(iterations=k, draws=used, next_cost=cost)
        used += cost
        k += 1


def check_pricing_records(
    records: list[dict],
    instances: dict[int, PricingInstance],
    methods: tuple[str, ...],
    plan: dict[str, Plan],
    budget: int,
    metric_samples: int,
) -> list[str]:
    """Check every record of a pricing grid against the references."""
    failures = []
    cells = sorted((r["method"], r["seed"]) for r in records)
    expected = sorted((m, s) for s in instances for m in methods)
    if cells != expected:
        failures.append(f"grid cells {len(cells)} do not match the {len(expected)} planned")
    for r in records:
        cell = f"{r['method']} seed={r['seed']}"
        if r["diverged"] or not math.isfinite(r["obj"]):
            failures.append(f"{cell}: diverged (obj {r['obj']})")
            continue
        p = plan[r["method"]]
        if r["draws"] != p.draws or r["iterations"] != p.iterations:
            failures.append(
                f"{cell}: {r['iterations']} iterations and {r['draws']} draws, "
                f"planned {p.iterations} and {p.draws}"
            )
        if r["draws"] + p.next_cost <= budget:
            failures.append(f"{cell}: stopped with room for another batch")
        if r["metric_draws"] != 2 * metric_samples:
            failures.append(f"{cell}: {r['metric_draws']} metric draws, planned {2 * metric_samples}")
        exact, sd = expected_objective(instances[r["seed"]], r["x_final"])
        limit = Z_OBJ * sd / math.sqrt(metric_samples)
        if not abs(r["obj"] - exact) <= limit:
            failures.append(
                f"{cell}: obj {r['obj']:.6f} is {abs(r['obj'] - exact):.3g} from the exact "
                f"{exact:.6f} (limit {limit:.3g})"
            )
    return failures


def mean_exact_profit(records: list[dict], instances: dict[int, PricingInstance]) -> dict[str, float]:
    """Per-method mean of the exact expected profit at ``x_final``."""
    by_method: dict[str, list[float]] = {}
    for r in records:
        exact, _ = expected_objective(instances[r["seed"]], r["x_final"])
        by_method.setdefault(r["method"], []).append(-exact)
    return {m: float(np.mean(v)) for m, v in by_method.items()}


def check_profit_order(profit: dict[str, float]) -> list[str]:
    """alg1 and alg2 must each beat the czo1 baseline on mean exact profit."""
    base = next(m for m in profit if m.startswith("czo1"))
    return [
        f"{m} mean exact profit {profit[m]:.4f} does not exceed {base}'s {profit[base]:.4f}"
        for m in profit
        if not m.startswith("czo1") and not profit[m] > profit[base]
    ]


# --- quadratic oracle ----------------------------------------------------------


def quadratic_value(a_matrix, b, x) -> float:
    """``F(x) = E[||x||^2 + b.xi]`` for ``xi ~ N(A x, sigma^2 I)``."""
    x = np.asarray(x, dtype=np.float64)
    return float(x @ x + b @ (a_matrix @ x))


def quadratic_gradient(a_matrix, b, x) -> np.ndarray:
    """Gradient of :func:`quadratic_value`: ``2 x + A^T b``."""
    return 2.0 * np.asarray(x, dtype=np.float64) + np.asarray(a_matrix).T @ b


def check_estimates(
    estimates: dict[str, np.ndarray],
    draws: dict[str, int],
    draws_per_trial: dict[str, int],
    target: np.ndarray,
) -> list[str]:
    """Check Monte-Carlo estimator trials against the true gradient.

    ``estimates`` maps a configuration name to its (trials, d) array of
    gradient estimates. The Gaussian-smoothed gradient of the quadratic
    oracle equals its gradient, so every mean must lie within ``Z_GRAD``
    standard errors of ``target``; the offset ``c = F(x)`` must give a
    smaller mean ``||g||^2`` than ``c = 0``; and each configuration's ledger
    must hold exactly trials times its draws per trial.
    """
    failures = []
    for name, g in estimates.items():
        n = g.shape[0]
        if not np.all(np.isfinite(g)):
            failures.append(f"{name}: non-finite estimates")
            continue
        mean = g.mean(axis=0)
        se = g.std(axis=0, ddof=1) / math.sqrt(n)
        worst = float(np.max(np.abs(mean - target) / se))
        if not worst <= Z_GRAD:
            failures.append(f"{name}: mean is {worst:.2f} SE from the gradient (limit {Z_GRAD})")
        if draws[name] != n * draws_per_trial[name]:
            failures.append(f"{name}: {draws[name]} ledger draws for {n} trials")
    sq = {name: float(np.mean(np.einsum("ij,ij->i", g, g))) for name, g in estimates.items()}
    if not sq["one_point_c_F"] < sq["one_point_c_0"]:
        failures.append(
            f"mean ||g||^2 at c=F(x) {sq['one_point_c_F']:.4g} is not below "
            f"c=0 {sq['one_point_c_0']:.4g}"
        )
    return failures
