"""Multiproduct pricing simulation with price-dependent demand.

A seller sets normalized prices ``x`` for ``n`` products. Each of
``m_buyers`` buyers independently picks one product (or nothing) with
multinomial-logit probabilities driven by the price gaps ``theta_i - x_i``,
so the demand distribution shifts with the decision. The per-realization
objective is cost minus revenue: ``f(x, xi) = -sum_i x_i xi_i + sum_i
cost_i(xi_i)`` with a piecewise-linear unit cost that is cheap in a middle
volume band and expensive outside it. Minimizing f maximizes expected
profit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Environment, SampleBatch, SampleLedger, as_decision_vector, mean_objective

__all__ = [
    "PricingEnvSpec",
    "PricingEnv",
    "make_pricing_spec",
    "choice_probs",
    "sample_demand",
    "piecewise_cost",
    "pricing_f",
    "synth_theta",
    "load_theta",
    "eval_obj_metric",
]


@dataclass(frozen=True)
class PricingEnvSpec:
    """Immutable description of one pricing problem instance.

    Attributes
    ----------
    n : number of products.
    m_buyers : buyers per demand realization.
    theta : (n,) reference prices, > 0.
    gamma_sens : (n,) price sensitivities, > 0.
    a0 : no-purchase weight in the choice model, > 0.
    w : (n,) unit costs, >= 0.
    l, u : (n,) volume breakpoints of the cost function, ``l < u``.
    """

    n: int
    m_buyers: int
    theta: np.ndarray
    gamma_sens: np.ndarray
    a0: float
    w: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m_buyers < 1:
            raise ValueError("n and m_buyers must be >= 1")
        for name in ("theta", "gamma_sens", "w", "l", "u"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.n,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite vector of length n")
            object.__setattr__(self, name, arr)
        if np.any(self.theta <= 0):
            raise ValueError("theta entries must be > 0")
        if np.any(self.gamma_sens <= 0):
            raise ValueError("gamma_sens entries must be > 0")
        if np.any(self.w < 0):
            raise ValueError("w entries must be >= 0")
        if not (self.a0 > 0 and np.isfinite(self.a0)):
            raise ValueError("a0 must be finite and > 0")
        if np.any(self.l >= self.u):
            raise ValueError("cost breakpoints must satisfy l < u")


def make_pricing_spec(
    n: int,
    m_buyers: int,
    theta,
    w,
    gamma_sens=None,
    a0: float | None = None,
) -> PricingEnvSpec:
    """Build a spec with the standard defaults filled in.

    Defaults: sensitivities 1.0, no-purchase weight ``0.1 n``, and cost
    breakpoints ``l = 0.5 m_buyers / n``, ``u = 1.5 m_buyers / n`` for every
    product.
    """
    theta = np.asarray(theta, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if gamma_sens is None:
        gamma_sens = np.ones(n)
    elif np.isscalar(gamma_sens):
        gamma_sens = np.full(n, float(gamma_sens))
    if a0 is None:
        a0 = 0.1 * n
    per = m_buyers / n
    return PricingEnvSpec(
        n=int(n),
        m_buyers=int(m_buyers),
        theta=theta,
        gamma_sens=np.asarray(gamma_sens, dtype=np.float64),
        a0=float(a0),
        w=w,
        l=np.full(n, 0.5 * per),
        u=np.full(n, 1.5 * per),
    )


def choice_probs(spec: PricingEnvSpec, x) -> np.ndarray:
    """Buyer choice probabilities at prices ``x``, length ``n + 1``.

    Index 0 is the no-purchase option with weight ``a0``; product ``i`` has
    weight ``exp(gamma_i (theta_i - x_i))``. Computed as a max-shifted
    softmax so extreme prices cannot overflow.
    """
    return _choice_probs(spec, np.log(spec.a0), as_decision_vector(x, spec.n))


def _choice_probs(spec: PricingEnvSpec, log_a0: float, x: np.ndarray) -> np.ndarray:
    # x is a validated decision vector and log_a0 is np.log(spec.a0); the
    # logits are built in place, element for element as concatenating them
    logits = np.empty(spec.n + 1)
    logits[0] = log_a0
    np.multiply(spec.gamma_sens, spec.theta - x, out=logits[1:])
    logits -= logits.max()
    np.exp(logits, out=logits)
    return logits / logits.sum()


def _tally_choices(p: np.ndarray, n: int, m_buyers: int, draws: np.ndarray) -> np.ndarray:
    # draws: uniform[0,1) of shape (..., m_buyers); inverse-CDF categorical.
    # draws is the caller's fresh private array and is sorted in place, row
    # by row: a row's counts do not depend on the order of its buyers, so
    # every count is unchanged, and sorted keys make the binary search's
    # branches predictable, which saves far more than the sort costs.
    draws.sort(axis=-1)
    cdf = p.cumsum()
    cdf[-1] = 1.0
    # cdf[-1] = 1.0 exceeds every draw, so no index passes n, whatever p holds
    idx = cdf.searchsorted(draws, side="right")
    if idx.ndim == 1:
        return np.bincount(idx, minlength=n + 1).astype(np.int64, copy=False)
    rows = idx.shape[0]
    if rows == 1:
        counts = np.bincount(idx[0], minlength=n + 1)
    else:
        flat = idx + (n + 1) * np.arange(rows)[:, None]
        counts = np.bincount(flat.ravel(), minlength=rows * (n + 1))
    return counts.reshape(rows, n + 1).astype(np.int64, copy=False)


def sample_demand(spec: PricingEnvSpec, x, rng: np.random.Generator) -> np.ndarray:
    """One demand realization: per-option buyer counts, summing to m_buyers.

    Each buyer draws independently from the choice probabilities
    (inverse-CDF on the stabilized vector); entry 0 counts the buyers who
    bought nothing.
    """
    p = choice_probs(spec, x)
    return _tally_choices(p, spec.n, spec.m_buyers, rng.random(spec.m_buyers))


def piecewise_cost(spec: PricingEnvSpec, counts) -> np.ndarray:
    """Per-product cost of selling ``counts`` units, elementwise.

    Three linear pieces with slopes ``2 w`` below ``l``, ``w`` between ``l``
    and ``u``, and ``3 w`` above ``u``, joined continuously. ``counts`` may
    carry any leading batch shape over the trailing product axis.
    """
    q = np.asarray(counts, dtype=np.float64)
    w, l, u = spec.w, spec.l, spec.u
    low = 2.0 * w * q
    mid = w * (q - l) + 2.0 * w * l
    high = 3.0 * w * (q - u) + w * (u - l) + 2.0 * w * l
    return np.where(q <= l, low, np.where(q <= u, mid, high))


def pricing_f(spec: PricingEnvSpec, x, xi) -> float:
    """Cost minus revenue for one demand realization ``xi`` (length n+1)."""
    x = np.asarray(x, dtype=np.float64)
    sold = np.asarray(xi, dtype=np.float64)[1:]
    return float(-x @ sold + piecewise_cost(spec, sold).sum())


# Each signed integer type, in either byte order, with the unsigned type of
# its size and byte order and its own largest value. Seen as unsigned, a
# negative count lies above every value the signed type can hold.
_UNSIGNED = {
    np.dtype(f"{order}i{size}"): (np.dtype(f"{order}u{size}"), 2 ** (8 * size - 1) - 1)
    for size in (1, 2, 4, 8)
    for order in "<>"
}


class PricingEnv(Environment):
    """The pricing problem as a sampling environment.

    Outcomes are integer buyer counts in ``[0, m_buyers]``, one per option,
    as :meth:`sample` draws them. A count takes only ``m_buyers + 1``
    values, so the constructor tabulates :func:`piecewise_cost` once for
    every count and product, an ``(m_buyers + 1, n)`` array, and
    :meth:`eval_f_batch` looks costs up there; the table holds the
    formula's own values, so the results are those of the formula bit for
    bit.
    """

    def __init__(self, spec: PricingEnvSpec) -> None:
        self.spec = spec
        self._cost_table = piecewise_cost(spec, np.arange(spec.m_buyers + 1.0)[:, None])
        self._products = np.arange(spec.n)
        self._log_a0 = np.log(spec.a0)

    def dim(self) -> int:
        return self.spec.n

    def sample(self, x, m, rng) -> SampleBatch:
        spec = self.spec
        probe = np.array(x, dtype=np.float64, copy=True)
        # a finite sum means finite entries; otherwise the full check decides.
        # Python's sum of floats overflows quietly where numpy's would warn.
        if probe.shape != (spec.n,) or not math.isfinite(sum(probe.tolist())):
            as_decision_vector(probe, spec.n)
        p = _choice_probs(spec, self._log_a0, probe)
        draws = rng.random((m, spec.m_buyers))
        outcomes = _tally_choices(p, spec.n, spec.m_buyers, draws)
        return SampleBatch(probe=probe, outcomes=outcomes, batch_size=m)

    def eval_f(self, x, xi) -> float:
        return pricing_f(self.spec, x, xi)

    def eval_f_batch(self, x, outcomes) -> np.ndarray:
        """f at ``x`` for each row of ``outcomes``.

        ``outcomes`` is an integer array of shape ``(rows, n + 1)`` holding
        counts in ``[0, m_buyers]``; anything else raises ``ValueError``.
        Costs are looked up in the per-instance table of
        :func:`piecewise_cost` values.
        """
        m_buyers = self.spec.m_buyers
        counts = np.asarray(outcomes)[:, 1:]
        revenue = counts.astype(np.float64) @ np.asarray(x, dtype=np.float64)
        # a count outside the table would index it from its end or past it;
        # one max over the unsigned view of signed counts refuses both
        kind = counts.dtype.kind
        if kind == "i":
            unsigned, signed_max = _UNSIGNED[counts.dtype]
            counts_seen, limit = counts.view(unsigned), min(m_buyers, signed_max)
        else:
            counts_seen, limit = counts, m_buyers
        # np.maximum.reduce and np.add.reduce are what ndarray.max and
        # ndarray.sum call, without the Python wrappers around them
        if kind not in "iu" or np.maximum.reduce(counts_seen, axis=None, initial=0) > limit:
            raise ValueError(f"outcomes must be integer buyer counts in [0, {m_buyers}]")
        return np.add.reduce(self._cost_table[counts, self._products], axis=-1) - revenue


def synth_theta(
    n: int,
    rng: np.random.Generator,
    theta_low: float = 0.55,
    theta_high: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic reference prices and unit costs for one instance.

    ``theta_i`` is uniform on ``[theta_low, theta_high]``, standing in for
    recorded average selling prices normalized by the top price, so the
    stock 0.5-filled starting point prices near break-even. ``w_i =
    rho_i theta_i`` with ``rho_i`` uniform on ``[0.25, 0.5]``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 < theta_low < theta_high):
        raise ValueError("need 0 < theta_low < theta_high")
    theta = rng.uniform(theta_low, theta_high, n)
    rho = rng.uniform(0.25, 0.5, n)
    return theta, rho * theta


def load_theta(path) -> np.ndarray:
    """Read reference prices from a text file, one positive decimal per line."""
    values = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: not a number: {text!r}") from exc
    theta = np.asarray(values, dtype=np.float64)
    if theta.size == 0:
        raise ValueError(f"{path}: no values")
    if np.any(theta <= 0) or not np.all(np.isfinite(theta)):
        raise ValueError(f"{path}: all values must be finite and > 0")
    return theta


def eval_obj_metric(
    spec: PricingEnvSpec,
    x_hat,
    n_eval: int,
    rng: np.random.Generator,
    ledger: SampleLedger | None = None,
) -> float:
    """Mean of f over ``n_eval`` fresh demand realizations at ``x_hat``.

    Post-hoc solution metric; draws land on the separate ``ledger`` (when
    given), never on any optimizer budget.
    """
    return mean_objective(PricingEnv(spec), x_hat, n_eval, rng, ledger)
