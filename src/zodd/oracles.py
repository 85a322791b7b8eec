"""Analytic test problems with closed-form objectives and smoothed objectives.

These environments exist so the estimator and optimizer properties become
falsifiable: on them the expectation objective, its gradient, the Gaussian
smoothed objective, and the noise scale are all exactly computable, which is
what the Monte-Carlo verification suites compare against.
"""

from __future__ import annotations

import numpy as np

from .env import Environment, SampleBatch

__all__ = [
    "QuadraticShiftOracle",
    "DeterministicEnv",
    "mc_smoothed_value",
    "estimator_moment_bound",
    "offset_tracking_ceiling",
]


class QuadraticShiftOracle(Environment):
    """Quadratic objective with a decision-shifted Gaussian outcome family.

    Outcomes follow ``xi ~ N(A x, noise_sigma^2 I)`` and the per-sample
    objective is ``f(x, xi) = ||x||^2 + b . xi``. Every quantity the
    verification suites need is then exact:

    * objective            ``F(x)   = ||x||^2 + b . (A x)``
    * gradient             ``grad F = 2 x + A^T b``
    * smoothed objective   ``F_mu(x) = F(x) + mu^2 d`` (the linear part is
      invariant under Gaussian smoothing), with gradient equal to ``grad F``
    * per-sample noise     ``Var f(x, xi) = (||b|| noise_sigma)^2``
    * curvature constant   2 (Hessian is ``2 I``)

    Parameters
    ----------
    a_matrix : (d, d) array_like
        Location map of the outcome distribution.
    b : (d,) array_like
        Linear coefficient applied to the outcome inside f.
    noise_sigma : float
        Standard deviation of the isotropic outcome noise, >= 0.
    """

    def __init__(self, a_matrix, b, noise_sigma: float) -> None:
        self.a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=np.float64))
        self.b = np.asarray(b, dtype=np.float64)
        self.noise_sigma = float(noise_sigma)
        d = self.b.size
        if self.a_matrix.shape != (d, d):
            raise ValueError("a_matrix must be square with side len(b)")
        if self.noise_sigma < 0 or not np.isfinite(self.noise_sigma):
            raise ValueError("noise_sigma must be finite and >= 0")
        if not np.all(np.isfinite(self.a_matrix)) or not np.all(np.isfinite(self.b)):
            raise ValueError("oracle coefficients must be finite")

    # -- environment contract -------------------------------------------------

    def dim(self) -> int:
        return self.b.size

    def sample(self, x, m, rng) -> SampleBatch:
        probe = np.array(x, dtype=np.float64, copy=True)
        mean = self.a_matrix @ probe
        outcomes = mean + self.noise_sigma * rng.standard_normal((m, self.b.size))
        return SampleBatch(probe=probe, outcomes=outcomes, batch_size=m)

    def eval_f(self, x, xi) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(x @ x + self.b @ np.asarray(xi, dtype=np.float64))

    def eval_f_batch(self, x, outcomes) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x @ x + np.asarray(outcomes, dtype=np.float64) @ self.b

    # -- closed forms ---------------------------------------------------------

    def value(self, x) -> float:
        """Exact objective F(x)."""
        x = np.asarray(x, dtype=np.float64)
        return float(x @ x + self.b @ (self.a_matrix @ x))

    def gradient(self, x) -> np.ndarray:
        """Exact gradient of F."""
        x = np.asarray(x, dtype=np.float64)
        return 2.0 * x + self.a_matrix.T @ self.b

    def smoothed_value(self, x, mu: float) -> float:
        """Exact Gaussian-smoothed objective at radius mu."""
        return self.value(x) + float(mu) ** 2 * self.dim()

    def smoothed_gradient(self, x, mu: float) -> np.ndarray:
        """Exact gradient of the smoothed objective (independent of mu here)."""
        return self.gradient(x)

    # -- problem constants ----------------------------------------------------

    @property
    def sigma(self) -> float:
        """Per-sample noise standard deviation of f at any fixed x."""
        return float(np.linalg.norm(self.b)) * self.noise_sigma

    @property
    def smoothness(self) -> float:
        """Gradient Lipschitz constant of F (Hessian is 2 I)."""
        return 2.0

    @property
    def lip_xi(self) -> float:
        """Lipschitz constant of f in the outcome argument."""
        return float(np.linalg.norm(self.b))

    @property
    def alpha(self) -> float:
        """Wasserstein sensitivity of the outcome distribution to x."""
        return float(np.linalg.norm(self.a_matrix, 2))


class DeterministicEnv(Environment):
    """Environment whose objective ignores the outcome entirely.

    ``f(x, xi) = fn(x)`` and D(x) is a point mass, so deterministic
    objectives can be driven through the full sampling machinery. Outcomes
    are zeros of the requested batch size.
    """

    def __init__(self, fn, d: int) -> None:
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self._fn = fn
        self._d = int(d)

    def dim(self) -> int:
        return self._d

    def sample(self, x, m, rng) -> SampleBatch:
        probe = np.array(x, dtype=np.float64, copy=True)
        return SampleBatch(probe=probe, outcomes=np.zeros(m), batch_size=m)

    def eval_f(self, x, xi) -> float:
        return float(self._fn(np.asarray(x, dtype=np.float64)))

    def eval_f_batch(self, x, outcomes) -> np.ndarray:
        return np.full(len(outcomes), self.eval_f(x, None), dtype=np.float64)


def mc_smoothed_value(env, x, mu: float, n: int, rng, inner_m: int = 1) -> float:
    """Monte-Carlo estimate of the Gaussian-smoothed objective.

    Averages, over ``n`` draws of the perturbation u, the sample mean of f
    at ``x + mu u`` with ``inner_m`` outcomes per perturbation. ``env`` may
    be a raw environment or a registered handle; with a handle the draws
    land on its ledger.
    """
    if n < 1 or inner_m < 1:
        raise ValueError("n and inner_m must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    d = env.dim()
    total = 0.0
    for _ in range(n):
        probe = x + float(mu) * rng.standard_normal(d)
        batch = env.sample(probe, inner_m, rng)
        total += float(np.mean(env.eval_f_batch(probe, batch.outcomes)))
    return total / n


def estimator_moment_bound(
    kind: str,
    *,
    d: int,
    mu: float,
    m: int,
    sigma: float,
    smoothness: float,
    grad_norm_sq: float,
    offset_gap_sq: float = 0.0,
) -> float:
    """Closed-form upper bound on E||g||^2 for the mini-batch estimators.

    Parameters
    ----------
    kind : {"one-point", "two-point"}
        Which estimator the bound is for.
    d, mu, m : problem dimension, smoothing radius, batch size.
    sigma : float
        Per-sample noise standard deviation of f at fixed x.
    smoothness : float
        Gradient Lipschitz constant of the objective.
    grad_norm_sq : float
        ||grad F(x)||^2 at the evaluation point.
    offset_gap_sq : float
        (F(x) - c)^2; enters the one-point bound only.
    """
    mu = float(mu)
    base = 1.5 * mu**2 * smoothness**2 * (d + 6) ** 3 + 6.0 * (d + 4) * grad_norm_sq
    if kind == "one-point":
        return base + 3.0 * sigma**2 * d / (mu**2 * m) + 3.0 * d * offset_gap_sq / mu**2
    if kind == "two-point":
        return base + 1.5 * sigma**2 * d / (mu**2 * m)
    raise ValueError(f"unknown estimator kind: {kind!r}")


def offset_tracking_ceiling(
    k: int,
    delta0_sq: float,
    *,
    d: int,
    mu0: float,
    mu_min: float,
    m_min: int,
    smoothness: float,
    lip_xi: float,
    alpha: float,
    lip_x: float,
    sigma: float,
) -> float:
    """Ceiling on the squared offset tracking error (F(x_k) - c_k)^2.

    Valid for runs whose step size respects the offset-stability cap
    ``beta <= mu_min / (2 lip_xi alpha sqrt(6 d))`` and whose batch sizes
    stay >= ``m_min``. The transient term decays geometrically from the
    initial gap ``delta0_sq``; the remaining terms are the steady-state
    ceiling determined by the problem constants.
    """
    lip_f = lip_xi + alpha * lip_x
    return (
        0.5**k * delta0_sq
        + mu_min**2 * mu0**2 * smoothness**2 * (d + 6) ** 3 / (2.0 * d)
        + 2.0 * mu_min**2 * (d + 4) / d * lip_f**2
        + 8.0 * lip_xi**2 * alpha**2 * mu0**2 * d
        + 5.0 * sigma**2 / m_min
    )
