"""Gaussian-smoothing gradient estimators built from objective samples only.

Both estimators probe the objective at Gaussian perturbations of the current
point and rescale the observed values into an unbiased estimate of the
smoothed objective's gradient. The one-point form subtracts an offset ``c``
from the observed value; its mean is invariant to ``c`` while its variance is
smallest when ``c`` sits near the objective value itself, which is what the
offset tracking machinery exploits. The two-point form differences an
antithetic pair of probes instead and needs no offset.

One perturbation is shared by the whole mini-batch: all ``m`` outcomes are
drawn at the single probe ``x + mu u`` (and at ``x - mu u`` for the
two-point pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvHandle, SampleBatch

__all__ = [
    "SmoothingState",
    "EstimatorSample",
    "one_point_estimate",
    "two_point_estimate",
    "moment_samples",
    "MU_FLOOR",
]

# Refuse smoothing radii at denormal scale: dividing by them would push the
# estimate outside the normal floating-point range long before anything useful
# could come of it. Any configured schedule keeps mu far above this.
MU_FLOOR = 1e-150


@dataclass(frozen=True)
class SmoothingState:
    """Smoothing radius and offset the estimators evaluate under.

    Attributes
    ----------
    mu : float
        Smoothing radius, strictly positive.
    c : float
        Offset subtracted by the one-point estimator; ignored by the
        two-point estimator.
    """

    mu: float
    c: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.mu) or self.mu <= 0.0:
            raise ValueError("smoothing radius mu must be finite and > 0")
        if self.mu < MU_FLOOR:
            raise ValueError("smoothing radius mu underflows the supported range")
        if not np.isfinite(self.c):
            raise ValueError("offset c must be finite")


@dataclass(frozen=True)
class EstimatorSample:
    """One mini-batch gradient estimate with its provenance.

    ``batches`` holds the sample batch the estimate was computed from: one
    batch drawn at ``x + mu u`` for the one-point kind, or that batch plus
    the antithetic batch drawn at ``x - mu u`` for the two-point kind.
    """

    g: np.ndarray
    u: np.ndarray
    mu: float
    batches: tuple[SampleBatch, ...]
    kind: str


def one_point_estimate(
    env: EnvHandle,
    x: np.ndarray,
    state: SmoothingState,
    m: int,
    rng: np.random.Generator,
    env_rng: np.random.Generator | None = None,
) -> EstimatorSample:
    """Mini-batch one-point gradient estimate at ``x``.

    Draws ``u ~ N(0, I)`` once, draws ``m`` outcomes at the probe
    ``x + mu u``, and returns ``g = (mean_j f(probe, xi_j) - c) / mu * u``.
    Consumes exactly ``m`` draws on the handle's ledger.

    Parameters
    ----------
    rng : Generator
        Source of the perturbation draw.
    env_rng : Generator, optional
        Separate source for the environment draws; defaults to ``rng``.
    """
    if m < 1:
        raise ValueError("batch size m must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    u = rng.standard_normal(x.size)
    probe = x + state.mu * u
    batch = env.sample(probe, m, env_rng if env_rng is not None else rng)
    # sum / m is np.mean's own pairwise sum and division, bit for bit,
    # without its dispatch cost on the tiny batches this runs on
    f_mean = float(env.eval_f_batch(probe, batch.outcomes).sum()) / m
    g = ((f_mean - state.c) / state.mu) * u
    return EstimatorSample(g=g, u=u, mu=state.mu, batches=(batch,), kind="one-point")


def two_point_estimate(
    env: EnvHandle,
    x: np.ndarray,
    state: SmoothingState,
    m: int,
    rng: np.random.Generator,
    env_rng: np.random.Generator | None = None,
) -> EstimatorSample:
    """Mini-batch two-point gradient estimate at ``x``.

    Draws ``u`` once and ``m`` outcomes at each of ``x + mu u`` and
    ``x - mu u``, then returns the antithetic difference
    ``g = (mean f(x + mu u, .) - mean f(x - mu u, .)) / (2 mu) * u``.
    Consumes exactly ``2 m`` draws. ``state.c`` is ignored.
    """
    if m < 1:
        raise ValueError("batch size m must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    draw = env_rng if env_rng is not None else rng
    u = rng.standard_normal(x.size)
    probe_plus = x + state.mu * u
    probe_minus = x - state.mu * u
    batch_plus = env.sample(probe_plus, m, draw)
    batch_minus = env.sample(probe_minus, m, draw)
    f_plus = float(env.eval_f_batch(probe_plus, batch_plus.outcomes).sum()) / m
    f_minus = float(env.eval_f_batch(probe_minus, batch_minus.outcomes).sum()) / m
    g = ((f_plus - f_minus) / (2.0 * state.mu)) * u
    return EstimatorSample(
        g=g, u=u, mu=state.mu, batches=(batch_plus, batch_minus), kind="two-point"
    )


def moment_samples(
    env: EnvHandle,
    x: np.ndarray,
    state: SmoothingState,
    m: int,
    n_trials: int,
    rng: np.random.Generator,
    kind: str = "one-point",
) -> np.ndarray:
    """Per-trial squared norms ||g||^2 over independent estimates."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if kind == "one-point":
        estimate = one_point_estimate
    elif kind == "two-point":
        estimate = two_point_estimate
    else:
        raise ValueError(f"unknown estimator kind: {kind!r}")
    out = np.empty(n_trials, dtype=np.float64)
    for t in range(n_trials):
        g = estimate(env, x, state, m, rng).g
        out[t] = g @ g
    return out

