"""Environment contract for objectives with decision-dependent sampling.

An environment answers two questions only: draw outcomes ``xi ~ D(x)`` and
evaluate the per-sample objective ``f(x, xi)``. The optimizer never looks
inside an outcome; everything it learns passes through ``eval_f``. Draws are
counted on a :class:`SampleLedger` attached to each :class:`EnvHandle`, which
is the quantity every budget rule in this package refers to.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = [
    "SampleBatch",
    "Environment",
    "SampleLedger",
    "EnvHandle",
    "register_env",
    "as_decision_vector",
    "mean_objective",
]


def as_decision_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate ``x`` as a finite float64 decision vector and return it."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("decision vector must be one-dimensional and nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("decision vector has non-finite entries")
    if dim is not None and arr.size != dim:
        raise ValueError(f"decision vector has length {arr.size}, expected {dim}")
    return arr


@dataclass(frozen=True)
class SampleBatch:
    """Outcomes drawn at a single probe point.

    Attributes
    ----------
    probe : ndarray
        The decision vector the batch was drawn at, recorded exactly as
        passed to the environment.
    outcomes : sequence
        Environment-specific outcomes; ``len(outcomes) == batch_size``.
        Array-backed environments store them as a 2-d array with one row
        per outcome.
    batch_size : int
        Number of outcomes, at least 1.
    """

    probe: np.ndarray
    outcomes: Any
    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if len(self.outcomes) != self.batch_size:
            raise ValueError("outcomes length does not match batch_size")


class Environment(ABC):
    """Sampling oracle for one optimization problem.

    Implementations must keep ``eval_f`` pure: no RNG access, no ledger
    side effects, identical output for identical ``(x, xi)``.
    """

    @abstractmethod
    def dim(self) -> int:
        """Dimension d of the decision vector."""

    @abstractmethod
    def sample(self, x: np.ndarray, m: int, rng: np.random.Generator) -> SampleBatch:
        """Draw ``m`` outcomes from D(x) and return them as a batch."""

    @abstractmethod
    def eval_f(self, x: np.ndarray, xi) -> float:
        """Evaluate the per-sample objective f(x, xi)."""

    def eval_f_batch(self, x: np.ndarray, outcomes) -> np.ndarray:
        """Vectorized ``eval_f`` over a batch of outcomes.

        The default loops over :meth:`eval_f`; array-backed environments
        override it with a single vectorized expression.
        """
        return np.array([self.eval_f(x, xi) for xi in outcomes], dtype=np.float64)


class SampleLedger:
    """Monotone counter of individual outcome draws."""

    __slots__ = ("total_draws",)

    def __init__(self) -> None:
        self.total_draws = 0

    def add(self, m: int) -> None:
        if m < 0:
            raise ValueError("cannot add a negative draw count")
        self.total_draws += int(m)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SampleLedger(total_draws={self.total_draws})"


class EnvHandle:
    """An environment paired with its own fresh ledger.

    All sampling for one optimizer run goes through one handle, so the
    handle's ledger is exactly that run's budget consumption. ``eval_f``
    passes through without touching the ledger.
    """

    __slots__ = ("env", "ledger")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.ledger = SampleLedger()

    def dim(self) -> int:
        return self.env.dim()

    @property
    def total_draws(self) -> int:
        return self.ledger.total_draws

    def sample(self, x: np.ndarray, m: int, rng: np.random.Generator) -> SampleBatch:
        if m < 1:
            raise ValueError("sample size m must be >= 1")
        batch = self.env.sample(x, int(m), rng)
        if batch.batch_size != m:
            raise RuntimeError("environment returned a batch of the wrong size")
        x = np.asarray(x, dtype=np.float64)
        if batch.probe.shape != x.shape or not (batch.probe == x).all():
            raise RuntimeError("environment did not record the probe it was given")
        self.ledger.add(m)
        return batch

    def eval_f(self, x: np.ndarray, xi) -> float:
        return self.env.eval_f(x, xi)

    def eval_f_batch(self, x: np.ndarray, outcomes) -> np.ndarray:
        return self.env.eval_f_batch(x, outcomes)


def register_env(env: Environment) -> EnvHandle:
    """Wrap ``env`` with a fresh ledger starting at zero draws."""
    if env.dim() < 1:
        raise ValueError("environment dimension must be >= 1")
    return EnvHandle(env)


def mean_objective(
    env: Environment,
    x: np.ndarray,
    n_eval: int,
    rng: np.random.Generator,
    ledger: SampleLedger | None = None,
) -> float:
    """Mean of f over ``n_eval`` fresh draws at ``x``.

    Used for post-hoc solution quality. The draws are counted on ``ledger``
    when one is given and never on any optimizer handle, so metric sampling
    stays out of every budget.
    """
    if n_eval < 1:
        raise ValueError("n_eval must be >= 1")
    batch = env.sample(as_decision_vector(x, env.dim()), int(n_eval), rng)
    vals = env.eval_f_batch(batch.probe, batch.outcomes)
    if ledger is not None:
        ledger.add(n_eval)
    return float(np.mean(vals))
