"""History window, reuse weights, and the variance-reduction offset update.

The one-point optimizer keeps a FIFO window of its recent sample batches.
After each step it re-evaluates f at the new iterate on every stored outcome
and combines the per-batch means into the next offset ``c``. The combination
weights minimize a quadratic error score over the probability simplex: each
batch is scored by ``b_i = m_scale * ||x_next - probe_i||^2 + 1/m_i`` (stale
and small batches score worse) and the minimizer has the closed form
``a_i proportional to 1/b_i``. None of this consumes new samples.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .env import EnvHandle, SampleBatch

__all__ = [
    "HistoryWindow",
    "WeightVector",
    "compute_weights",
    "compute_c",
    "estimate_initial_c",
]


class HistoryWindow:
    """FIFO window of the most recent sample batches, capacity ``s_max``.

    Next to the batches the window keeps the arrays the weights are scored
    from, oldest entry first: the probes as an ``(entries, d)`` array, the
    batch sizes as ``int64`` and their reciprocals ``1/m_i``. :meth:`push`
    builds the next arrays from the last ones, dropping the evicted row and
    appending the new one, instead of restacking the whole window. The
    arrays are read-only, so what :meth:`probes` and :meth:`batch_sizes`
    return stays as it was when later batches are pushed.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("history capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: deque[SampleBatch] = deque(maxlen=self.capacity)
        self._probes: np.ndarray | None = None
        self._sizes = _frozen(np.empty(0, dtype=np.int64))
        self._inv_sizes = _frozen(np.empty(0))

    def push(self, batch: SampleBatch) -> None:
        """Insert a batch, evicting the oldest entry when full."""
        probes = np.array([batch.probe])
        sizes = np.array([batch.batch_size], dtype=np.int64)
        if self._entries:
            # a full window evicts its oldest entry, the first row
            keep = 1 if len(self._entries) == self.capacity else 0
            probes = np.concatenate((self._probes[keep:], probes))
            sizes = np.concatenate((self._sizes[keep:], sizes))
        self._entries.append(batch)
        self._probes = _frozen(probes)
        self._sizes = _frozen(sizes)
        self._inv_sizes = _frozen(1.0 / sizes)

    @property
    def entries(self) -> tuple[SampleBatch, ...]:
        return tuple(self._entries)

    def probes(self) -> np.ndarray:
        """Stacked probe points, one row per entry (oldest first), read-only."""
        if self._probes is None:
            raise ValueError("history is empty")
        return self._probes

    def batch_sizes(self) -> np.ndarray:
        """Batch sizes as ``int64``, one per entry (oldest first), read-only."""
        return self._sizes

    def inverse_batch_sizes(self) -> np.ndarray:
        """``1 / batch_sizes()``, computed once per push, read-only."""
        return self._inv_sizes

    def __len__(self) -> int:
        return len(self._entries)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WeightVector:
    """Simplex weights ``a`` over history entries with their scores ``b``."""

    a: np.ndarray
    b: np.ndarray


def compute_weights(
    history: HistoryWindow,
    x_next: np.ndarray,
    m_scale: float,
    uniform: bool = False,
) -> WeightVector:
    """Optimal reuse weights for the stored batches relative to ``x_next``.

    Scores each entry with ``b_i = m_scale * ||x_next - probe_i||^2 + 1/m_i``
    and returns the simplex minimizer of ``sum_i b_i a_i^2``, which is
    ``a_i = (1/b_i) / sum_j (1/b_j)``. ``m_scale`` is the nonnegative
    coefficient on the squared probe distance; ``m_scale = 0`` degenerates to
    weights proportional to batch sizes.

    Parameters
    ----------
    uniform : bool
        Ablation switch; forces equal weights ``a_i = 1/s`` while still
        reporting the scores.
    """
    s = len(history)
    if s == 0:
        raise ValueError("history is empty; use the initial offset instead")
    if m_scale < 0 or not math.isfinite(m_scale):
        raise ValueError("m_scale must be finite and >= 0")
    x_next = np.asarray(x_next, dtype=np.float64)
    diffs = history.probes() - x_next
    sq_dist = np.einsum("ij,ij->i", diffs, diffs)
    b = m_scale * sq_dist + history.inverse_batch_sizes()
    if not np.isfinite(b).all():
        raise ValueError("non-finite weight scores")
    if uniform:
        a = np.full(s, 1.0 / s)
    else:
        inv = 1.0 / b
        a = inv / inv.sum()
    return WeightVector(a=a, b=b)


def compute_c(
    history: HistoryWindow,
    weights: WeightVector,
    x_next: np.ndarray,
    env: EnvHandle,
) -> float:
    """Next offset: weighted mean of f at ``x_next`` over stored outcomes.

    Evaluates ``sum_i (a_i / m_i) sum_j f(x_next, xi_i^j)`` purely by
    re-evaluating f on outcomes already in the window; the ledger is never
    touched.
    """
    if len(weights.a) != len(history):
        raise ValueError("weight vector does not match history length")
    x_next = np.asarray(x_next, dtype=np.float64)
    c = 0.0
    for a_i, batch in zip(weights.a.tolist(), history.entries):
        vals = env.eval_f_batch(x_next, batch.outcomes)
        # the batch mean as np.mean computes it, bit for bit, at less cost:
        # np.add.reduce is the sum np.mean and ndarray.sum call
        c += a_i * (float(np.add.reduce(vals, axis=None)) / batch.batch_size)
    return c


def estimate_initial_c(
    env: EnvHandle,
    x0: np.ndarray,
    j_max: int,
    rng: np.random.Generator,
) -> float:
    """Initial offset: mean of f over ``j_max`` fresh draws at ``x0``.

    Consumes ``j_max`` draws on the handle's ledger.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    x0 = np.asarray(x0, dtype=np.float64)
    batch = env.sample(x0, int(j_max), rng)
    return float(np.mean(env.eval_f_batch(x0, batch.outcomes)))
