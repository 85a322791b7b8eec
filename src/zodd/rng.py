"""Deterministic derivation of independent RNG streams from one root seed.

Every consumer of randomness (perturbation draws, environment draws, metric
evaluation, output selection) works on its own stream keyed by
``(seed, stream_id)``, so extra draws in one place never shift another.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "split_rng",
    "STREAM_PERTURBATION",
    "STREAM_ENV",
    "STREAM_METRIC",
    "STREAM_SELECT",
    "STREAM_INIT_OFFSET",
    "STREAM_INSTANCE",
]

# Reserved stream ids. Any integer is a valid stream id; these constants keep
# the library's own consumers from colliding with each other.
STREAM_PERTURBATION = 0
STREAM_ENV = 1
STREAM_METRIC = 2
STREAM_SELECT = 3
STREAM_INIT_OFFSET = 4
STREAM_INSTANCE = 5


def fold_seed(seed: int) -> int:
    """The entropy :func:`split_rng` uses for ``seed``: negatives fold in 64-bit,
    since SeedSequence wants nonnegative entropy, so -1 names 2**64 - 1.

    Raises ValueError for a seed below -2**64, which would still be negative.
    """
    seed = int(seed)
    if seed < -(1 << 64):
        raise ValueError(f"seed must be >= -2**64, got {seed}")
    return seed + (1 << 64) if seed < 0 else seed


def split_rng(seed: int, stream_id: int) -> np.random.Generator:
    """Return the RNG stream identified by ``(seed, stream_id)``.

    The same pair always yields an identical stream; pairs whose seeds differ
    after :func:`fold_seed` yield streams that are independent by construction.
    """
    ss = np.random.SeedSequence(entropy=fold_seed(seed), spawn_key=(int(stream_id),))
    return np.random.default_rng(ss)
