"""Minimal dense numeric kernel shared by every model in the package.

All arrays are plain numpy ndarrays in row-major (C) order.  Two scalar
widths are supported: float32 for training, float64 for gradient checks
and oracle suites.  Every op here is a pure function; nothing keeps
internal mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import zlib
from collections import namedtuple

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def softmax(x, axis=-1):
    """Stable softmax along `axis`; rows sum to 1, argmax preserved."""
    x = np.asarray(x)
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


Packing = namedtuple("Packing", "lengths firsts lasts pairs")


def packing(n_rows, lengths):
    """Checked lengths of sequences packed into N rows, plus row indices.

    Several sequences are packed by concatenating their rows; ``lengths``
    gives each one's row count, and ``None`` means one sequence of all
    N rows.  Returns a ``Packing``: the lengths, each sequence's first
    and last row, and every row r whose successor r + 1 is in its
    sequence.  A ``Packing`` already built is returned as it is.
    """
    if isinstance(lengths, Packing):
        return lengths
    lengths = np.array([n_rows] if lengths is None else lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1:
        raise ValueError("lengths must be a non-empty list of positive ints")
    if lengths.sum() != n_rows:
        raise ValueError(f"lengths sum to {lengths.sum()}, but there are "
                         f"{n_rows} rows")
    lasts = np.cumsum(lengths) - 1
    firsts = lasts - lengths + 1
    has_next = np.ones(n_rows, dtype=bool)
    has_next[lasts] = False
    return Packing(lengths, firsts, lasts, np.flatnonzero(has_next))


def grid_positions(n_rows, lengths, directions=1):
    """Where each packed row sits in a left-aligned, flattened (T_max,
    direction, sequence) grid, per direction: a (directions, N) index
    array, plus T_max and the sequence count.  The second direction
    reads each sequence in reverse."""
    lengths, firsts, _, _ = packing(n_rows, lengths)
    n_seq = lengths.size
    seq = np.repeat(np.arange(n_seq), lengths)
    step = np.arange(n_rows) - firsts[seq]
    steps = (step, lengths[seq] - 1 - step)[:directions]
    pos = np.stack([(s * directions + d) * n_seq + seq
                    for d, s in enumerate(steps)])
    return pos, int(lengths.max()), n_seq


def _consumer_key(name: str) -> int:
    # crc32 is stable across platforms and python versions, unlike hash().
    return zlib.crc32(name.encode("utf-8"))


class RngState:
    """Seeded PRNG with named, independent substreams.

    Each consumer name maps to its own PCG64 stream derived from
    ``SeedSequence(seed, spawn_key=(crc32(name),))``, so adding a new
    consumer never perturbs the streams of existing ones and identical
    (seed, name) pairs produce identical scalars on every platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def consumer(self, name: str) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(_consumer_key(name),))
        return np.random.Generator(np.random.PCG64(ss))
