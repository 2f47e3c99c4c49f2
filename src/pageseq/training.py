"""Shared training-loop plumbing: mini-batch iteration and epoch logs."""

from __future__ import annotations

import json
from dataclasses import dataclass


def _batch_starts(n, batch_size):
    starts = list(range(0, n, batch_size))
    if batch_size > 1 and len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # a one-item last batch joins the one before it
    return starts


def minibatch_count(n, batch_size):
    """Batches per epoch of :func:`iterate_minibatches`; at least one."""
    return max(1, len(_batch_starts(n, batch_size)))


def iterate_minibatches(n, batch_size, rng):
    """Yields index arrays covering a shuffled range(n).

    A one-item last batch is merged into the batch before it: train-mode
    BatchNorm needs two rows, and a lone item makes a noisy step.
    """
    order = rng.permutation(n)
    starts = _batch_starts(n, batch_size)
    for start, end in zip(starts, starts[1:] + [n]):
        yield order[start:end]


@dataclass
class EpochLogRow:
    epoch: int
    lr: float
    train_loss: float
    val_macro_f1: float
    val_weighted_f1: float
    saved: bool


class TrainLog:
    def __init__(self):
        self.rows: list[EpochLogRow] = []

    def add(self, **kw):
        self.rows.append(EpochLogRow(**kw))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(row.__dict__) + "\n")
