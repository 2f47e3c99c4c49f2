"""The one training loop: mini-batch Adam on a one-cycle (or constant)
schedule, keeping the epoch with the best validation macro-F1."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .iob import CLASSES
from .losses import cross_entropy
from .optim import Adam
from .schedule import OneCycleSchedule


# pages per training step of the page families, and per labelling call:
# labelling then never holds more than a training step of the same model
BATCH = 64


class TrainingDiverged(ValueError):
    """A training step's loss was not finite."""


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


def classifier_loss(model, inputs, targets, weights=None):
    """A ``loss_fn`` for :func:`fit`: the cross-entropy of
    ``model.forward(*(a[idx] for a in inputs))``, back-propagated."""
    def loss_fn(idx):
        logits = model.forward(*(a[idx] for a in inputs), train=True)
        loss, dlogits = cross_entropy(logits, targets[idx], weights)
        model.backward(dlogits)
        return loss
    return loss_fn


def label_pages(model, inputs, **options):
    """The page families' labeller: the class name of each row's argmax
    of ``model.predict_probs(*(a[rows] for a in inputs), **options)``,
    ``BATCH`` rows per call.  Rows are independent in eval, so the labels
    do not depend on the block size; the training batch keeps a call's
    activations to a training step's."""
    labels = []
    for start in range(0, len(inputs[0]), BATCH):
        rows = slice(start, start + BATCH)
        probs = model.predict_probs(*(a[rows] for a in inputs), **options)
        labels.extend(CLASSES[i] for i in probs.argmax(axis=1))
    return labels


def train_step(model, loss_fn):
    """``step(idx, lr)``: zero the grads, run ``loss_fn(idx)`` (forward,
    loss, backward), take an Adam step at ``lr``; returns the loss."""
    opt = Adam(model.named_params())

    def step(idx, lr):
        model.zero_grads()
        loss = loss_fn(idx)
        opt.step(model.named_grads(), lr)
        return loss
    return step


def fit(model, n, loss_fn, rng, epochs, batch_size, max_lr, evaluate=None,
        keeper=None, name="", verbose=False, one_cycle=True):
    """Trains on ``n`` items in shuffled mini-batches drawn from ``rng``
    by :func:`train_step`, at the one-cycle rate peaking at ``max_lr``,
    or at ``max_lr`` throughout without ``one_cycle``.

    After each epoch ``evaluate(model)`` gives the validation report,
    whose macro-F1 updates ``keeper`` (a ``BestCheckpointKeeper``); the
    first best epoch is restored at the end.  Without ``evaluate`` the
    last step's parameters stay, and the log rows have no validation
    scores.  Returns the ``TrainLog``.  The first step whose loss is not
    finite raises ``TrainingDiverged``; the model then keeps that step's
    parameters.
    """
    step = train_step(model, loss_fn)
    total_steps = epochs * minibatch_count(n, batch_size)
    sched = OneCycleSchedule(total_steps, max_lr) if one_cycle else None
    log = TrainLog()
    best_f1, best_state = -1.0, None
    t = 0
    for epoch in range(epochs):
        losses = []
        for idx in iterate_minibatches(n, batch_size, rng):
            lr = sched.lr(t) if sched else max_lr
            losses.append(step(idx, lr))
            if not np.isfinite(losses[-1]):
                raise TrainingDiverged(f"training diverged: loss {losses[-1]} "
                                       f"at epoch {epoch}, step {t}")
            t += 1
        row = EpochLogRow(epoch, lr, float(np.mean(losses)))
        if evaluate is not None:
            report = evaluate(model)
            row.val_macro_f1 = report.macro_f1
            row.val_weighted_f1 = report.weighted_f1
            row.saved = keeper is not None and keeper.update(
                report.macro_f1, model.state_dict(), {"epoch": epoch})
            if report.macro_f1 > best_f1:
                best_f1, best_state = report.macro_f1, model.snapshot()
            if verbose:
                print(f"{name} epoch {epoch}: loss {row.train_loss:.4f} "
                      f"val macro-F1 {report.macro_f1:.4f}")
        log.rows.append(row)
    if best_state is not None:
        model.load_state(best_state)
    return log


@dataclass
class EpochLogRow:
    epoch: int
    lr: float
    train_loss: float
    val_macro_f1: float | None = None
    val_weighted_f1: float | None = None
    saved: bool = False


@dataclass
class TrainLog:
    rows: list[EpochLogRow] = field(default_factory=list)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(row.__dict__) + "\n")
