"""Cross-entropy loss and inverse-frequency class weights."""

from __future__ import annotations

import numpy as np


def class_weights(counts) -> np.ndarray:
    """Per-class loss factors w_i = n / (c * f_i) of the class counts f."""
    f = np.asarray(counts, dtype=np.float64)
    if f.size == 0 or np.any(f <= 0):
        raise ValueError("every class count must be positive")
    return f.sum() / (len(f) * f)


def cross_entropy(logits, targets, weights=None):
    """Mean weighted negative log-likelihood plus its gradient.

    Returns ``(loss, dlogits)``.  The loss is the plain mean over the
    batch of w_y * (-log softmax(logits)_y); with ``weights=None`` all
    factors are 1.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    b, c = logits.shape
    if targets.shape != (b,):
        raise ValueError(f"targets shape {targets.shape} does not match batch {b}")
    if targets.min() < 0 or targets.max() >= c:
        raise IndexError("target class index out of range")
    top = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - top)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total  # tensor.softmax(logits, axis=1), bit for bit
    w = np.ones(b, dtype=logits.dtype) if weights is None else \
        np.asarray(weights, dtype=logits.dtype)[targets]
    # the target's logit minus the log-sum-exp stays finite where its
    # probability underflows to 0
    logp = logits[np.arange(b), targets] - (top[:, 0] + np.log(total[:, 0]))
    loss = float(-(w * logp).mean())
    dlogits = probs * w[:, None]
    dlogits[np.arange(b), targets] -= w
    return loss, dlogits / b
