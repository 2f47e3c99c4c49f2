"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np


class Adam:
    """Standard Adam with bias correction; updates parameters in place.

    A step writes its temporaries into one float64 scratch pair sized to
    the largest parameter and shared by all of them, so it allocates
    nothing per parameter.  The arithmetic is that of
    ``m += (1 - b1) * (g - m)``, ``v += (1 - b2) * (g * g - v)`` and
    ``p -= (lr * (m / b1t) / (sqrt(v / b2t) + eps)).astype(p.dtype)``,
    bit for bit: a float32 gradient is widened to float64 before any
    arithmetic, and the update is rounded to ``p.dtype`` before it is
    subtracted.
    """

    def __init__(self, params: dict, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()}
        self.v = {k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()}
        size = max((v.size for v in params.values()), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, grads: dict, lr: float):
        if not lr > 0:  # also NaN
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            s1, s2 = (s[:p.size].reshape(p.shape) for s in self._scratch)
            np.subtract(g, m, out=s1, dtype=np.float64)
            s1 *= 1.0 - self.beta1
            m += s1
            np.multiply(g, g, out=s1, dtype=np.float64)
            s1 -= v
            s1 *= 1.0 - self.beta2
            v += s1
            np.divide(v, b2t, out=s1)
            np.sqrt(s1, out=s1)
            s1 += self.eps
            np.divide(m, b1t, out=s2)
            s2 *= lr
            s2 /= s1
            np.subtract(p, s2, out=p, dtype=p.dtype, casting="same_kind")
