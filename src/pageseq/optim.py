"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np

# elements per block of a step, so its scratch is 2 x 128 KiB of float64
# whatever the parameter sizes; smaller blocks cost more Python per element
_BLOCK = 2 ** 14
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # as in Kingma & Ba (2015)


class Adam:
    """Standard Adam with bias correction; updates parameters in place.

    A step walks each parameter's flat view in blocks of ``_BLOCK``
    elements and writes its temporaries into one float64 scratch pair of
    at most a block, shared by all of them, so it allocates nothing per
    parameter and its scratch does not grow with the largest one.  Every
    operation is elementwise, so the arithmetic is that of
    ``m += (1 - BETA1) * (g - m)``, ``v += (1 - BETA2) * (g * g - v)`` and
    ``p -= (lr * (m / b1t) / (sqrt(v / b2t) + EPS)).astype(p.dtype)``,
    bit for bit: a float32 gradient is widened to float64 before any
    arithmetic, and the update is rounded to ``p.dtype`` before it is
    subtracted.  The blocks' views into the parameters are made here,
    once.  A parameter must be C-contiguous, since the flat view of any
    other array is a copy the update would be lost in.
    """

    def __init__(self, params: dict):
        strided = [k for k, v in params.items() if not v.flags.c_contiguous]
        if strided:
            raise ValueError(f"Adam needs C-contiguous parameters, not "
                             f"{', '.join(strided)}")
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()}
        self.v = {k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()}
        size = min(max((v.size for v in params.values()), default=0), _BLOCK)
        self._scratch = (np.empty(size), np.empty(size))
        # per block: the parameter's name, its flat rows, and the views of
        # those rows in the parameter, m, v and the scratch pair
        self._blocks = []
        for name, p in params.items():
            flat = [a.reshape(-1) for a in (p, self.m[name], self.v[name])]
            for start in range(0, p.size, _BLOCK):
                rows = slice(start, start + _BLOCK)
                views = [a[rows] for a in flat]
                self._blocks.append((name, rows, *views, *(
                    s[:views[0].size] for s in self._scratch)))

    def step(self, grads: dict, lr: float):
        if not lr > 0:  # also NaN
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for name, rows, p, m, v, s1, s2 in self._blocks:
            g = grads[name].reshape(-1)[rows]
            np.subtract(g, m, out=s1, dtype=np.float64)
            s1 *= 1.0 - BETA1
            m += s1
            np.multiply(g, g, out=s1, dtype=np.float64)
            s1 -= v
            s1 *= 1.0 - BETA2
            v += s1
            np.divide(v, b2t, out=s1)
            np.sqrt(s1, out=s1)
            s1 += EPS
            np.divide(m, b1t, out=s2)
            s2 *= lr
            s2 /= s1
            np.subtract(p, s2, out=p, dtype=p.dtype, casting="same_kind")
