"""LSTM cell and bidirectional LSTM with full backpropagation through time.

Sequences are processed one at a time as (T, features) arrays; batching
across sequences happens by gradient accumulation in the callers.  The
backward pass runs only the recurrence step by step and computes the
weight and input gradients as GEMMs over all steps afterwards (the
hoisting of Appleyard et al. 2016).
"""

from __future__ import annotations

import numpy as np

from .layers import Layer
from .tensor import DEFAULT_DTYPE


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class LstmCell(Layer):
    """Single-direction LSTM over one sequence; gate order i, f, g, o."""

    def __init__(self, input_dim, hidden, rng, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.input_dim = input_dim
        self.hidden = hidden
        bound = 1.0 / np.sqrt(hidden)
        self._add_param("w_x", rng.uniform(-bound, bound, (input_dim, 4 * hidden)).astype(dtype))
        self._add_param("w_h", rng.uniform(-bound, bound, (hidden, 4 * hidden)).astype(dtype))
        self._add_param("bias", np.zeros(4 * hidden, dtype=dtype))
        self._cache = None

    def forward(self, x, train=False):
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"LstmCell expects (T, {self.input_dim}), got {x.shape}")
        t_len = x.shape[0]
        if t_len == 0:
            raise ValueError("zero-length sequence")
        h_dim = self.hidden
        w_h = self.params["w_h"]
        # pre-activations, overwritten row by row with the activated gates
        gates = x @ self.params["w_x"] + self.params["bias"]
        cs = np.zeros((t_len + 1, h_dim), dtype=gates.dtype)  # cs[t + 1] = c_t
        tcs = np.empty((t_len, h_dim), dtype=gates.dtype)
        hs = np.zeros((t_len, h_dim), dtype=gates.dtype)
        h = hs[0]
        for t in range(t_len):
            a = gates[t]
            a += h @ w_h
            a[: 2 * h_dim] = _sigmoid(a[: 2 * h_dim])  # i, f
            np.tanh(a[2 * h_dim : 3 * h_dim], out=a[2 * h_dim : 3 * h_dim])  # g
            a[3 * h_dim :] = _sigmoid(a[3 * h_dim :])  # o
            np.add(a[h_dim : 2 * h_dim] * cs[t],
                   a[:h_dim] * a[2 * h_dim : 3 * h_dim], out=cs[t + 1])
            np.tanh(cs[t + 1], out=tcs[t])
            h = np.multiply(a[3 * h_dim :], tcs[t], out=hs[t])
        self._cache = (x, gates, cs[:-1], tcs, hs) if train else None
        return hs.astype(x.dtype, copy=False)

    def backward(self, dh_seq):
        """BPTT; only the recurrence runs per step, the weight GEMMs after."""
        if self._cache is None:
            raise RuntimeError("LstmCell.backward needs forward(train=True) first")
        x, gates, c_prevs, tcs, hs = self._cache
        t_len, h_dim = dh_seq.shape
        i, f, g, o = (gates[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
        # per-step factors of the gate gradients that do not depend on dh, dc
        dc_coef = np.stack([g * i * (1.0 - i), c_prevs * f * (1.0 - f),
                            i * (1.0 - g * g)], axis=1)
        dh_to_dc = o * (1.0 - tcs * tcs)
        dh_to_do = tcs * o * (1.0 - o)
        w_h = self.params["w_h"]
        da = np.empty((t_len, 4, h_dim), dtype=gates.dtype)
        dh_next = np.zeros(h_dim, dtype=gates.dtype)
        dc_next = np.zeros(h_dim, dtype=gates.dtype)
        for t in range(t_len - 1, -1, -1):
            dh = dh_seq[t] + dh_next
            dc = dc_next + dh * dh_to_dc[t]
            np.multiply(dc, dc_coef[t], out=da[t, :3])
            np.multiply(dh, dh_to_do[t], out=da[t, 3])
            dh_next = w_h @ da[t].reshape(-1)
            dc_next = dc * f[t]
        da = da.reshape(t_len, 4 * h_dim)
        self.grads["w_x"] += x.T @ da
        # h_prev is hs shifted down one row, with h_prev[0] = 0
        self.grads["w_h"] += hs[:-1].T @ da[1:]
        self.grads["bias"] += da.sum(axis=0)
        return (da @ self.params["w_x"].T).astype(x.dtype, copy=False)


class BiLstm(Layer):
    """Forward and reverse LSTM; output is the per-step concatenation."""

    def __init__(self, input_dim, hidden, rng, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.hidden = hidden
        self.fwd = LstmCell(input_dim, hidden, rng, dtype)
        self.bwd = LstmCell(input_dim, hidden, rng, dtype)
        for name, p in self.fwd.params.items():
            self.params[f"fwd.{name}"] = p
            self.grads[f"fwd.{name}"] = self.fwd.grads[name]
        for name, p in self.bwd.params.items():
            self.params[f"bwd.{name}"] = p
            self.grads[f"bwd.{name}"] = self.bwd.grads[name]

    def zero_grads(self):
        self.fwd.zero_grads()
        self.bwd.zero_grads()

    def forward(self, x, train=False):
        h_f = self.fwd.forward(x, train=train)
        h_b = self.bwd.forward(x[::-1], train=train)[::-1]
        return np.concatenate([h_f, h_b], axis=1)

    def backward(self, grad):
        h_dim = self.hidden
        dx_f = self.fwd.backward(grad[:, :h_dim])
        dx_b = self.bwd.backward(grad[::-1, h_dim:])[::-1]
        return dx_f + dx_b
