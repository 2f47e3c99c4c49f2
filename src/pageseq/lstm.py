"""LSTM cells and the bidirectional LSTM, with full backpropagation through time.

An :class:`LstmCell` runs a stack of single-direction cells side by
side over the same input: one cell, or, for a :class:`BiLstm`, two,
the second reading each sequence in reverse.  Input is a batch
of sequences packed into (N, features) rows plus their lengths (one
sequence when the lengths are omitted).  The recurrence runs once over
a left-aligned padded (T_max, direction, sequence, ·) grid, so each step
is one batched GEMM for every direction and sequence.  Steps past a
sequence's end are computed but never read, so they get exactly zero
gradient and the loop needs no masks.  The input-to-gate GEMMs before
the loop, and the weight and input-gradient GEMMs after it, run on the
N packed rows only (the hoisting of Appleyard et al. 2016).  A train
forward caches its grids, and ``backward`` consumes them: the gate grid
becomes the gradient grid and each other grid goes once no later step
reads it, so the cell holds nothing after a step and a second
``backward`` needs another train forward.
"""

from __future__ import annotations

import numpy as np

from .model_base import ModelBase
from .tensor import DEFAULT_DTYPE, grid_positions


def _sigmoid_inplace(a):
    """a <- 1 / (1 + exp(-a)), with the rounding of that expression."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.divide(1.0, a, out=a)


class LstmCell(ModelBase):
    """Single-direction LSTM; gate order i, f, g, o.

    The parameters ``w_x``, ``w_h`` and ``bias`` are views into stacked
    (direction, ·) arrays, so a subclass with more direction prefixes
    runs a stack of cells.  ``forward`` returns (N, directions * hidden),
    each row's hidden states of the directions side by side.
    """

    prefixes = ("",)  # one per direction; the second reads in reverse

    def __init__(self, input_dim, hidden, rng, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.input_dim = input_dim
        self.hidden = hidden
        self.directions = n_dir = len(self.prefixes)
        bound = 1.0 / np.sqrt(hidden)
        self.stacked = {
            "w_x": np.empty((n_dir, input_dim, 4 * hidden), dtype=dtype),
            "w_h": np.empty((n_dir, hidden, 4 * hidden), dtype=dtype),
            "bias": np.zeros((n_dir, 4 * hidden), dtype=dtype),
        }
        stacked_grads = {k: np.zeros_like(v) for k, v in self.stacked.items()}
        for d, prefix in enumerate(self.prefixes):
            # w_x then w_h, direction by direction: the draws of separate
            # cells, so a seed gives the same weights to every layout
            for name in ("w_x", "w_h"):
                shape = self.stacked[name].shape[1:]
                self.stacked[name][d] = rng.uniform(-bound, bound, shape)
            for name, value in self.stacked.items():
                self._add_param(prefix + name, value[d],
                                stacked_grads[name][d])
        self._stacked_grads = stacked_grads
        self._cache = None

    def forward(self, x, train=False, lengths=None):
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"LstmCell expects (N, {self.input_dim}), got {x.shape}")
        if x.shape[0] == 0:
            raise ValueError("zero-length sequence")
        n_rows, n_dir, h_dim = x.shape[0], self.directions, self.hidden
        pos, t_max, n_seq = grid_positions(n_rows, lengths, n_dir)
        w = self.stacked
        gx = np.matmul(x, w["w_x"])  # (D, N, 4H)
        gx += w["bias"][:, None]
        # pre-activations on the grid, overwritten step by step by their
        # sigmoids, of which i, f and o are read; padded steps start at 0
        gates = np.zeros((t_max * n_dir * n_seq, 4 * h_dim), dtype=gx.dtype)
        gates[pos.ravel()] = gx.reshape(-1, 4 * h_dim)
        gates = gates.reshape(t_max, n_dir, n_seq, 4 * h_dim)
        state = (t_max + 1, n_dir, n_seq, h_dim)
        cs = np.zeros(state, dtype=gx.dtype)  # cs[t + 1] = c_t
        hs = np.zeros(state, dtype=gx.dtype)  # hs[t + 1] = h_t
        gs = np.empty((t_max,) + state[1:], dtype=gx.dtype)  # tanh gate g
        tcs = np.empty_like(gs)  # tanh(c_t)
        w_h = w["w_h"]
        for t in range(t_max):
            a = gates[t]
            a += np.matmul(hs[t], w_h)
            np.tanh(a[..., 2 * h_dim : 3 * h_dim], out=gs[t])
            _sigmoid_inplace(a)
            c = cs[t + 1]
            np.multiply(a[..., h_dim : 2 * h_dim], cs[t], out=c)
            c += a[..., :h_dim] * gs[t]
            np.tanh(c, out=tcs[t])
            np.multiply(a[..., 3 * h_dim :], tcs[t], out=hs[t + 1])
        self._cache = (x, pos, gates, gs, cs, tcs, hs) if train else None
        # hs[1:] flattened is the grid of h_t; pick each row's, per direction
        out = hs[1:].reshape(-1, h_dim)[pos]  # (D, N, H)
        out = out.transpose(1, 0, 2).reshape(n_rows, n_dir * h_dim)
        return out.astype(x.dtype, copy=False)

    def backward(self, dh_rows):
        """BPTT; only the recurrence runs per step, the weight GEMMs after.

        Consumes the train forward's cache: the gate grid becomes the
        gradient grid, and each forward grid goes once no later step
        reads it, so a second ``backward`` raises ``RuntimeError``.
        """
        if self._cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs "
                               "forward(train=True) first")
        x, pos, gates, g, cs, tcs, hs = self._cache
        self._cache = None
        n_rows, n_dir, h_dim = x.shape[0], self.directions, self.hidden
        t_max, _, n_seq, _ = gates.shape
        # the per-step factors of the gate gradients that do not depend on
        # dh and dc overwrite the gates they are made of, gate k's in slot
        # k of da, each rounded as its formula reads left to right; the
        # loop scales them by dc and dh in place (x * y rounds as y * x)
        da = gates.reshape(t_max, n_dir, n_seq, 4, h_dim)
        i, f, _, o = (da[..., k, :] for k in range(4))  # views, not grids
        np.multiply(i, 1.0 - g * g, out=da[..., 2, :])  # i (1 - g^2)
        one_minus = 1.0 - i
        np.multiply(g, i, out=i)  # g i (1 - i)
        i *= one_minus
        np.copyto(g, f)  # the loop reads f: it moves to g's grid, now unread
        f = g
        np.subtract(1.0, f, out=one_minus)
        np.multiply(cs[:-1], f, out=da[..., 1, :])  # c_{t-1} f (1 - f)
        da[..., 1, :] *= one_minus
        dh_to_dc = tcs * tcs  # o (1 - tanh(c)^2)
        np.subtract(1.0, dh_to_dc, out=dh_to_dc)
        dh_to_dc *= o
        np.subtract(1.0, o, out=one_minus)
        np.multiply(tcs, o, out=o)  # tanh(c) o (1 - o)
        o *= one_minus
        del i, _, o, cs, tcs, one_minus
        dh_seq = np.zeros((t_max * n_dir * n_seq, h_dim), dtype=da.dtype)
        dh_seq[pos] = dh_rows.reshape(n_rows, n_dir, h_dim).transpose(1, 0, 2)
        dh_seq = dh_seq.reshape(t_max, n_dir, n_seq, h_dim)
        w_h_t = self.stacked["w_h"].transpose(0, 2, 1)
        dh_next = np.zeros((n_dir, n_seq, h_dim), dtype=da.dtype)
        dc_next = np.zeros((n_dir, n_seq, h_dim), dtype=da.dtype)
        for t in range(t_max - 1, -1, -1):
            dh = dh_seq[t] + dh_next
            dc = dc_next + dh * dh_to_dc[t]
            da[t, :, :, :3] *= dc[..., None, :]
            da[t, :, :, 3] *= dh
            dh_next = np.matmul(da[t].reshape(n_dir, n_seq, 4 * h_dim), w_h_t)
            dc_next = dc * f[t]
        del dh_seq, dh_to_dc, f, g
        # back to the packed rows: (D, N, 4H), and each row's h_{t-1}
        da = da.reshape(-1, 4 * h_dim)[pos]
        del gates
        h_prev = hs.reshape(-1, h_dim)[pos]
        del hs
        grads = self._stacked_grads
        grads["w_x"] += np.matmul(x.T, da)
        grads["w_h"] += np.matmul(h_prev.transpose(0, 2, 1), da)
        grads["bias"] += da.sum(axis=1)
        dx = np.matmul(da, self.stacked["w_x"].transpose(0, 2, 1)).sum(axis=0)
        return dx.astype(x.dtype, copy=False)


class BiLstm(LstmCell):
    """Forward and reverse LSTM as one two-cell stack; the output is the
    per-step concatenation [forward, reverse]."""

    prefixes = ("fwd.", "bwd.")
