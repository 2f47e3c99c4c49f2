"""Differentiable layers with hand-derived backward passes.

A layer is a :class:`model_base.ModelBase`, as every model is, and
registers its parameters and buffers there.  ``forward(x, train)``
caches what the backward pass needs only when ``train=True``; eval keeps
nothing, as ``torch.no_grad`` keeps no autograd graph, so a model holds
no activations between eval calls.  ``backward(grad)`` after an eval
forward raises ``RuntimeError`` (``Dropout``, the identity in eval, is
the exception).  ``backward`` returns the gradient w.r.t. the layer
input and accumulates parameter gradients (call ``zero_grads`` between
steps).  A layer instance is single-threaded during forward/backward
because of those caches; distinct instances are independent.

Sequence activations are channels-last, (batch, length, ch): Embedding
produces that layout and Conv1d, MaxPool1d and AdaptiveMaxPool1d take
and return it, so no layer transposes.  BatchNorm1d normalises the
columns of a (rows, ch) input; a (batch, length, ch) activation is
normalised per channel through its (batch * length, ch) view.
"""

from __future__ import annotations

import numpy as np

from .model_base import ModelBase
from .tensor import DEFAULT_DTYPE, ShapeError

BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # BatchNorm1d's running-stats rate, var floor
EMBEDDING_INIT = 0.05  # Embedding weights start uniform in +-EMBEDDING_INIT


def _cached(layer, cache):
    """``cache``, or ``RuntimeError`` naming ``layer`` if no train-mode
    forward filled it."""
    if cache is None:
        raise RuntimeError(f"{type(layer).__name__}.backward needs "
                           "forward(train=True) first")
    return cache


def glorot_uniform(rng, fan_in, fan_out, shape, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Linear(ModelBase):
    """y = x W + b over a batch of row vectors."""

    def __init__(self, in_dim, out_dim, rng, dtype=DEFAULT_DTYPE, w_scale=None):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        if w_scale is None:
            w = glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim), dtype)
        else:
            # small fixed scale, used for output heads so initial logits
            # are near-uniform
            w = (rng.standard_normal((in_dim, out_dim)) * w_scale).astype(dtype)
        self._add_param("weight", w)
        self._add_param("bias", np.zeros(out_dim, dtype=dtype))
        self._x = None

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"Linear({self.in_dim}) got input shape {x.shape}")
        self._x = x if train else None
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, grad):
        self.grads["weight"] += _cached(self, self._x).T @ grad
        self.grads["bias"] += grad.sum(axis=0)
        return grad @ self.params["weight"].T


class BatchNorm1d(ModelBase):
    """Batch normalisation over the first axis of a (batch, dim) input."""

    def __init__(self, dim, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.dim = dim
        self._add_param("gamma", np.ones(dim, dtype=dtype))
        self._add_param("beta", np.zeros(dim, dtype=dtype))
        self.running_mean = self._add_buffer("running_mean",
                                             np.zeros(dim, dtype=dtype))
        self.running_var = self._add_buffer("running_var",
                                            np.ones(dim, dtype=dtype))
        self._cache = None

    def forward(self, x, train=False, *, overwrite_input=False):
        """Normalised ``x``.  In eval mode ``overwrite_input`` writes the
        result into ``x``, which must have the layer's dtype, instead of a
        new array.  Only the owner of ``x`` may pass it, a conv block for
        its conv output; a caller holding a view of its own caller's rows
        never may.  Train mode ignores it."""
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"BatchNorm1d({self.dim}) got input shape {x.shape}")
        if not train:
            # the train path's ops in its order, on one array
            self._cache = None
            out = np.subtract(x, self.running_mean,
                              out=x if overwrite_input else None)
            out *= 1.0 / np.sqrt(self.running_var + BN_EPS)
            out *= self.params["gamma"]
            out += self.params["beta"]
            return out
        if x.shape[0] < 2:
            raise ValueError("BatchNorm1d needs batch size >= 2 in train mode")
        mean = x.mean(axis=0)
        xhat = x - mean
        out = np.square(xhat)
        var = out.mean(axis=0)  # x.var(axis=0), bit for bit
        self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
        self.running_var += BN_MOMENTUM * (var - self.running_var)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        self._cache = (xhat, inv_std, x.shape[0])
        np.multiply(xhat, self.params["gamma"], out=out)
        out += self.params["beta"]
        return out

    def backward(self, grad):
        # batch statistics depend on x, so the full jacobian applies:
        # dx = (inv_std / n) * (n * g - sum(g) - xhat * sum(g * xhat))
        xhat, inv_std, n = _cached(self, self._cache)
        tmp = grad * xhat
        self.grads["gamma"] += tmp.sum(axis=0)
        self.grads["beta"] += grad.sum(axis=0)
        dx = grad * self.params["gamma"]
        np.multiply(dx, xhat, out=tmp)
        proj = tmp.sum(axis=0)
        g_sum = dx.sum(axis=0)
        dx *= n
        dx -= g_sum
        np.multiply(xhat, proj, out=tmp)
        dx -= tmp
        dx *= inv_std / n
        return dx


class Dropout(ModelBase):
    """Inverted dropout: kept activations are scaled by 1/(1-p)."""

    def __init__(self, p, rng):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng
        self._mask = None

    def forward(self, x, train=False):
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class Embedding(ModelBase):
    """Row-lookup table for token ids; grads scatter into used rows only."""

    def __init__(self, vocab_size, dim, rng, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.vocab_size = vocab_size
        self.dim = dim
        self._add_param("weight", rng.uniform(
            -EMBEDDING_INIT, EMBEDDING_INIT,
            size=(vocab_size, dim)).astype(dtype))
        self._ids = None

    def forward(self, ids, train=False):
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexError("token id out of vocabulary range")
        self._ids = ids if train else None
        return self.params["weight"][ids]

    def backward(self, grad):
        np.add.at(self.grads["weight"], _cached(self, self._ids), grad)
        return None  # ids are not differentiable


class Conv1d(ModelBase):
    """Parallel 1-d cross-correlations with same-padding over (batch,
    length, ch): one bank of ``out_ch`` filters per kernel size, the
    banks' outputs concatenated along ch in ``kernel_sizes`` order.

    Bank k owns ``conv{k}.weight``, (in_ch * k, out_ch) with rows in
    (in_ch, tap) order, and ``conv{k}.bias``.  All banks run as one GEMM
    (the lowering of Chetlur et al. 2014, arXiv:1410.0759): they share a
    grid of kmax taps, the im2col matrix has one row per (batch,
    position) and its columns in (tap, in_ch) order, and each call
    assembles the (kmax * in_ch, banks * out_ch) weight from the banks,
    with zero rows for the taps a bank lacks.

    A train-mode ``forward`` caches its input and the assembled weight,
    not the im2col matrix, which is kmax times the input's size;
    ``backward`` rebuilds the matrix for the weight gradient and drops it
    before forming the input gradient (recomputation for memory, Chen et
    al. 2016, arXiv:1604.06174).  As for ``Linear``, the input must not
    be modified between ``forward`` and ``backward``.
    """

    def __init__(self, in_ch, out_ch, kernel_sizes, rng, dtype=DEFAULT_DTYPE):
        super().__init__()
        if len(set(kernel_sizes)) != len(kernel_sizes) or min(kernel_sizes) < 1:
            raise ValueError(f"kernel sizes must be distinct and positive, "
                             f"got {kernel_sizes}")
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kernel_sizes = tuple(kernel_sizes)
        self.taps = max(self.kernel_sizes)
        # same-padding puts (k - 1) // 2 of a bank's taps before the centre
        self.lead = (self.taps - 1) // 2
        # (kernel, first tap on the shared grid, output columns) per bank
        self._banks = [(k, self.lead - (k - 1) // 2,
                        slice(i * out_ch, (i + 1) * out_ch))
                       for i, k in enumerate(self.kernel_sizes)]
        self.dtype = np.dtype(dtype)
        for k in self.kernel_sizes:
            fan_in = in_ch * k
            self._add_param(f"conv{k}.weight", glorot_uniform(
                rng, fan_in, out_ch, (fan_in, out_ch), dtype))
            self._add_param(f"conv{k}.bias", np.zeros(out_ch, dtype=dtype))
        self._cache = None

    def _im2col(self, x):
        """The (batch * length, taps * in_ch) matrix of ``x``'s windows."""
        b, length, c = x.shape
        xp = np.zeros((b, length + self.taps - 1, c), dtype=x.dtype)
        xp[:, self.lead : self.lead + length] = x
        # windows (b, length, c, taps) -> one copy in (tap, c) column order
        return np.lib.stride_tricks.sliding_window_view(xp, self.taps, axis=1) \
            .transpose(0, 1, 3, 2).reshape(b * length, self.taps * c)

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[2] != self.in_ch:
            raise ShapeError(f"Conv1d expects (batch, L, {self.in_ch}), got {x.shape}")
        b, length, c = x.shape
        if length < 1:
            raise ShapeError("Conv1d input length must be >= 1")
        taps = self.taps
        weight = np.zeros((taps, c, len(self.kernel_sizes) * self.out_ch),
                          dtype=self.dtype)
        for k, t0, cs in self._banks:
            weight[t0 : t0 + k, :, cs] = \
                self.params[f"conv{k}.weight"].reshape(c, k, -1).transpose(1, 0, 2)
        weight = weight.reshape(taps * c, -1)
        out = self._im2col(x) @ weight
        out += np.concatenate([self.params[f"conv{k}.bias"]
                               for k in self.kernel_sizes])
        self._cache = (x, weight) if train else None
        return out.reshape(b, length, -1)

    def backward(self, grad):
        x, weight = _cached(self, self._cache)
        (b, length, c), taps, lead = x.shape, self.taps, self.lead
        gmat = grad.reshape(b * length, -1)
        dweight = (self._im2col(x).T @ gmat).reshape(taps, c, -1)
        dbias = gmat.sum(axis=0)
        for k, t0, cs in self._banks:
            dw = self.grads[f"conv{k}.weight"].reshape(c, k, -1)
            dw += dweight[t0 : t0 + k, :, cs].transpose(1, 0, 2)
            self.grads[f"conv{k}.bias"] += dbias[cs]
        dcols = (gmat @ weight.T).reshape(b, length, taps, c)
        dxp = np.zeros((b, length + taps - 1, c), dtype=grad.dtype)
        for t in range(taps):
            dxp[:, t : t + length] += dcols[:, :, t]
        return dxp[:, lead : lead + length]


def _bits(a):
    """Integer view of a float array, same shape and memory."""
    return a.view(f"i{a.dtype.itemsize}")


def _first_max(taps, beats=None):
    """Elementwise max over equal-shape taps; a tie keeps the earlier tap,
    and a NaN after the first tap never wins.

    Selection works on the float bits, so the result is some tap's value
    bit for bit (-0.0 and 0.0 included).  ``np.where`` and masked
    ``np.copyto`` would do the same but branch per element, which costs
    about ten times more on the random masks a pool sees.  For each tap
    after the first, a word per element selects it: all ones where that
    tap beat every tap before it and zero elsewhere.  Given a list
    ``beats`` (train mode), the words are appended to it for
    :func:`_route_max`; otherwise each is dropped once used.
    """
    out = taps[0].copy()
    bits = _bits(out)
    for tap in taps[1:]:
        word = (tap > out).astype(bits.dtype)
        np.negative(word, out=word)
        bits ^= (bits ^ _bits(tap)) & word
        if beats is not None:
            beats.append(word)
    return out


def _route_max(grad, beats, dst_taps):
    """Writes ``grad`` into the tap views each maximum came from and
    +0.0 into the other taps."""
    g = _bits(grad)
    taken = np.zeros(grad.shape, dtype=g.dtype)
    for dst, word in zip(dst_taps[:0:-1], beats[::-1]):
        np.bitwise_and(g, word & ~taken, out=_bits(dst))
        taken |= word
    np.bitwise_and(g, ~taken, out=_bits(dst_taps[0]))


class MaxPool1d(ModelBase):
    """Non-overlapping max pooling over (batch, length, ch) with floor
    semantics (ragged tail dropped); ties go to the first position."""

    def __init__(self, size):
        super().__init__()
        self.size = size
        self._cache = None

    def forward(self, x, train=False):
        n = x.shape[1] // self.size
        if n < 1:
            raise ShapeError(f"pool size {self.size} larger than input "
                             f"length {x.shape[1]}")
        end = n * self.size
        beats = [] if train else None
        out = _first_max([x[:, j : end : self.size] for j in range(self.size)],
                         beats)
        self._cache = (beats, x.shape) if train else None
        return out

    def backward(self, grad):
        beats, shape = _cached(self, self._cache)
        end = grad.shape[1] * self.size
        dx = np.zeros(shape, dtype=grad.dtype)
        _route_max(grad, beats, [dx[:, j : end : self.size]
                                 for j in range(self.size)])
        return dx


class AdaptiveMaxPool1d(ModelBase):
    """Max pooling of (batch, length, ch) to a fixed output length over
    near-equal windows; ties go to the first position."""

    def __init__(self, out_len):
        super().__init__()
        self.out_len = out_len
        self._cache = None

    def _bounds(self, length):
        return [(i * length // self.out_len, (i + 1) * length // self.out_len)
                for i in range(self.out_len)]

    def forward(self, x, train=False):
        b, length, c = x.shape
        if self.out_len > length:
            raise ShapeError(f"adaptive pool out_len {self.out_len} > length {length}")
        out = np.empty((b, self.out_len, c), dtype=x.dtype)
        beats = [[] for _ in range(self.out_len)] if train else None
        for i, (lo, hi) in enumerate(self._bounds(length)):
            out[:, i] = _first_max([x[:, t] for t in range(lo, hi)],
                                   beats[i] if train else None)
        self._cache = (beats, x.shape) if train else None
        return out

    def backward(self, grad):
        beats, shape = _cached(self, self._cache)
        dx = np.zeros(shape, dtype=grad.dtype)
        for i, (lo, hi) in enumerate(self._bounds(shape[1])):
            _route_max(grad[:, i], beats[i], [dx[:, t] for t in range(lo, hi)])
        return dx


class ReLU(ModelBase):
    def __init__(self):
        super().__init__()
        self._mask = None

    def forward(self, x, train=False):
        mask = x > 0
        self._mask = mask if train else None
        return x * mask

    def backward(self, grad):
        return grad * _cached(self, self._mask)

