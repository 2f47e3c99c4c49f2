"""Reference text-CNN trunk in the (batch, ch, length) layout.

The trunk used to run channels-first, with one convolution per kernel
size: im2col through ``sliding_window_view`` and a transpose, one GEMM
and one col2im per kernel, pools through ``argmax`` and
``take_along_axis``, and a 3-D BatchNorm branch that transposed to
(batch * length, ch) and back.  That code is kept here as an oracle.
The pools and BatchNorm must reproduce it bit for bit; the fused
convolution, which sums over its taps in another order, within
rounding.

Each reference class shares the parameters, their initialisation and
gradient buffers of the production layer it checks, and overrides only
``forward`` and ``backward``.
"""

import numpy as np

from pageseq.layers import AdaptiveMaxPool1d, BatchNorm1d, MaxPool1d
from pageseq.model_base import ModelBase
from pageseq.tensor import ShapeError
from pageseq.textcnn import ConvBlock, TextCnn


def _adopt(cls, obj):
    """A ``cls`` instance sharing ``obj``'s parameters and state."""
    ref = cls.__new__(cls)
    ref.__dict__.update(obj.__dict__)
    return ref


class OldBatchNorm1d(BatchNorm1d):
    """BatchNorm1d as it was before it reused ``x - mean`` and ran its
    scale, shift and backward in place."""

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"BatchNorm1d({self.dim}) got input shape {x.shape}")
        if train:
            if x.shape[0] < 2:
                raise ValueError("BatchNorm1d needs batch size >= 2 in train mode")
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std, train, x.shape[0])
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, grad):
        xhat, inv_std, train, n = self._cache
        self.grads["gamma"] += (grad * xhat).sum(axis=0)
        self.grads["beta"] += grad.sum(axis=0)
        g = grad * self.params["gamma"]
        if not train:
            dx = g * inv_std
        else:
            # batch statistics depend on x, so the full jacobian applies
            dx = (inv_std / n) * (
                n * g - g.sum(axis=0) - xhat * (g * xhat).sum(axis=0)
            )
        return dx


class RefConv1d(ModelBase):
    """The kernel-``kernel`` bank of a fused Conv1d as a convolution of
    its own, reading and accumulating into that bank's parameters."""

    def __init__(self, conv, kernel):
        super().__init__()
        self.in_ch = conv.in_ch
        self.out_ch = conv.out_ch
        self.kernel = kernel
        for name in ("weight", "bias"):
            self.params[name] = conv.params[f"conv{kernel}.{name}"]
            self.grads[name] = conv.grads[f"conv{kernel}.{name}"]
        self._cache = None

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[1] != self.in_ch:
            raise ShapeError(f"Conv1d expects (batch, {self.in_ch}, L), got {x.shape}")
        b, _, length = x.shape
        k = self.kernel
        pad_l, pad_r = (k - 1) // 2, k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad_l, pad_r)))
        win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)  # b,c,L,k
        cols = win.transpose(0, 2, 1, 3).reshape(b * length, self.in_ch * k)
        out = cols @ self.params["weight"] + self.params["bias"]
        self._cache = (cols, b, length, pad_l)
        return out.reshape(b, length, self.out_ch).transpose(0, 2, 1)

    def backward(self, grad):
        cols, b, length, pad_l = self._cache
        k = self.kernel
        gmat = grad.transpose(0, 2, 1).reshape(b * length, self.out_ch)
        self.grads["weight"] += cols.T @ gmat
        self.grads["bias"] += gmat.sum(axis=0)
        dcols = (gmat @ self.params["weight"].T).reshape(b, length, self.in_ch, k)
        dcols = dcols.transpose(0, 2, 1, 3)  # b,c,L,k
        dxp = np.zeros((b, self.in_ch, length + k - 1), dtype=grad.dtype)
        for j in range(k):
            dxp[:, :, j : j + length] += dcols[:, :, :, j]
        return dxp[:, :, pad_l : pad_l + length]


class RefBatchNorm1d(OldBatchNorm1d):
    """Per-channel normalisation of (batch, ch, length) over batch and length."""

    def forward(self, x, train=False):
        self._orig_shape = x.shape
        x = x.transpose(0, 2, 1).reshape(-1, self.dim)
        out = super().forward(x, train=train)
        b, c, length = self._orig_shape
        return out.reshape(b, length, c).transpose(0, 2, 1)

    def backward(self, grad):
        grad = grad.transpose(0, 2, 1).reshape(-1, self.dim)
        dx = super().backward(grad)
        b, c, length = self._orig_shape
        return dx.reshape(b, length, c).transpose(0, 2, 1)


class RefMaxPool1d(MaxPool1d):
    def forward(self, x, train=False):
        b, c, length = x.shape
        n = length // self.size
        win = x[:, :, : n * self.size].reshape(b, c, n, self.size)
        arg = win.argmax(axis=3)  # first index on ties
        self._cache = (arg, x.shape)
        return np.take_along_axis(win, arg[..., None], axis=3)[..., 0]

    def backward(self, grad):
        arg, shape = self._cache
        b, c, length = shape
        n = grad.shape[2]
        dwin = np.zeros((b, c, n, self.size), dtype=grad.dtype)
        np.put_along_axis(dwin, arg[..., None], grad[..., None], axis=3)
        dx = np.zeros(shape, dtype=grad.dtype)
        dx[:, :, : n * self.size] = dwin.reshape(b, c, n * self.size)
        return dx


class RefAdaptiveMaxPool1d(AdaptiveMaxPool1d):
    def forward(self, x, train=False):
        b, c, length = x.shape
        bounds = [(i * length // self.out_len, (i + 1) * length // self.out_len)
                  for i in range(self.out_len)]
        out = np.empty((b, c, self.out_len), dtype=x.dtype)
        args = np.empty((b, c, self.out_len), dtype=np.int64)
        for i, (lo, hi) in enumerate(bounds):
            seg = x[:, :, lo:hi]
            a = seg.argmax(axis=2)
            args[:, :, i] = a + lo
            out[:, :, i] = np.take_along_axis(seg, a[..., None], axis=2)[..., 0]
        self._cache = (args, x.shape)
        return out

    def backward(self, grad):
        args, shape = self._cache
        dx = np.zeros(shape, dtype=grad.dtype)
        np.put_along_axis(dx, args, grad, axis=2)
        return dx


class RefConvBlock(ConvBlock):
    @classmethod
    def adopt(cls, block):
        ref = _adopt(cls, block)
        ref.filters = block.conv.out_ch
        ref.convs = [RefConv1d(block.conv, k) for k in block.conv.kernel_sizes]
        ref.bn = _adopt(RefBatchNorm1d, block.bn)
        ref.pool = _adopt(RefMaxPool1d, block.pool)
        return ref

    def forward(self, x, train=False):
        outs = [conv.forward(x, train=train) for conv in self.convs]
        y = np.concatenate(outs, axis=1)
        return self.pool.forward(self.bn.forward(y, train=train), train=train)

    def backward(self, grad):
        grad = self.bn.backward(self.pool.backward(grad))
        dx = None
        for i, conv in enumerate(self.convs):
            g = grad[:, i * self.filters : (i + 1) * self.filters, :]
            d = conv.backward(g)
            dx = d if dx is None else dx + d
        return dx


class RefTextCnn(TextCnn):
    """TextCnn (same seed, same parameters) running the reference trunk."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.blocks = [RefConvBlock.adopt(block) for block in self.blocks]
        self.final_pool = _adopt(RefAdaptiveMaxPool1d, self.final_pool)

    def _trunk(self, ids, train):
        x = self.embedding.forward(ids, train=train)  # B, L, E
        x = x.transpose(0, 2, 1)
        for block in self.blocks:
            x = block.forward(x, train=train)
        x = self.final_pool.forward(x, train=train)
        self._flat_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dlogits):
        g = self.fc2.backward(dlogits)
        g = self.fc1.backward(self.relu.backward(self.dropout.backward(g)))
        g = g.reshape(self._flat_shape)
        g = self.final_pool.backward(g)
        for block in reversed(self.blocks):
            g = block.backward(g)
        self.embedding.backward(g.transpose(0, 2, 1))
