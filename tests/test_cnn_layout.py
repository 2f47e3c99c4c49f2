"""The channels-last text-CNN trunk against the channels-first reference.

The pools and BatchNorm run the reference's arithmetic, so their outputs
and gradients must match bit for bit.  The fused convolution sums over
its taps and filter banks in another order than the reference's one
GEMM per kernel size, so the conv block and the whole model match in
float32 only within ``F32_TOL`` of each array's largest magnitude, and
in float64 within 1e-12.
"""

import numpy as np
import pytest

from cnn_reference import (OldBatchNorm1d, RefAdaptiveMaxPool1d, RefConv1d,
                           RefConvBlock, RefMaxPool1d, RefTextCnn, _adopt)
from pageseq.experiments import SMALL_TEXT_CNN
from pageseq.layers import AdaptiveMaxPool1d, BatchNorm1d, Conv1d, MaxPool1d
from pageseq.tensor import RngState
from pageseq.textcnn import ConvBlock, TextCnn

CFG = SMALL_TEXT_CNN
BATCH = 16
# float32 differences seen are below 2e-5 of the array's largest value
F32_TOL = 1e-4


def assert_bits_equal(got, want):
    """Equal values, and equal bit patterns too (so -0.0 != 0.0)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    width = {4: np.uint32, 8: np.uint64}[got.dtype.itemsize]
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(width),
                                  np.ascontiguousarray(want).view(width))


def assert_close(got, want, scale=None, tol=F32_TOL):
    """|got - want| <= tol * max|scale|, ``scale`` defaulting to ``want``."""
    assert got.dtype == want.dtype and got.shape == want.shape
    bound = tol * np.abs(want if scale is None else scale).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=bound)


def _cl(x):
    """(batch, ch, length) -> (batch, length, ch)."""
    return x.transpose(0, 2, 1)


def _block_pair(in_ch, dtype=np.float32):
    def make():
        return ConvBlock(in_ch, CFG.filters_per_size, CFG.kernel_sizes,
                         CFG.pool_size, RngState(3).consumer("block"), dtype)
    return make(), RefConvBlock.adopt(make())


def _bias_scale(grads, name):
    """Train-mode BatchNorm cancels a conv bias, so its true gradient is 0
    and the computed one rounding noise: compare it on the scale of the
    bank's weight gradient."""
    if ".bias" in name and "conv" in name:
        return grads[name.replace(".bias", ".weight")]
    return None


BLOCK_SHAPES = [(CFG.embed_dim, CFG.max_tokens),
                (CFG.block_channels, CFG.max_tokens // CFG.pool_size),
                (CFG.embed_dim, 7)]


@pytest.mark.parametrize("in_ch,length", BLOCK_SHAPES)
def test_convblock_matches_reference(in_ch, length):
    _check_block(in_ch, length, np.float32, F32_TOL)


@pytest.mark.parametrize("in_ch,length", BLOCK_SHAPES)
def test_convblock_matches_reference_float64(in_ch, length):
    _check_block(in_ch, length, np.float64, 1e-12)


def _check_block(in_ch, length, dtype, tol):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((BATCH, in_ch, length)).astype(dtype)
    block, ref = _block_pair(in_ch, dtype)
    for train in (True, False, True):
        out = block.forward(_cl(x).copy(), train=train)
        want = ref.forward(x.copy(), train=train)
        assert_close(out, _cl(want), tol=tol)
        grad = rng.standard_normal(want.shape).astype(dtype)
        if not train:  # eval mode keeps nothing to back-propagate
            with pytest.raises(RuntimeError, match="forward\\(train=True\\)"):
                block.backward(_cl(grad).copy())
            continue
        for layer in (block.conv, block.bn, ref.conv, ref.bn):
            layer.zero_grads()
        dx = block.backward(_cl(grad).copy())
        want_dx = ref.backward(grad.copy())
        assert_close(dx, _cl(want_dx), tol=tol)
        for name in block.conv.grads:
            assert_close(block.conv.grads[name], ref.conv.grads[name],
                         _bias_scale(ref.conv.grads, name), tol=tol)
        for name in block.bn.grads:
            assert_close(block.bn.grads[name], ref.bn.grads[name], tol=tol)
    assert_close(block.bn.running_mean, ref.bn.running_mean, tol=tol)
    assert_close(block.bn.running_var, ref.bn.running_var, tol=tol)


@pytest.mark.parametrize("kernel_sizes", [(3, 4, 5), (4,), (2, 5), (1, 3)])
@pytest.mark.parametrize("length", [1, 3, 7])
def test_fused_conv_matches_per_kernel_reference(kernel_sizes, length):
    """Every bank of the one-GEMM convolution equals its own per-kernel
    convolution in float64, at lengths below the largest kernel too."""
    rng = np.random.default_rng(length)
    conv = Conv1d(5, 3, kernel_sizes, RngState(2).consumer("conv"),
                  np.float64)
    for k in kernel_sizes:
        conv.params[f"conv{k}.bias"][...] = rng.standard_normal(3)
    banks = [RefConv1d(conv, k) for k in kernel_sizes]
    x = rng.standard_normal((4, 5, length))
    out = conv.forward(_cl(x).copy(), train=True)
    want = np.concatenate([bank.forward(x) for bank in banks], axis=1)
    np.testing.assert_allclose(out, _cl(want), rtol=0, atol=1e-12)
    grad = rng.standard_normal(want.shape)
    conv.zero_grads()
    dx = conv.backward(_cl(grad).copy())
    fused = {name: g.copy() for name, g in conv.grads.items()}
    conv.zero_grads()
    want_dx = sum(bank.backward(grad[:, 3 * i : 3 * (i + 1)])
                  for i, bank in enumerate(banks))
    np.testing.assert_allclose(dx, _cl(want_dx), rtol=0, atol=1e-12)
    for name, g in fused.items():
        np.testing.assert_allclose(g, conv.grads[name], rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", ["pair", "rows", "view"])
def test_batchnorm_matches_old_formulas(dtype, shape):
    rng = np.random.default_rng(23)
    if shape == "pair":  # the smallest train-mode batch
        x = rng.standard_normal((2, 7))
    elif shape == "rows":
        x = rng.standard_normal((300, 7)) * 3 + 1
    else:  # the (batch * length, ch) view a conv block normalises
        x = (rng.standard_normal((6, 40, 7)) * 2 - 1).reshape(240, 7)
    x = x.astype(dtype)
    bn, old = BatchNorm1d(7, dtype=dtype), OldBatchNorm1d(7, dtype=dtype)
    for layer in (bn, old):  # a non-trivial affine map
        layer.params["gamma"][...] = np.linspace(0.5, 2.0, 7)
        layer.params["beta"][...] = np.linspace(-1.0, 1.0, 7)
    for train in (True, False, True, False):
        assert_bits_equal(bn.forward(x, train=train), old.forward(x, train=train))
        grad = rng.standard_normal(x.shape).astype(dtype)
        if not train:  # eval mode keeps nothing to back-propagate
            with pytest.raises(RuntimeError, match="BatchNorm1d"):
                bn.backward(grad)
            continue
        assert_bits_equal(bn.backward(grad), old.backward(grad))
        for name in bn.grads:
            assert_bits_equal(bn.grads[name], old.grads[name])
        assert_bits_equal(bn.running_mean, old.running_mean)
        assert_bits_equal(bn.running_var, old.running_var)


def test_convblock_makes_one_conv_call(monkeypatch):
    calls = []
    forward = Conv1d.forward

    def counted(self, x, train=False):
        calls.append(x.shape)
        return forward(self, x, train=train)

    monkeypatch.setattr(Conv1d, "forward", counted)
    block, _ = _block_pair(CFG.embed_dim)
    block.forward(np.zeros((2, 9, CFG.embed_dim), dtype=np.float32),
                  train=True)
    assert calls == [(2, 9, CFG.embed_dim)]


def _tied(rng, shape):
    """Values drawn from {-1, -0.0, 0.0, 1}: ties in nearly every window."""
    pick = rng.integers(0, 4, size=shape)
    return np.array([-1.0, -0.0, 0.0, 1.0], dtype=np.float32)[pick]


@pytest.mark.parametrize("make", [
    lambda: (MaxPool1d(2), _adopt(RefMaxPool1d, MaxPool1d(2)), 9),
    lambda: (MaxPool1d(3), _adopt(RefMaxPool1d, MaxPool1d(3)), 11),
    lambda: (AdaptiveMaxPool1d(4), _adopt(RefAdaptiveMaxPool1d,
                                          AdaptiveMaxPool1d(4)), 15),
    lambda: (AdaptiveMaxPool1d(5), _adopt(RefAdaptiveMaxPool1d,
                                          AdaptiveMaxPool1d(5)), 5),
])
def test_pools_match_reference_on_ties_and_signed_zeros(make):
    pool, ref, length = make()
    rng = np.random.default_rng(5)
    for x in (_tied(rng, (BATCH, 6, length)),
              rng.standard_normal((BATCH, 6, length)).astype(np.float32)):
        out = pool.forward(_cl(x).copy(), train=True)
        want = ref.forward(x)
        assert_bits_equal(out, _cl(want))
        assert_bits_equal(pool.forward(_cl(x).copy()), out)
        pool.forward(_cl(x).copy(), train=True)  # eval dropped the cache
        grad = rng.standard_normal(want.shape).astype(np.float32)
        assert_bits_equal(pool.backward(_cl(grad).copy()),
                          _cl(ref.backward(grad)))


def test_textcnn_matches_reference():
    rng = np.random.default_rng(17)
    vocab = 120
    model = TextCnn(vocab, CFG, seed=4)
    ref = RefTextCnn(vocab, CFG, seed=4)
    ids = rng.integers(0, vocab, size=(BATCH, CFG.max_tokens))
    ids[:, 40:] = 0  # padded tails, as short pages encode
    for train in (True, False, True):
        logits = model.forward(ids, train=train)
        assert_close(logits, ref.forward(ids, train=train))
        if train:
            model.zero_grads(); ref.zero_grads()
            dlogits = rng.standard_normal(logits.shape).astype(np.float32)
            model.backward(dlogits.copy())
            ref.backward(dlogits.copy())
            grads, ref_grads = model.named_grads(), ref.named_grads()
            assert list(grads) == list(ref_grads)
            for name in grads:
                assert_close(grads[name], ref_grads[name],
                             _bias_scale(ref_grads, name))
        assert_close(model.extract_embedding(ids),
                     ref.extract_embedding(ids))
    params, ref_params = model.state_dict(), ref.state_dict()
    for name in params:
        assert_close(params[name], ref_params[name])
