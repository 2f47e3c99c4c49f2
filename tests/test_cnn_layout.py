"""The channels-last text-CNN trunk against the channels-first reference.

Every comparison is exact: same float32 operands, same summation order,
so outputs and gradients must match bit for bit, not within a tolerance.
"""

import numpy as np
import pytest

from cnn_reference import (RefAdaptiveMaxPool1d, RefConvBlock, RefMaxPool1d,
                           RefTextCnn, _adopt)
from pageseq.experiments import SMALL_TEXT_CNN
from pageseq.layers import AdaptiveMaxPool1d, MaxPool1d
from pageseq.tensor import RngState
from pageseq.textcnn import ConvBlock, TextCnn

CFG = SMALL_TEXT_CNN
BATCH = 16


def assert_bits_equal(got, want):
    """Equal values, and equal bit patterns too (so -0.0 != 0.0)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    width = {4: np.uint32, 8: np.uint64}[got.dtype.itemsize]
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(width),
                                  np.ascontiguousarray(want).view(width))


def _cl(x):
    """(batch, ch, length) -> (batch, length, ch)."""
    return x.transpose(0, 2, 1)


def _block_pair(in_ch):
    block = ConvBlock(in_ch, CFG.filters_per_size, CFG.kernel_sizes,
                      CFG.pool_size, RngState(3).consumer("block"), np.float32)
    ref = RefConvBlock.adopt(ConvBlock(in_ch, CFG.filters_per_size,
                                       CFG.kernel_sizes, CFG.pool_size,
                                       RngState(3).consumer("block"),
                                       np.float32))
    return block, ref


@pytest.mark.parametrize("in_ch,length", [(CFG.embed_dim, CFG.max_tokens),
                                          (CFG.block_channels,
                                           CFG.max_tokens // CFG.pool_size),
                                          (CFG.embed_dim, 7)])
def test_convblock_matches_reference(in_ch, length):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((BATCH, in_ch, length)).astype(np.float32)
    block, ref = _block_pair(in_ch)
    for train in (True, False, True):
        out = block.forward(_cl(x).copy(), train=train)
        want = ref.forward(x.copy(), train=train)
        assert_bits_equal(out, _cl(want))
        grad = rng.standard_normal(want.shape).astype(np.float32)
        block.bn.zero_grads(); ref.bn.zero_grads()
        for conv, rconv in zip(block.convs, ref.convs):
            conv.zero_grads(); rconv.zero_grads()
        dx = block.backward(_cl(grad).copy())
        want_dx = ref.backward(grad.copy())
        assert_bits_equal(dx, _cl(want_dx))
        for conv, rconv in zip(block.convs, ref.convs):
            for name in conv.grads:
                assert_bits_equal(conv.grads[name], rconv.grads[name])
        for name in block.bn.grads:
            assert_bits_equal(block.bn.grads[name], ref.bn.grads[name])
    assert_bits_equal(block.bn.running_mean, ref.bn.running_mean)
    assert_bits_equal(block.bn.running_var, ref.bn.running_var)


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
        out = pool.forward(_cl(x).copy())
        want = ref.forward(x)
        assert_bits_equal(out, _cl(want))
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
        assert_bits_equal(logits, ref.forward(ids, train=train))
        if train:
            model.zero_grads(); ref.zero_grads()
            dlogits = rng.standard_normal(logits.shape).astype(np.float32)
            model.backward(dlogits.copy())
            ref.backward(dlogits.copy())
            grads, ref_grads = model.named_grads(), ref.named_grads()
            assert set(grads) == set(ref_grads)
            for name in grads:
                assert_bits_equal(grads[name], ref_grads[name])
        assert_bits_equal(model.extract_embedding(ids),
                          ref.extract_embedding(ids))
    params, ref_params = model.state_dict(), ref.state_dict()
    for name in params:
        assert_bits_equal(params[name], ref_params[name])
