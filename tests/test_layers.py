import numpy as np
import pytest

from conftest import check_grads
from pageseq.layers import (AdaptiveMaxPool1d, BatchNorm1d, Conv1d, Dropout,
                            Embedding, Linear, MaxPool1d, ReLU)
from pageseq.tensor import RngState
from pageseq.textcnn import ConvBlock


def _rng():
    return RngState(0).consumer("test-layers")


def _objective(layer, x, c, train=True):
    return lambda: float((layer.forward(x, train=train) * c).sum())


def test_linear_forward_shape_and_values():
    rng = _rng()
    layer = Linear(3, 2, rng, np.float64)
    x = np.array([[1.0, 0.0, 0.0]])
    out = layer.forward(x)
    expect = layer.params["weight"][0] + layer.params["bias"]
    np.testing.assert_allclose(out[0], expect)


def test_linear_gradients(rng):
    init = _rng()
    layer = Linear(4, 3, init, np.float64)
    x = init.standard_normal((6, 4))
    c = init.standard_normal((6, 3))
    layer.forward(x, train=True)
    layer.zero_grads()
    dx = layer.backward(c.copy())
    fn = _objective(layer, x, c)
    check_grads(fn, layer.params["weight"], layer.grads["weight"], rng)
    check_grads(fn, layer.params["bias"], layer.grads["bias"], rng)
    check_grads(fn, x, dx, rng)


def test_batchnorm_train_normalizes_batch():
    bn = BatchNorm1d(3, dtype=np.float64)
    x = np.random.default_rng(1).standard_normal((32, 3)) * 5 + 2
    y = bn.forward(x, train=True)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-7)
    np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-2)


def test_batchnorm_running_stats_used_in_eval():
    bn = BatchNorm1d(2, dtype=np.float64)
    gen = np.random.default_rng(2)
    for _ in range(200):
        bn.forward(gen.standard_normal((16, 2)) * 3 + 1, train=True)
    y = bn.forward(np.array([[1.0, 1.0]]), train=False)
    # eval with running stats close to population stats
    np.testing.assert_allclose(y[0], (1.0 - 1.0) / 3.0, atol=0.2)


def test_batchnorm_batch_of_one_in_train_raises():
    bn = BatchNorm1d(2)
    with pytest.raises(ValueError):
        bn.forward(np.zeros((1, 2)), train=True)


def test_batchnorm_gradients_2d(rng):
    bn = BatchNorm1d(4, dtype=np.float64)
    x = rng.standard_normal((7, 4))
    c = rng.standard_normal((7, 4))
    bn.forward(x, train=True)
    bn.zero_grads()
    dx = bn.backward(c.copy())
    fn = _objective(bn, x, c)
    check_grads(fn, bn.params["gamma"], bn.grads["gamma"], rng)
    check_grads(fn, bn.params["beta"], bn.grads["beta"], rng)
    check_grads(fn, x, dx, rng)


def test_convblock_gradients(rng):
    """Convs -> concat -> per-channel batch-norm -> pool, end to end."""
    block = ConvBlock(3, 2, (3, 4, 5), 2, _rng(), np.float64)
    x = rng.standard_normal((4, 9, 3))
    c = rng.standard_normal((4, 4, 6))
    block.forward(x, train=True)
    for layer in (block.conv, block.bn):
        layer.zero_grads()
    dx = block.backward(c.copy())
    fn = _objective(block, x, c)
    conv = block.conv
    for k in (3, 4, 5):
        check_grads(fn, conv.params[f"conv{k}.weight"],
                    conv.grads[f"conv{k}.weight"], rng)
        # train-mode batch-norm subtracts each channel's mean, so a conv
        # bias cannot move the output
        np.testing.assert_allclose(conv.grads[f"conv{k}.bias"], 0.0,
                                   atol=1e-12)
    check_grads(fn, block.bn.params["gamma"], block.bn.grads["gamma"], rng)
    check_grads(fn, block.bn.params["beta"], block.bn.grads["beta"], rng)
    check_grads(fn, x, dx, rng)


def test_dropout_eval_is_identity():
    drop = Dropout(0.5, _rng())
    x = np.random.default_rng(0).standard_normal((5, 4))
    np.testing.assert_array_equal(drop.forward(x, train=False), x)


def test_dropout_train_scales_kept_units():
    drop = Dropout(0.25, _rng())
    x = np.ones((2000, 10))
    y = drop.forward(x, train=True)
    kept = y != 0
    np.testing.assert_allclose(y[kept], 1.0 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.02


def test_dropout_backward_masks_gradient():
    drop = Dropout(0.5, _rng())
    x = np.ones((8, 8))
    y = drop.forward(x, train=True)
    g = drop.backward(np.ones_like(x))
    np.testing.assert_array_equal((y != 0), (g != 0))


def test_embedding_lookup_and_grad():
    rng = _rng()
    emb = Embedding(9, 4, rng, np.float64)
    ids = np.array([[0, 3, 3], [8, 1, 0]])
    out = emb.forward(ids, train=True)
    np.testing.assert_allclose(out[0, 1], emb.params["weight"][3])
    emb.zero_grads()
    c = rng.standard_normal(out.shape)
    emb.backward(c.copy())
    # repeated ids accumulate
    np.testing.assert_allclose(emb.grads["weight"][3], c[0, 1] + c[0, 2])
    np.testing.assert_allclose(emb.grads["weight"][5], 0.0)


def test_conv1d_same_length_output():
    rng = _rng()
    for k in (1, 2, 3, 4, 5):
        conv = Conv1d(2, 3, (k,), rng, np.float64)
        out = conv.forward(np.zeros((1, 7, 2)))
        assert out.shape == (1, 7, 3), f"kernel {k}"


def test_conv1d_matches_manual_convolution():
    rng = _rng()
    conv = Conv1d(1, 1, (3,), rng, np.float64)
    w = conv.params["conv3.weight"][:, 0]  # (in_ch * k,) with in_ch = 1
    b = conv.params["conv3.bias"][0]
    x = np.arange(5, dtype=np.float64)[None, :, None]
    out = conv.forward(x)[0, :, 0]
    padded = np.concatenate([[0.0], x[0, :, 0], [0.0]])
    expect = [padded[i : i + 3] @ w + b for i in range(5)]
    np.testing.assert_allclose(out, expect)


def test_conv1d_gradients(rng):
    conv = Conv1d(3, 2, (4,), _rng(), np.float64)
    x = rng.standard_normal((2, 6, 3))
    c = rng.standard_normal((2, 6, 2))
    conv.forward(x, train=True)
    conv.zero_grads()
    dx = conv.backward(c.copy())
    fn = _objective(conv, x, c)
    check_grads(fn, conv.params["conv4.weight"], conv.grads["conv4.weight"], rng)
    check_grads(fn, conv.params["conv4.bias"], conv.grads["conv4.bias"], rng)
    check_grads(fn, x, dx, rng)


@pytest.mark.parametrize("length", [1, 3, 7])
def test_fused_conv1d_gradients(rng, length):
    """All banks of one Conv1d, at lengths below the largest kernel too."""
    conv = Conv1d(3, 2, (3, 4, 5), _rng(), np.float64)
    x = rng.standard_normal((2, length, 3))
    c = rng.standard_normal((2, length, 6))
    conv.forward(x, train=True)
    conv.zero_grads()
    dx = conv.backward(c.copy())
    fn = _objective(conv, x, c)
    for name in conv.params:
        check_grads(fn, conv.params[name], conv.grads[name], rng)
    check_grads(fn, x, dx, rng)


def test_conv1d_backward_needs_forward():
    conv = Conv1d(3, 2, (3,), _rng(), np.float64)
    with pytest.raises(RuntimeError, match="forward"):
        conv.backward(np.zeros((1, 4, 2)))


def _kept_bytes(layer):
    """Bytes of the arrays a layer holds besides its params and grads."""
    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)
    return sum(a.nbytes for name, value in vars(layer).items()
               if name not in ("params", "grads") for a in arrays(value))


def test_conv1d_caches_its_input_not_im2col(rng):
    """The im2col matrix is taps times the input; only the input and the
    assembled weight may outlive forward."""
    conv = Conv1d(3, 2, (3, 4, 5), _rng(), np.float64)
    x = rng.standard_normal((4, 11, 3))
    conv.forward(x, train=True)
    weight_bytes = conv.taps * conv.in_ch * 3 * conv.out_ch * x.itemsize
    assert _kept_bytes(conv) <= x.nbytes + weight_bytes


def test_conv1d_rejects_repeated_kernel_sizes():
    with pytest.raises(ValueError):
        Conv1d(2, 3, (3, 3), _rng())


def test_maxpool_floor_semantics():
    pool = MaxPool1d(2)
    x = np.arange(7, dtype=np.float64)[None, :, None]
    out = pool.forward(x)
    np.testing.assert_array_equal(out[0, :, 0], [1, 3, 5])  # last element dropped


def test_maxpool_backward_routes_to_first_max():
    pool = MaxPool1d(2)
    x = np.array([2.0, 2.0, 1.0, 5.0])[None, :, None]
    pool.forward(x, train=True)
    g = pool.backward(np.array([1.0, 1.0])[None, :, None])
    np.testing.assert_array_equal(g[0, :, 0], [1.0, 0.0, 0.0, 1.0])


def test_adaptive_maxpool_output_length():
    pool = AdaptiveMaxPool1d(5)
    for length in (5, 7, 11, 20):
        out = pool.forward(np.zeros((1, length, 2)))
        assert out.shape == (1, 5, 2)


def test_adaptive_maxpool_covers_input():
    pool = AdaptiveMaxPool1d(3)
    x = np.zeros((1, 10, 1))
    x[0, 9, 0] = 7.0
    out = pool.forward(x)
    assert out[0, 2, 0] == 7.0


def test_adaptive_maxpool_backward_is_sparse():
    pool = AdaptiveMaxPool1d(2)
    x = np.random.default_rng(0).standard_normal((2, 9, 3))
    out = pool.forward(x, train=True)
    g = pool.backward(np.ones_like(out))
    assert g.shape == x.shape
    assert g.sum() == pytest.approx(out.size)


def test_relu_forward_backward():
    relu = ReLU()
    x = np.array([[-1.0, 2.0], [0.0, -3.0]])
    y = relu.forward(x, train=True)
    np.testing.assert_array_equal(y, [[0, 2], [0, 0]])
    g = relu.backward(np.ones_like(x))
    np.testing.assert_array_equal(g, [[0, 1], [0, 0]])

