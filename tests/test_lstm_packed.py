"""The stacked, packed BiLSTM against the per-direction, per-lawsuit
reference in ``lstm_reference.py``.

Labelling one lawsuit runs the same float32 operations as the reference,
so ``forward_scores`` and ``decode`` must match it bit for bit.  Packed
training steps several lawsuits through one GEMM per step, which rounds
differently, so its gradients match within stated tolerances.
"""

import numpy as np
import pytest

from conftest import check_grads
from lstm_reference import (RefBiLstm, ref_forward_scores, ref_initial_params,
                            ref_loss_and_backward)
from pageseq import crf as crf_ops
from pageseq.lstm import BiLstm, LstmCell
from pageseq.seqmodels import VARIANTS, SeqModel, SeqModelConfig
from pageseq.tensor import RngState

LENGTHS = [5, 1, 9, 2, 7]  # ragged, with a one-page lawsuit
# float32 packed vs per-lawsuit: max abs difference over max abs value
REL_TOL = 2e-5


def assert_bits_equal(got, want):
    """Equal values, and equal bit patterns too (so -0.0 != 0.0)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    width = {4: np.uint32, 8: np.uint64}[got.dtype.itemsize]
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(width),
                                  np.ascontiguousarray(want).view(width))


def assert_close(got, want, name=""):
    scale = max(np.abs(want).max(), 1e-30)
    rel = np.abs(np.asarray(got, np.float64) - want).max() / scale
    assert rel <= REL_TOL, (name, rel)


def _config(variant, **kw):
    return SeqModelConfig(variant=variant, input_dim=24, lstm_hidden=16,
                          pre_fc=20, **kw)


def _checkpoint_model(variant, seed=4):
    """A model whose every parameter and BatchNorm statistic is a random
    draw, as a trained checkpoint's would be; no dropout, so that two
    training passes see the same function."""
    model = SeqModel(_config(variant, dropout=0.0))
    gen = np.random.default_rng(seed)
    state = {}
    for name, value in model.state_dict().items():
        draw = gen.standard_normal(value.shape) * 0.5
        if name.endswith("running_var"):
            draw = np.abs(draw) + 0.5
        state[name] = draw.astype(value.dtype)
    model.load_state(state)
    return model


@pytest.mark.parametrize("variant", VARIANTS)
def test_fresh_model_has_reference_initial_weights(variant):
    model = SeqModel(_config(variant), seed=3)
    want = ref_initial_params(model.config, seed=3)
    params = model.named_params()
    for name, value in want.items():
        assert_bits_equal(params[name], value)
    for name in set(params) - set(want):  # BatchNorm and CRF constants
        assert name.startswith(("bn_", "crf.")), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_labelling_matches_reference_bit_for_bit(variant):
    model = _checkpoint_model(variant)
    gen = np.random.default_rng(8)
    for t_len in (1, 2, 41, 190):
        x = gen.standard_normal((t_len, 24)).astype(np.float32)
        scores = model.forward_scores(x)
        assert_bits_equal(scores, ref_forward_scores(model, x))
        want = scores.astype(np.float64)
        if model.config.crf_head:
            path, _ = crf_ops.viterbi_decode(want,
                                             *model.crf.params.values())
        else:
            path = want.argmax(axis=1).tolist()
        assert model.decode(x) == path


def _packed_batch(gen, dim, dtype=np.float32):
    x = gen.standard_normal((sum(LENGTHS), dim)).astype(dtype)
    return x, np.cumsum([0] + LENGTHS)


def test_packed_bilstm_matches_per_lawsuit_reference():
    gen = np.random.default_rng(9)
    bil = BiLstm(24, 16, RngState(2).consumer("lstm"), np.float32)
    bil.params["fwd.bias"][...] = gen.standard_normal(64)
    bil.params["bwd.bias"][...] = gen.standard_normal(64)
    x, bounds = _packed_batch(gen, 24)
    dh = gen.standard_normal((len(x), 32)).astype(np.float32)
    bil.zero_grads()
    out = bil.forward(x, train=True, lengths=LENGTHS)
    dx = bil.backward(dh)
    got = {name: g.copy() for name, g in bil.grads.items()}
    bil.zero_grads()
    want_out, want_dx = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ref = RefBiLstm(bil)
        want_out.append(ref.forward(x[lo:hi], train=True))
        want_dx.append(ref.backward(dh[lo:hi]))
    assert_close(out, np.concatenate(want_out), "out")
    assert_close(dx, np.concatenate(want_dx), "dx")
    for name, g in got.items():
        assert_close(g, bil.grads[name], name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_training_step_matches_per_lawsuit_reference(variant):
    """Same BatchNorm statistics on both sides: the reference runs the
    stem and the head over the packed rows too, and only the BiLSTM and
    the loss per lawsuit."""
    model = _checkpoint_model(variant)
    gen = np.random.default_rng(10)
    x, _ = _packed_batch(gen, 24)
    tags = gen.integers(0, 12, size=len(x))
    model.zero_grads()
    loss = model.loss_and_backward(x, tags, train=True, lengths=LENGTHS)
    got = {name: g.copy() for name, g in model.named_grads().items()}
    model.zero_grads()
    want_loss = ref_loss_and_backward(model, x, tags, LENGTHS)
    assert loss == pytest.approx(want_loss, rel=REL_TOL)
    for name, g in model.named_grads().items():
        assert_close(got[name], g, name)


def test_single_lawsuit_loss_is_its_length_normalised_loss():
    """With one lawsuit the packed objective is the per-lawsuit one."""
    model = _checkpoint_model("bilstm-f")
    gen = np.random.default_rng(11)
    x = gen.standard_normal((6, 24)).astype(np.float32)
    tags = gen.integers(0, 12, size=6)
    model.zero_grads()
    alone = model.loss_and_backward(x, tags)
    packed = model.loss_and_backward(x, tags, lengths=[6])
    assert alone == packed


def test_bilstm_gradients_on_packed_ragged_batch(rng):
    bil = BiLstm(3, 4, RngState(5).consumer("lstm"), np.float64)
    bil.params["fwd.bias"][...] = rng.standard_normal(16)
    x = rng.standard_normal((sum(LENGTHS), 3))
    c = rng.standard_normal((len(x), 8))

    def fn():
        return float((bil.forward(x, train=True, lengths=LENGTHS) * c).sum())

    bil.forward(x, train=True, lengths=LENGTHS)
    bil.zero_grads()
    dx = bil.backward(c.copy())
    for name, param in bil.params.items():
        check_grads(fn, param, bil.grads[name], rng, count=30)
    check_grads(fn, x, dx, rng)


def test_single_direction_cell_gradients_on_packed_batch(rng):
    cell = LstmCell(3, 4, RngState(6).consumer("lstm"), np.float64)
    x = rng.standard_normal((sum(LENGTHS), 3))
    c = rng.standard_normal((len(x), 4))

    def fn():
        return float((cell.forward(x, train=True, lengths=LENGTHS) * c).sum())

    cell.forward(x, train=True, lengths=LENGTHS)
    cell.zero_grads()
    dx = cell.backward(c.copy())
    for name, param in cell.params.items():
        check_grads(fn, param, cell.grads[name], rng, count=30)
    check_grads(fn, x, dx, rng)


def test_packed_rows_do_not_see_their_neighbours():
    """Each lawsuit's outputs are its own, whatever it is packed with."""
    gen = np.random.default_rng(12)
    bil = BiLstm(3, 4, RngState(5).consumer("lstm"), np.float64)
    x, bounds = _packed_batch(gen, 3, np.float64)
    out = bil.forward(x, lengths=LENGTHS)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.testing.assert_allclose(out[lo:hi], bil.forward(x[lo:hi]),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", ["bilstm-f", "bilstm-f-crf"])
def test_seqmodel_gradients_on_packed_ragged_batch(variant, rng):
    config = SeqModelConfig(variant=variant, input_dim=6, lstm_hidden=4,
                            pre_fc=5, dropout=0.0)
    model = SeqModel(config, seed=0, dtype=np.float64)
    # an output head of the usual scale, so the BiLSTM's grads are not tiny
    model.fc_out.params["weight"][...] = rng.standard_normal((8, 12))
    x = rng.standard_normal((sum(LENGTHS), 6))
    tags = rng.integers(0, 12, size=len(x))

    def loss_only():
        model.zero_grads()
        return model.loss_and_backward(x, tags, lengths=LENGTHS)

    loss_only()
    grads = {k: v.copy() for k, v in model.named_grads().items()}
    params = model.named_params()
    names = ["fc_in.weight", "bn_in.gamma", "bilstm.fwd.w_x", "bilstm.bwd.w_h",
             "bilstm.bwd.bias", "bn_out.beta", "fc_out.weight"]
    if config.crf_head:
        names += ["crf.transitions", "crf.start", "crf.stop"]
    for name in names:
        check_grads(loss_only, params[name], grads[name], rng, count=25)


def test_lengths_must_cover_the_rows():
    model = SeqModel(_config("bilstm"))
    x = np.zeros((5, 24), dtype=np.float32)
    with pytest.raises(ValueError, match="sum to 4"):
        model.forward_scores(x, lengths=[2, 2])
    with pytest.raises(ValueError, match="tags of shape"):
        model.loss_and_backward(x, np.zeros(4, dtype=int), lengths=[2, 3])
