"""Eval mode keeps no backward state.

A layer caches what its backward pass needs only in train mode.  After an
eval forward no model holds an array it did not hold before, ``backward``
raises ``RuntimeError`` naming the layer, and a later train step runs
exactly as if the eval call had never happened.
"""

import tracemalloc

import numpy as np
import pytest

from pageseq.crf import CrfModel
from pageseq.fusion import FusionConfig, FusionModule, MlpClassifier
from pageseq.iob import IOB_TAGS
from pageseq.layers import (AdaptiveMaxPool1d, BatchNorm1d, Conv1d,
                            Embedding, Linear, MaxPool1d, ReLU)
from pageseq.lstm import BiLstm, LstmCell
from pageseq.seqmodels import SeqModel, SeqModelConfig
from pageseq.tensor import RngState
from pageseq.textcnn import ConvBlock, TextCnn, TextCnnConfig

TEXT_CFG = TextCnnConfig(max_tokens=20, embed_dim=8, filters_per_size=4,
                         blocks=2, final_pool_out_len=3, fc_hidden=16)
FM_CFG = FusionConfig(text_dim=8, image_dim=6, hidden=16)
MiB = 2 ** 20


def held_arrays(obj, seen=None):
    """ids of the arrays reachable from ``obj``'s attributes, through
    lists, tuples, dicts and the package's own objects."""
    seen = set() if seen is None else seen
    out = set()
    if id(obj) in seen:
        return out
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        out.add(id(obj))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            out |= held_arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            out |= held_arrays(item, seen)
    elif type(obj).__module__.startswith("pageseq."):
        out |= held_arrays(vars(obj), seen)
    return out


def _ids(rng, n=5):
    return rng.integers(0, 30, size=(n, TEXT_CFG.max_tokens))


def _fm_batch(rng, n=6):
    text_present = np.array([True, False, True, True, True, False][:n])
    image_present = np.array([True, True, False, True, True, True][:n])
    return (rng.standard_normal((n, FM_CFG.text_dim)).astype(np.float32),
            rng.standard_normal((n, FM_CFG.image_dim)).astype(np.float32),
            text_present, image_present)


def _seq_model(variant):
    return SeqModel(SeqModelConfig(variant=variant, input_dim=6,
                                   lstm_hidden=4, pre_fc=5), seed=2)


# family -> (fresh model, eval call); the nine --model families
FAMILIES = {
    "textcnn": (lambda: TextCnn(30, TEXT_CFG, seed=1),
                lambda m, rng: m.predict_probs(_ids(rng))),
    "textcnn-w": (lambda: TextCnn(30, TEXT_CFG, seed=1),
                  lambda m, rng: m.extract_embedding(_ids(rng))),
    "fusion": (lambda: FusionModule(FM_CFG, seed=1),
               lambda m, rng: m.predict_probs(*_fm_batch(rng))),
    "fusion-zero": (lambda: FusionModule(
        FusionConfig(text_dim=8, image_dim=6, hidden=16,
                     missing_mode="zero"), seed=1),
        lambda m, rng: m.hidden(*_fm_batch(rng))),
    "crf": (lambda: CrfModel(len(IOB_TAGS), 6),
            lambda m, rng: m.decode(rng.standard_normal((7, 6)))),
    **{variant: (lambda v=variant: _seq_model(v),
                 lambda m, rng: m.decode(rng.standard_normal((7, 6))))
       for variant in ("bilstm", "bilstm-crf", "bilstm-f", "bilstm-f-crf")},
}


@pytest.mark.parametrize("family", FAMILIES)
def test_eval_forward_holds_nothing(family):
    make, call = FAMILIES[family]
    model = make()
    before = held_arrays(model)
    call(model, np.random.default_rng(0))
    assert held_arrays(model) == before


@pytest.mark.parametrize("family", ["textcnn", "fusion", "bilstm-f"])
def test_train_forward_after_eval_holds_its_caches_again(family):
    """The walk above sees caches: a train forward makes them, and an
    eval forward drops them."""
    make, call = FAMILIES[family]
    model, rng = make(), np.random.default_rng(0)
    before = held_arrays(model)
    if family == "textcnn":
        model.forward(_ids(rng), train=True)
    elif family == "fusion":
        model.forward(*_fm_batch(rng), train=True)
    else:
        model.forward_scores(rng.standard_normal((7, 6)), train=True)
    assert held_arrays(model) - before
    call(model, rng)
    assert held_arrays(model) == before


def _layers():
    rng = RngState(4).consumer("eval-state")
    x3 = np.random.default_rng(1).standard_normal((2, 9, 3))
    x2 = np.random.default_rng(2).standard_normal((5, 3))
    ids = np.array([[0, 3, 3], [4, 1, 0]])
    return [
        (Linear(3, 4, rng, np.float64), x2),
        (BatchNorm1d(3, dtype=np.float64), x2),
        (Embedding(5, 3, rng, np.float64), ids),
        (Conv1d(3, 2, (2, 3), rng, np.float64), x3),
        (MaxPool1d(2), x3),
        (AdaptiveMaxPool1d(4), x3),
        (ReLU(), x2),
        (LstmCell(3, 2, rng, np.float64), x2),
        (BiLstm(3, 2, rng, np.float64), x2),
    ]


@pytest.mark.parametrize("index", range(len(_layers())),
                         ids=[type(layer).__name__ for layer, _ in _layers()])
def test_layer_backward_after_eval_forward_raises(index):
    layer, x = _layers()[index]
    before = held_arrays(layer)
    out = layer.forward(x.copy(), train=False)
    assert held_arrays(layer) == before
    with pytest.raises(RuntimeError, match=type(layer).__name__):
        layer.backward(np.ones_like(out))
    # a train forward then an eval forward: the eval forward drops the cache
    layer.forward(x.copy(), train=True)
    layer.forward(x.copy(), train=False)
    with pytest.raises(RuntimeError, match=type(layer).__name__):
        layer.backward(np.ones_like(out))


def test_model_backward_after_eval_forward_raises():
    rng = np.random.default_rng(3)
    cnn = TextCnn(30, TEXT_CFG, seed=1)
    logits = cnn.forward(_ids(rng), train=False)
    with pytest.raises(RuntimeError, match="forward\\(train=True\\)"):
        cnn.backward(np.ones_like(logits))
    fm = FusionModule(FM_CFG, seed=1)
    logits = fm.forward(*_fm_batch(rng), train=False)
    with pytest.raises(RuntimeError, match="forward\\(train=True\\)"):
        fm.backward(np.ones_like(logits))
    seq = _seq_model("bilstm-f")
    scores = seq.forward_scores(rng.standard_normal((7, 6)), train=False)
    with pytest.raises(RuntimeError, match="forward\\(train=True\\)"):
        seq.backward_scores(np.ones_like(scores))


def _train_step(model, family, rng):
    """Outputs and gradients of one train forward and backward."""
    model.zero_grads()
    if family == "textcnn":
        out = model.forward(_ids(rng), train=True)
        model.backward(rng.standard_normal(out.shape).astype(out.dtype))
    elif family == "fusion":
        out = model.forward(*_fm_batch(rng), train=True)
        model.backward(rng.standard_normal(out.shape).astype(out.dtype))
    else:
        out = model.forward_scores(rng.standard_normal((7, 6)), train=True)
        model.backward_scores(rng.standard_normal(out.shape)
                              .astype(out.dtype))
    return [out] + [g.copy() for g in model.named_grads().values()] + \
        [b.copy() for b in model.named_buffers().values()]


@pytest.mark.parametrize("family", ["textcnn", "fusion", "bilstm-f"])
def test_train_step_after_eval_forward_is_unchanged(family):
    make, call = FAMILIES[family]
    plain = _train_step(make(), family, np.random.default_rng(5))
    model = make()
    call(model, np.random.default_rng(6))
    after_eval = _train_step(model, family, np.random.default_rng(5))
    assert len(plain) == len(after_eval)
    for want, got in zip(plain, after_eval):
        assert want.dtype == got.dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def test_convblock_eval_overwrites_only_its_own_conv_output():
    """Eval BatchNorm writes into the conv output it is handed, giving
    the out-of-place result bit for bit; the block's input is untouched."""
    block = ConvBlock(3, 2, (2, 3), 2, RngState(7).consumer("block"),
                      np.float32)
    x = np.random.default_rng(8).standard_normal((4, 10, 3)) \
        .astype(np.float32)
    block.forward(x, train=True)  # running statistics away from 0 and 1
    block.bn.params["gamma"][...] = np.linspace(0.5, 2.0, 4)
    block.bn.params["beta"][...] = np.linspace(-1.0, 1.0, 4)
    kept = x.copy()
    out = block.forward(x, train=False)
    np.testing.assert_array_equal(x.view(np.uint32), kept.view(np.uint32))
    y = block.conv.forward(x)
    want = block.bn.forward(y.reshape(-1, 4).copy())
    got = block.bn.forward(y.reshape(-1, 4), overwrite_input=True)
    assert np.shares_memory(got, y)
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    pooled = block.pool.forward(want.reshape(y.shape))
    np.testing.assert_array_equal(out.view(np.uint32),
                                  pooled.view(np.uint32))


def test_mlp_eval_leaves_the_callers_rows_alone():
    """The MLP trunk's input is the caller's rows (the image MLP's are a
    view of the caller's array): eval never writes to them."""
    rng = np.random.default_rng(9)
    mlp = MlpClassifier(8, 16, seed=1)
    x = rng.standard_normal((6, 8)).astype(np.float32)
    mlp.forward(x, train=True)  # running statistics away from 0 and 1
    kept = x.copy()
    mlp.predict_probs(x[1:])
    np.testing.assert_array_equal(x.view(np.uint32), kept.view(np.uint32))
    fm = FusionModule(FM_CFG, seed=1)
    batch = _fm_batch(rng)
    fm.forward(*batch, train=True)
    kept = [a.copy() for a in batch]
    fm.predict_probs(*batch)
    for got, want in zip(batch, kept):
        np.testing.assert_array_equal(got, want)


def test_paper_shape_eval_peak_and_nothing_held():
    """One eval ``predict_probs`` of the paper's text CNN (500 tokens,
    3 x 256 filters) at 16 pages: the conv blocks normalise in place and
    no layer caches, so the call peaks below 100 MiB (133.1 MiB while
    eval forwards cached) and leaves nothing behind (109 MiB before)."""
    model = TextCnn(5000, TextCnnConfig(), seed=0)
    ids = np.random.default_rng(0).integers(0, 5000, size=(16, 500))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        probs = model.predict_probs(ids)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probs.shape == (16, 6)
    assert (peak - base) / MiB <= 100
    assert (current - base - probs.nbytes) / MiB < 1
