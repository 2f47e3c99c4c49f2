from pathlib import Path

import numpy as np
import pytest

import crf_reference
from conftest import check_grads
from pageseq import cli, crf
from pageseq.checkpoint import load_checkpoint, params_digest
from pageseq.iob import IOB_TAGS
from pageseq.seqmodels import (SeqModel, SeqModelConfig, label_lawsuits,
                               train_seq)
from pageseq.training import minibatch_count, train_step


def _model(variant, input_dim=6, **kw):
    kw.setdefault("dropout", 0.0)  # keep gradient checks deterministic
    config = SeqModelConfig(variant=variant, input_dim=input_dim,
                            lstm_hidden=4, pre_fc=5, **kw)
    return SeqModel(config, seed=0, dtype=np.float64)


def test_variant_validation():
    with pytest.raises(ValueError):
        SeqModelConfig(variant="transformer", input_dim=4)


def test_decode_length_matches_input():
    for variant in ("bilstm", "bilstm-crf", "bilstm-f", "bilstm-f-crf"):
        model = _model(variant)
        x = np.random.default_rng(0).standard_normal((7, 6))
        assert len(model.decode(x)) == 7


def test_single_page_lawsuit_decodes():
    model = _model("bilstm-crf")
    x = np.random.default_rng(1).standard_normal((1, 6))
    assert len(model.decode(x)) == 1


def test_empty_lawsuit_rejected():
    model = _model("bilstm")
    with pytest.raises(ValueError):
        model.decode(np.zeros((0, 6)))


def test_reversed_lawsuit_changes_predictions():
    """Bidirectional context: scores depend on page order."""
    model = _model("bilstm")
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 6)) * 3
    fwd = model.forward_scores(x)
    rev = model.forward_scores(x[::-1].copy())
    assert not np.allclose(fwd, rev[::-1])


def test_batch_independence():
    """A lawsuit's predictions never depend on its batch neighbours:
    training packs a mini-batch, but labelling runs one lawsuit per call
    in eval mode, so two calls are enough."""
    model = _model("bilstm-f")
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 6))
    scores_alone = model.forward_scores(a)
    # run another lawsuit through, then repeat a
    model.forward_scores(rng.standard_normal((9, 6)))
    np.testing.assert_array_equal(scores_alone, model.forward_scores(a))


def test_bptt_gradients_full_fusion_stack(rng):
    """Finite differences through BN stem, BiLSTM and output head."""
    model = _model("bilstm-f")
    # an output head of the usual scale, so the BiLSTM's grads sit well
    # above the finite differences' rounding noise
    model.fc_out.params["weight"][...] = rng.standard_normal((8, 12))
    x = rng.standard_normal((3, 6))
    tags = np.array([0, 1, 1])

    def fn():
        return model.loss_and_backward(x, tags)

    model.zero_grads()
    model.loss_and_backward(x, tags)
    grads = {k: v.copy() for k, v in model.named_grads().items()}
    params = model.named_params()
    for name in ("fc_in.weight", "bilstm.fwd.w_x", "bilstm.bwd.w_h",
                 "bn_in.gamma", "fc_out.weight", "fc_out.bias"):
        def loss_only():
            model.zero_grads()
            return fn()
        check_grads(loss_only, params[name], grads[name], rng, count=25)


def test_crf_head_gradients(rng):
    model = _model("bilstm-f-crf")
    model.fc_out.params["weight"][...] = rng.standard_normal((8, 12))
    x = rng.standard_normal((3, 6))
    tags = np.array([0, 5, 11])

    model.zero_grads()
    model.loss_and_backward(x, tags)
    grads = {k: v.copy() for k, v in model.named_grads().items()}
    params = model.named_params()

    def loss_only():
        model.zero_grads()
        return model.loss_and_backward(x, tags)

    for name in ("crf.transitions", "crf.start", "crf.stop",
                 "bilstm.fwd.w_x", "fc_out.weight"):
        check_grads(loss_only, params[name], grads[name], rng, count=25)


def test_crf_head_decode_matches_brute_force():
    model = _model("bilstm-crf", input_dim=4)
    gen = np.random.default_rng(4)
    for p in model.crf.params.values():
        p += gen.standard_normal(p.shape)
    for _ in range(5):
        x = gen.standard_normal((4, 4))
        scores = model.forward_scores(x, train=False).astype(np.float64)
        path = model.decode(x)
        bpath, _ = crf_reference.brute_force_decode(
            scores, *model.crf.params.values())
        assert path == bpath


def test_checkpoint_of_the_crf_head_in_seqmodel_loads():
    """``data/bilstm_crf_parent.ckpt`` was written by pageseq at 51297fb,
    when ``SeqModel`` held the CRF's scores in arrays of its own, with the
    paths that model decoded: its ``crf.*`` entries load through the CLI's
    restore into the CRF head and decode the same paths."""
    path = Path(__file__).parent / "data" / "bilstm_crf_parent.ckpt"
    params, meta = load_checkpoint(path)
    model = cli._restore(path, params, meta, cli.FAMILIES[meta["model"]])
    for x, want in zip(meta["inputs"], meta["paths"]):
        assert model.decode(np.float32(x)) == want


def test_crf_head_takes_one_packed_call_per_step(monkeypatch):
    calls = []
    nll_and_grad = crf.nll_and_grad

    def counted(*args, **kw):
        calls.append(len(args[0]))
        return nll_and_grad(*args, **kw)

    monkeypatch.setattr(crf, "nll_and_grad", counted)
    rng = np.random.default_rng(10)
    data = {"train": _lawsuit_set(rng, 9), "validation": _lawsuit_set(rng, 2)}
    config = SeqModelConfig(variant="bilstm-f-crf", input_dim=6,
                            lstm_hidden=4, pre_fc=5)
    train_seq(data, config, epochs=3, batch_size=4)
    assert len(calls) == minibatch_count(9, 4) * 3
    assert sum(calls) == 3 * sum(len(tags) for _, tags in data["train"])


def test_predict_tags_are_iob():
    model = _model("bilstm")
    x = np.random.default_rng(5).standard_normal((4, 6))
    tags = label_lawsuits(model.decode, [(x, None)])
    assert len(tags) == 4
    assert all(t in IOB_TAGS for t in tags)


def _lawsuit_set(rng, n, low=2):
    out = []
    for _ in range(n):
        t = int(rng.integers(low, 6))
        out.append((rng.standard_normal((t, 6)).astype(np.float32),
                    rng.integers(0, 12, size=t)))
    return out


def test_train_seq_runs_and_is_deterministic():
    rng = np.random.default_rng(6)
    data = {"train": _lawsuit_set(rng, 6), "validation": _lawsuit_set(rng, 3)}
    config = SeqModelConfig(variant="bilstm-f", input_dim=6, lstm_hidden=4,
                            pre_fc=5)
    m1, _, log1 = train_seq(data, config, seed=0, epochs=2, batch_size=3)
    m2, _, log2 = train_seq(data, config, seed=0, epochs=2, batch_size=3)
    assert len(log1.rows) == 2
    assert log1.rows[-1].train_loss == log2.rows[-1].train_loss
    for name, p1 in m1.state_dict().items():
        np.testing.assert_array_equal(p1, m2.state_dict()[name])


def test_train_seq_checkpoints_are_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    data = {"train": _lawsuit_set(rng, 7), "validation": _lawsuit_set(rng, 3)}
    config = SeqModelConfig(variant="bilstm-f-crf", input_dim=6,
                            lstm_hidden=4, pre_fc=5)
    for run in ("a", "b"):
        train_seq(data, config, seed=1, epochs=2, batch_size=3,
                  out_path=tmp_path / f"{run}.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == \
        (tmp_path / "b.ckpt").read_bytes()


def test_train_seq_trains_on_one_page_lawsuits():
    """BatchNorm statistics are per mini-batch, so a one-page lawsuit
    trains alongside the others."""
    rng = np.random.default_rng(8)
    train = _lawsuit_set(rng, 6)
    train[1] = train[1][0][:1], train[1][1][:1]
    train[4] = train[4][0][:1], train[4][1][:1]
    data = {"train": train, "validation": _lawsuit_set(rng, 2, low=1)}
    for variant in ("bilstm", "bilstm-f-crf"):
        config = SeqModelConfig(variant=variant, input_dim=6, lstm_hidden=4,
                                pre_fc=5)
        _, _, log = train_seq(data, config, epochs=2, batch_size=2)
        assert all(np.isfinite(row.train_loss) for row in log.rows)


def test_train_seq_rejects_one_page_lawsuit_in_batches_of_one():
    rng = np.random.default_rng(9)
    train = _lawsuit_set(rng, 4)
    train[2] = train[2][0][:1], train[2][1][:1]
    data = {"train": train, "validation": _lawsuit_set(rng, 2)}
    config = SeqModelConfig(variant="bilstm", input_dim=6, lstm_hidden=4)
    with pytest.raises(ValueError, match="train lawsuit 2 has one page"):
        train_seq(data, config, epochs=1, batch_size=1)


# digests of the state and of the last step's gradients after two
# train_step steps, recorded at 2bd2bc5 (x86-64, one BLAS thread): the
# LSTM backward may move arrays around, never change an operation or its
# order
PINNED_STEP_DIGESTS = {
    "bilstm-f": (
        "8695273807da9c845220f8e7529d03871eecfa581e82a7f27f8135bfbaa44e98",
        "d92d3f892a02867da329790ef30c1091c6534dbd1e6b35fe29bcb6dc38c94fcb"),
    "bilstm-crf": (
        "4952caf70aadf46a4a280fc57de922dc075386ccb9ccc84452622e2fa93657c6",
        "ccf6df791438a2cc24dd57c68260b42c951840392b651a926b36bf246805c6b0"),
}


@pytest.mark.parametrize("variant", PINNED_STEP_DIGESTS)
def test_two_packed_train_steps_are_bit_for_bit_pinned(variant):
    """One packed batch of three lawsuits of unequal lengths: the
    gradient checks hold at 1e-12 and would pass a reordered product;
    these digests would not."""
    rng = np.random.default_rng(11)
    lengths = [5, 2, 7]
    x = rng.standard_normal((sum(lengths), 10)).astype(np.float32)
    tags = rng.integers(0, len(IOB_TAGS), sum(lengths))
    model = SeqModel(SeqModelConfig(variant=variant, input_dim=10,
                                    lstm_hidden=6, pre_fc=8), seed=3)
    step = train_step(model, lambda idx: model.loss_and_backward(
        x, tags, lengths=lengths))
    for lr in (1e-2, 5e-3):
        step(None, lr)
    assert (params_digest(model.state_dict()),
            params_digest(model.named_grads())) == \
        PINNED_STEP_DIGESTS[variant]
