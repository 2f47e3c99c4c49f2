"""Acceptance suite: ten criteria, one reported pass/fail line each.

Criteria 1-5 and 10 are oracle and identity checks; 6 and 7 run the
synthetic ordering experiment (the heavy part, a few minutes per seed);
8 and 9 exercise the hybrid-classifier identity and full-pipeline
reproducibility through the command-line interface.
"""

import sys

import numpy as np
import pytest

import crf_reference
from conftest import central_diff, max_rel_err, sample_coords
from pageseq import crf as C
from pageseq.cli import main as cli_main
from pageseq.corpus import iter_pages
from pageseq.fusion import HybridClassifier
from pageseq.iob import CLASSES, IOB_TAGS, iob_collapse, iob_encode
from pageseq.layers import (AdaptiveMaxPool1d, BatchNorm1d, Conv1d, Dropout,
                            Embedding, Linear, MaxPool1d)
from pageseq.losses import class_weights, cross_entropy
from pageseq.lstm import BiLstm, LstmCell
from pageseq.metrics import score
from pageseq.schedule import OneCycleSchedule, lr_range_test
from pageseq.synth import SynthConfig, generate_synthetic
from pageseq.tensor import RngState
from pageseq.experiments import run_ordering_experiment
from pageseq.textcnn import TextCnnConfig, encode_pages, train_text_cnn


def announce(capsys, line):
    with capsys.disabled():
        print(line, file=sys.stderr)


# ----------------------------------------------------------- criterion 1


def _vector_brute_force(em, tr, start, stop):
    """Vectorized exhaustive enumeration, tractable at K = 12, T <= 6."""
    t, k = em.shape
    paths = np.indices((k,) * t).reshape(t, -1)
    scores = em[np.arange(t)[:, None], paths].sum(axis=0)
    if t > 1:
        scores = scores + tr[paths[:-1], paths[1:]].sum(axis=0)
    scores = scores + start[paths[0]] + stop[paths[-1]]
    m = scores.max()
    log_z = m + np.log(np.exp(scores - m).sum())
    best = int(scores.argmax())
    return log_z, paths[:, best].tolist(), float(scores[best])


@pytest.mark.slow
def test_criterion_1_crf_oracle_equivalence(capsys):
    rng = np.random.default_rng(100)
    checked = 0
    for _ in range(950):
        t = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        em = rng.standard_normal((t, k))
        tr = rng.standard_normal((k, k))
        st = rng.standard_normal(k)
        sp = rng.standard_normal(k)
        lz = crf_reference.forward_log_partition(em, tr, st, sp)
        bz = crf_reference.brute_force_log_partition(em, tr, st, sp)
        assert abs(lz - bz) <= 1e-8
        path, s = C.viterbi_decode(em, tr, st, sp)
        bpath, bs = crf_reference.brute_force_decode(em, tr, st, sp)
        assert path == bpath and abs(s - bs) <= 1e-8
        checked += 1
    k = len(IOB_TAGS)
    for _ in range(60):
        t = int(rng.integers(1, 7))
        em = rng.standard_normal((t, k))
        tr = rng.standard_normal((k, k))
        st = rng.standard_normal(k)
        sp = rng.standard_normal(k)
        lz = crf_reference.forward_log_partition(em, tr, st, sp)
        bz, bpath, bs = _vector_brute_force(em, tr, st, sp)
        path, s = C.viterbi_decode(em, tr, st, sp)
        assert abs(lz - bz) <= 1e-8
        assert path == bpath and abs(s - bs) <= 1e-8
        checked += 1
    announce(capsys, f"ACCEPTANCE 1 PASS: CRF forward/Viterbi match "
                     f"brute force on {checked} instances (K<=4 and K=12)")


# ----------------------------------------------------------- criterion 2


def _check(fn, arr, analytic, rng, count, h=1e-5, tol=1e-4):
    coords = sample_coords(rng, arr.shape, count)
    numeric = central_diff(fn, arr, coords, h=h)
    got = np.array([analytic[idx] for idx in coords])
    err = max_rel_err(numeric, got)
    assert err <= tol, f"max rel err {err}"
    return len(coords)


def test_criterion_2_gradient_correctness(capsys):
    rng = np.random.default_rng(200)
    init = RngState(5).consumer("acceptance-grads")
    totals = {}

    def obj(layer, x, c, train=True):
        return lambda: float((layer.forward(x, train=train) * c).sum())

    # linear
    lin = Linear(20, 25, init, np.float64)
    x = rng.standard_normal((6, 20))
    c = rng.standard_normal((6, 25))
    lin.forward(x, train=True); lin.zero_grads()
    dx = lin.backward(c.copy())
    n = _check(obj(lin, x, c), lin.params["weight"], lin.grads["weight"], rng, 400)
    n += _check(obj(lin, x, c), lin.params["bias"], lin.grads["bias"], rng, 25)
    n += _check(obj(lin, x, c), x, dx, rng, 100)
    totals["linear"] = n

    # batch-norm (train-mode jacobian)
    bn = BatchNorm1d(40, dtype=np.float64)
    x = rng.standard_normal((16, 40))
    c = rng.standard_normal((16, 40))
    bn.forward(x, train=True); bn.zero_grads()
    dx = bn.backward(c.copy())
    n = _check(obj(bn, x, c), bn.params["gamma"], bn.grads["gamma"], rng, 40)
    n += _check(obj(bn, x, c), bn.params["beta"], bn.grads["beta"], rng, 40)
    n += _check(obj(bn, x, c), x, dx, rng, 420)
    totals["batchnorm"] = n

    # dropout in eval mode is the identity path
    drop = Dropout(0.5, RngState(1).consumer("acceptance-drop"))
    x = rng.standard_normal((25, 25))
    c = rng.standard_normal((25, 25))
    drop.forward(x, train=False)
    dx = drop.backward(c.copy())
    n = _check(obj(drop, x, c, train=False), x, dx, rng, 500)
    totals["dropout-off"] = n

    # embedding
    emb = Embedding(60, 10, init, np.float64)
    ids = rng.integers(0, 60, size=(8, 12))
    c = rng.standard_normal((8, 12, 10))
    emb.forward(ids, train=True); emb.zero_grads(); emb.backward(c.copy())
    fn = lambda: float((emb.forward(ids) * c).sum())
    n = _check(fn, emb.params["weight"], emb.grads["weight"], rng, 500)
    totals["embedding"] = n

    # conv1d
    conv = Conv1d(6, 8, (4,), init, np.float64)
    x = rng.standard_normal((2, 30, 6))
    c = rng.standard_normal((2, 30, 8))
    conv.forward(x, train=True); conv.zero_grads()
    dx = conv.backward(c.copy())
    n = _check(obj(conv, x, c), conv.params["conv4.weight"],
               conv.grads["conv4.weight"], rng, 192)
    n += _check(obj(conv, x, c), conv.params["conv4.bias"],
                conv.grads["conv4.bias"], rng, 8)
    n += _check(obj(conv, x, c), x, dx, rng, 300)
    totals["conv1d"] = n

    # pooling routing (input gradients only; pools have no parameters)
    pool = MaxPool1d(2)
    x = rng.standard_normal((4, 20, 8))
    c = rng.standard_normal((4, 10, 8))
    pool.forward(x, train=True); dx = pool.backward(c.copy())
    n = _check(obj(pool, x, c), x, dx, rng, 300)
    apool = AdaptiveMaxPool1d(5)
    x = rng.standard_normal((4, 17, 8))
    c = rng.standard_normal((4, 5, 8))
    apool.forward(x, train=True); dx = apool.backward(c.copy())
    n += _check(obj(apool, x, c), x, dx, rng, 200)
    totals["pooling"] = n

    # lstm cell
    cell = LstmCell(10, 12, init, np.float64)
    x = rng.standard_normal((5, 10))
    c = rng.standard_normal((5, 12))
    cell.forward(x, train=True); cell.zero_grads()
    dx = cell.backward(c.copy())
    n = _check(obj(cell, x, c), cell.params["w_x"], cell.grads["w_x"], rng, 220)
    n += _check(obj(cell, x, c), cell.params["w_h"], cell.grads["w_h"], rng, 220)
    n += _check(obj(cell, x, c), cell.params["bias"], cell.grads["bias"], rng, 48)
    n += _check(obj(cell, x, c), x, dx, rng, 52)
    totals["lstm"] = n

    # bidirectional lstm over exactly three steps
    bil = BiLstm(8, 6, init, np.float64)
    x = rng.standard_normal((3, 8))
    c = rng.standard_normal((3, 12))
    bil.forward(x, train=True); bil.zero_grads()
    dx = bil.backward(c.copy())
    n = 0
    for name in ("fwd.w_x", "fwd.w_h", "bwd.w_x", "bwd.w_h"):
        n += _check(obj(bil, x, c), bil.params[name], bil.grads[name], rng, 110)
    for name in ("fwd.bias", "bwd.bias"):
        n += _check(obj(bil, x, c), bil.params[name], bil.grads[name], rng, 24)
    n += _check(obj(bil, x, c), x, dx, rng, 24)
    totals["bilstm"] = n

    # weighted cross-entropy
    logits = rng.standard_normal((90, 6))
    targets = rng.integers(0, 6, size=90)
    weights = rng.uniform(0.2, 3.0, size=6)
    _, d = cross_entropy(logits, targets, weights)
    fn = lambda: cross_entropy(logits, targets, weights)[0]
    totals["weighted-ce"] = _check(fn, logits, d, rng, 500)

    # crf nll
    n = 0
    for inst in range(2):
        gen = np.random.default_rng(300 + inst)
        em = gen.standard_normal((20, 10))
        tr = gen.standard_normal((10, 10))
        st = gen.standard_normal(10)
        sp = gen.standard_normal(10)
        gold = gen.integers(0, 10, size=20)
        _, d_em, d_tr, d_st, d_sp = C.nll_and_grad(em, tr, st, sp, gold)
        fn = lambda: (crf_reference.forward_log_partition(em, tr, st, sp)
                      - C.sequence_score(em, tr, st, sp, gold))
        n += _check(fn, em, d_em, rng, 150)
        n += _check(fn, tr, d_tr, rng, 80)
        n += _check(fn, st, d_st, rng, 10)
        n += _check(fn, sp, d_sp, rng, 10)
    totals["crf-nll"] = n

    assert all(v >= 500 for v in totals.values()), totals
    announce(capsys, "ACCEPTANCE 2 PASS: analytic gradients match central "
                     "finite differences, >=500 coordinates per op "
                     f"({sum(totals.values())} total)")


# ----------------------------------------------------------- criterion 3


def test_criterion_3_metric_identities(capsys):
    gold = ["x"] * 12 + ["y"] * 2
    pred = ["x"] * 8 + ["y"] * 4 + ["x"] * 2
    rep = score(gold, pred, ["x", "y"])
    s = rep.per_class["x"]
    assert (s.tp, s.fp, s.fn) == (8, 2, 4)
    assert s.precision == pytest.approx(0.8)
    assert s.recall == pytest.approx(2 / 3)
    assert s.f1 == pytest.approx(8 / 11)

    # constant classifier: macro-F1 = F1(majority)/c
    rng = np.random.default_rng(3)
    gold = [CLASSES[i] for i in rng.choice(6, p=[.05, .1, .05, .6, .12, .08],
                                           size=400)]
    pred = ["Others"] * 400
    rep = score(gold, pred, CLASSES)
    assert rep.macro_f1 == pytest.approx(rep.per_class["Others"].f1 / 6)
    # with majority-class F1 at 94.41%, the identity gives 15.73
    assert abs(0.9441 / 6 * 100 - 15.73) <= 0.01
    announce(capsys, "ACCEPTANCE 3 PASS: hand-computed F1 cases exact; "
                     "majority identity yields 15.73 within 0.01 p.p.")


# ----------------------------------------------------------- criterion 4


def test_criterion_4_class_weight_identity(capsys):
    rng = np.random.default_rng(4)
    for _ in range(1000):
        counts = rng.integers(1, 100_000, size=int(rng.integers(2, 12)))
        w = class_weights(counts)
        assert np.sum(counts * w) == pytest.approx(counts.sum(), rel=1e-12)
    counts = [553, 2546, 346, 134134, 9509, 2129]
    w = class_weights(counts)
    expect = sum(counts) / (6 * 134134)  # independent arithmetic
    assert w[3] == pytest.approx(expect, abs=1e-12)
    assert abs(w[3] - 0.1854) <= 1e-4
    announce(capsys, "ACCEPTANCE 4 PASS: sum(f_i * w_i) = n on 1000 random "
                     "count vectors; worked example weight 0.1854 matches")


# ----------------------------------------------------------- criterion 5


def test_criterion_5_iob_codec(capsys):
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        n = int(rng.integers(1, 10))
        labels, flags = [], []
        current = None
        for _ in range(n):
            if current is None or rng.random() < 0.4:
                current = CLASSES[rng.integers(6)]
                flags.append(True)
            else:
                flags.append(False)
            labels.append(current)
        assert iob_collapse(iob_encode(labels, flags)) == labels

    labels = ["RE", "RE", "RE", "ARE", "ARE", "ARE"]
    flags = [True, False, False, True, False, False]
    tags = iob_encode(labels, flags)
    assert tags == ["B-RE", "I-RE", "I-RE", "B-ARE", "I-ARE", "I-ARE"]
    assert iob_collapse(tags) == labels
    announce(capsys, "ACCEPTANCE 5 PASS: collapse-after-encode identity on "
                     "10,000 sequences; worked example round-trips")


# -------------------------------------------------------- criteria 6 & 7


@pytest.fixture(scope="module")
def ordering_runs():
    """The expensive part: full model roster on the default generator,
    seed 7 plus two more training seeds."""
    runs = {}
    for train_seed in (7, 0, 1):
        runs[train_seed] = run_ordering_experiment(
            SynthConfig(seed=7), train_seed=train_seed,
            with_zero_variant=(train_seed == 7),
            with_first_page=(train_seed == 7))
    return runs


@pytest.mark.slow
def test_criterion_6_synthetic_ordering(capsys, ordering_runs):
    for seed, res in ordering_runs.items():
        m = res.macro
        # (a) fusion beats both unimodal models
        assert m["fm"] >= max(m["textcnn"], m["image_only"]), (seed, m)
        # (c) sequence models at or above the plain fusion module
        assert m["fm_crf"] >= m["fm"], (seed, m)
        assert m["bilstm_f"] >= m["fm"], (seed, m)
        # (d) discarding image activations hurts, on the comparable
        # text-present subset of the test split
        assert m["fm_no_img"] < m["fm_text_subset"], (seed, m)
    # (b) learned missing embeddings beat zeros by >= 0.5 p.p. at seed 7
    m7 = ordering_runs[7].macro
    assert m7["fm"] - m7["fm_zero"] >= 0.005, m7
    summary = ", ".join(f"{k} {100 * v:.1f}" for k, v in m7.items())
    announce(capsys, "ACCEPTANCE 6 PASS: ordering holds on 3 seeds "
                     f"(seed-7 macro-F1: {summary})")


@pytest.mark.slow
def test_criterion_7_first_page_effect(capsys, ordering_runs):
    first, interior = ordering_runs[7].first_page
    gap_on = first.macro_f1 - interior.macro_f1
    assert gap_on > 0, (first.macro_f1, interior.macro_f1)

    from pageseq.fusion import (FusionConfig, corpus_embedding_dims,
                                embedding_arrays, train_fusion)
    from pageseq.metrics import score_by_first_page

    config = SynthConfig(seed=7, first_page_boost=0.0)
    corpus = generate_synthetic(config)
    text_dim, image_dim = corpus_embedding_dims(corpus)
    fm, _, _ = train_fusion(corpus, FusionConfig(text_dim=text_dim,
                                                 image_dim=image_dim,
                                                 hidden=128),
                            seed=7, epochs=12)
    pages = list(iter_pages(corpus, "test"))
    data = embedding_arrays(pages, text_dim, image_dim)
    probs = fm.predict_probs(*data[:4])
    preds = [CLASSES[i] for i in probs.argmax(axis=1)]
    first0, interior0 = score_by_first_page([p.label for p in pages], preds,
                                            [p.is_first_page for p in pages],
                                            CLASSES)
    gap_off = abs(first0.macro_f1 - interior0.macro_f1)
    assert gap_off < 0.02, (first0.macro_f1, interior0.macro_f1)
    announce(capsys, f"ACCEPTANCE 7 PASS: first-page gap "
                     f"{100 * gap_on:.1f} p.p. with boost on, "
                     f"{100 * gap_off:.1f} p.p. with boost off")


# ----------------------------------------------------------- criterion 8


def test_criterion_8_hybrid_identity(capsys):
    corpus = generate_synthetic(SynthConfig(seed=7, n_lawsuits=30,
                                            missing_text_rate=0.0))
    config = TextCnnConfig(max_tokens=30, embed_dim=16, filters_per_size=8,
                           blocks=2, final_pool_out_len=3, fc_hidden=32)
    model, vocab, _, _ = train_text_cnn(corpus, config, weighted=False,
                                        seed=0, epochs=2)

    class TextAdapter:
        def predict_page(self, page):
            ids = encode_pages([page], vocab, config.max_tokens)
            return CLASSES[int(model.predict_probs(ids).argmax())]

    class ForbiddenImageModel:
        def predict_page(self, page):
            raise AssertionError("image model must never be called")

    text_model = TextAdapter()
    hc = HybridClassifier(TextAdapter(), ForbiddenImageModel())
    pages = list(iter_pages(corpus, "test"))
    gold = [p.label for p in pages]
    rep_text = score(gold, [text_model.predict_page(p) for p in pages], CLASSES)
    rep_hc = score(gold, [hc.predict_page(p) for p in pages], CLASSES)
    assert hc.image_calls == 0
    assert rep_hc.to_json().encode() == rep_text.to_json().encode()
    announce(capsys, "ACCEPTANCE 8 PASS: hybrid classifier output "
                     "byte-identical to the text model with no missing text")


# ----------------------------------------------------------- criterion 9


def test_criterion_9_reproducibility(capsys, tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("synth.n_lawsuits=24\nsynth.seed=9\n"
                   "synth.text_dim=16\nsynth.image_dim=12\n")
    assert cli_main(["gen-synth", "--config", str(cfg),
                     "--out", str(tmp_path / "corpus")]) == 0

    def run(tag):
        out = tmp_path / tag
        assert cli_main(["train", "--model", "fusion",
                         "--corpus", str(tmp_path / "corpus"),
                         "--out", str(out), "--epochs", "3",
                         "--seed", "5"]) == 0
        return out

    first = run("run_a")
    # second run driven by the first run's saved config
    out_b = tmp_path / "run_b"
    assert cli_main(["train", "--model", "fusion",
                     "--corpus", str(tmp_path / "corpus"),
                     "--out", str(out_b), "--epochs", "3",
                     "--config", str(first / "config.txt")]) == 0
    assert (first / "model.ckpt").read_bytes() == \
        (out_b / "model.ckpt").read_bytes()
    assert (first / "train_log.jsonl").read_bytes() == \
        (out_b / "train_log.jsonl").read_bytes()
    announce(capsys, "ACCEPTANCE 9 PASS: re-run from the saved config "
                     "reproduces checkpoint and log bit-exactly")


# ---------------------------------------------------------- criterion 10


def test_criterion_10_schedule_contracts(capsys):
    sched = OneCycleSchedule(total_steps=200, max_lr=0.6)
    assert sched.lr(0) == 0.6 / 25
    assert sched.lr(sched.peak_step) == 0.6
    assert sched.lr(199) == 0.6 / 1e4

    result = lr_range_test(lambda b, lr: 1.0, iter(range(50)), 1e-5, 1.0, 50)
    lrs = result.lrs
    assert all(a < b for a, b in zip(lrs, lrs[1:]))
    ratios = np.diff(np.log(lrs))
    assert np.allclose(ratios, ratios[0])

    w = np.array([10.0])

    def loss_step(batch, lr):
        loss = float(w[0] ** 2)
        w[0] -= lr * 2 * w[0]
        return loss

    convex = lr_range_test(loss_step, iter(range(80)), 1e-4, 5.0, 80)
    idx = convex.lrs.index(convex.suggested_lr)
    assert convex.smoothed_losses[idx + 1] < convex.smoothed_losses[idx]
    announce(capsys, "ACCEPTANCE 10 PASS: one-cycle anchors exact; range "
                     "test geometric and suggestion in the descending region")
