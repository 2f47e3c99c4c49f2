"""Tracer coverage: every span is seen on the workload meant to exercise it
and reads zero calls on the workloads that bypass it.

    python3 -m pytest perfbench/test_tracer.py

Runs each workload once untraced and once traced, at tiny sizes.  Model
quality checks are not asserted here: tiny models need not beat the
majority baseline.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest

import run

run.import_package()

import workloads  # noqa: E402
from tracer import LAYER_SPANS, SPANS, Tracer, package_modules  # noqa: E402

SETUP_SPANS = {"synth.generate_synthetic", "corpus.save_corpus",
               "corpus.load_corpus"}
TEXT_SPANS = {s for s in LAYER_SPANS
              if s.split(".")[1] in ("Embedding", "Conv1d", "MaxPool1d",
                                     "AdaptiveMaxPool1d")}
TEXT_SPANS |= {"text.Vocab.build", "textcnn.encode_pages",
               "textcnn.train_text_cnn", "textcnn.evaluate_text_cnn"}
DENSE_SPANS = {s for s in LAYER_SPANS
               if s.split(".")[1] in ("BatchNorm1d", "Linear")}
SEQ_TRAIN_ONLY = {"crf.train_crf", "crf.nll_and_grad", "crf.forward_backward",
                  "lstm.LstmCell.backward", "seqmodels.train_seq",
                  "fusion.train_fusion", "fusion.FusionModule.backward"}
SEQ_LABEL = {"crf.viterbi_decode", "lstm.LstmCell.forward",
             "seqmodels.SeqModel.decode", "fusion.FusionModule.forward",
             "fusion.embedding_arrays", "experiments.concat_features",
             "experiments.fm_probability_sequences"}
TRAINING = {"optim.Adam.step", "checkpoint.save_checkpoint",
            "model_base.ModelBase.snapshot", "losses.cross_entropy"}

# span -> workloads on which it must run; it must read zero elsewhere
EXPECTED = {span: set() for span in SPANS}
for span in SETUP_SPANS:
    EXPECTED[span] = {"cnn-train", "seq-train", "predict-long"}
EXPECTED["checkpoint.load_checkpoint"] = {"predict-long"}
for span in TEXT_SPANS:
    EXPECTED[span] = {"cnn-train"}
for span in DENSE_SPANS:
    is_forward = span.endswith(".forward")
    EXPECTED[span] = {"cnn-train", "seq-train"} | (
        {"predict-long"} if is_forward else set())
for span in SEQ_TRAIN_ONLY:
    EXPECTED[span] = {"seq-train"}
for span in SEQ_LABEL:
    EXPECTED[span] = {"seq-train", "predict-long"}
for span in TRAINING:
    EXPECTED[span] = {"cnn-train", "seq-train"}
# validation scoring inside the train_* loops; the benchmark's own
# checks run untraced
EXPECTED["metrics.score"] = {"cnn-train", "seq-train"}
EXPECTED["metrics.score_collapsed"] = {"seq-train"}


@pytest.fixture(scope="module")
def traced():
    results = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = run.ROOT / ".perfbench_work"
        workdir.mkdir(exist_ok=True)
        workdir = run.Path(tempfile.mkdtemp(dir=workdir))
        try:
            fixture = None
            if name == "predict-long":
                run.fixture_main(workdir / "fixture", 3, workloads.TINY)
                fixture = run.read_fixture(workdir / "fixture")
            result = run.Run()
            metrics = run.trace(cls(workloads.TINY), 3, 0, workdir, fixture,
                                result)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        results[name] = (metrics, result.failures)
    return results


def test_every_span_is_expected_somewhere():
    assert all(EXPECTED[span] for span in SPANS)


@pytest.mark.parametrize("span", SPANS)
def test_span_runs_only_where_expected(traced, span):
    for name, (metrics, _) in traced.items():
        calls = metrics[f"{span}.calls"][0]
        if name in EXPECTED[span]:
            assert calls > 0, f"{span} never ran on {name}"
            assert metrics[f"{span}.self_s"][0] > 0
        else:
            assert calls == 0, f"{span} ran {calls} times on {name}"


def test_ratios_are_taken_where_the_work_happens(traced):
    cnn, seq, long = (traced[n][0] for n in
                      ("cnn-train", "seq-train", "predict-long"))
    assert 0 < cnn["textcnn.token_fill"][0] < 1
    assert seq["textcnn.token_fill"][0] == 0
    assert seq["crf.pages_per_call"][0] >= 2
    assert long["crf.pages_per_call"][0] == 0
    assert cnn["checkpoint.saves_per_epoch"][0] > 0
    assert seq["checkpoint.saves_per_epoch"][0] > 0
    assert long["checkpoint.saves_per_epoch"][0] == 0
    assert cnn["textcnn.macro_f1"][0] > 0 and cnn["crf.macro_f1"][0] == 0
    for family in ("fusion", "crf", "seqmodels"):
        assert long[f"{family}.macro_f1"][0] > 0


def test_tracing_does_not_change_results(traced):
    for name, (_, failures) in traced.items():
        assert not [m for m in failures
                    if "tracing" in m or "call counts" in m], name


def test_install_wraps_every_binding_and_uninstall_restores():
    from pageseq import experiments, fusion, metrics, textcnn
    score, arrays = metrics.score, fusion.embedding_arrays
    tracer = Tracer().install()
    try:
        for module in (metrics, textcnn, fusion, experiments):
            assert module.score is not score
            assert module.score.__wrapped__ is score
        assert experiments.embedding_arrays.__wrapped__ is arrays
        originals = {span.__wrapped__ for span in (metrics.score,
                                                    fusion.embedding_arrays)}
        for module in package_modules():
            assert not any(value in originals for value in vars(module).values()
                           if callable(value))
    finally:
        tracer.uninstall()
    for module in (metrics, textcnn, fusion, experiments):
        assert module.score is score
    assert experiments.embedding_arrays is arrays
