"""The benchmark saves and restores its predict-long models through the
surface of ``FusionModule``, ``CrfModel`` and ``SeqModel`` (``params``,
``n_tags``, ``n_features``, ``state_dict``, ``decode``); a change to that
surface must fail here, not only in the benchmark.  Its request loop
labels lawsuits through those calls, and must give the labels of the
families' labellers, which ``eval`` and ``predict`` use."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

from pageseq import cli, crf, fusion, seqmodels, textcnn
from pageseq.iob import CLASSES, IOB_TAGS, iob_collapse
from pageseq.synth import SynthConfig, generate_synthetic
from pageseq.text import Vocab

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while it executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def _perturb(state, gen):
    """Every entry a random draw, as a trained checkpoint's would be."""
    for name, value in state.items():
        draw = gen.standard_normal(value.shape) * 0.5
        if name.endswith("running_var"):
            draw = np.abs(draw) + 0.5
        value[...] = draw


def _sequence_models(corpus):
    """Tiny FM, FM+CRF and BiLSTM-F with random parameters."""
    text_dim, image_dim = fusion.corpus_embedding_dims(corpus)
    fm = fusion.FusionModule(fusion.FusionConfig(
        text_dim=text_dim, image_dim=image_dim, hidden=8), seed=1)
    crf_model = crf.CrfModel(n_tags=len(IOB_TAGS), n_features=len(CLASSES))
    seq_model = seqmodels.SeqModel(seqmodels.SeqModelConfig(
        variant="bilstm-f", input_dim=fm.config.concat_dim, lstm_hidden=3,
        pre_fc=5), seed=1)
    gen = np.random.default_rng(3)
    for model in (fm, crf_model, seq_model):
        _perturb(model.state_dict(), gen)
    return fm, crf_model, seq_model


def test_fixture_round_trips_and_labels_alike(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    corpus = generate_synthetic(SynthConfig(n_lawsuits=3, seed=2))
    models = _sequence_models(corpus)
    workloads.save_fixture(models, tmp_path)
    loaded = workloads.load_sequence_models(tmp_path)
    assert workloads.sequence_digest(loaded) == \
        workloads.sequence_digest(models)
    lawsuit = next(lawsuit for split in corpus.values() for lawsuit in split)
    labels = workloads.label_sequence(loaded, lawsuit)
    assert labels == workloads.label_sequence(models, lawsuit)
    assert len(labels["crf"]) == len(lawsuit.pages)


def test_benchmark_labels_are_the_family_labellers(monkeypatch):
    """``label_sequence`` and ``label_text`` give each page the label that
    the CLI's family labellers give it."""
    workloads = _workloads(monkeypatch)
    corpus = generate_synthetic(SynthConfig(n_lawsuits=4, seed=2))
    fm, crf_model, seq_model = models = _sequence_models(corpus)
    lawsuits = [lawsuit for split in corpus.values() for lawsuit in split]
    vocab = Vocab.build([p.text_tokens for lawsuit in lawsuits
                         for p in lawsuit.pages if p.text_tokens])
    cnn = textcnn.TextCnn(len(vocab), dataclasses.replace(
        workloads.TEXT_CNN, embed_dim=4, filters_per_size=2, fc_hidden=4),
        seed=1)
    _perturb(cnn.state_dict(), np.random.default_rng(4))
    labelled = set()
    for lawsuit in lawsuits:
        one = {"request": [lawsuit]}

        def family(name, model, aux):
            return cli.FAMILIES[name].predict(model, aux, one, "request")

        bench = workloads.label_sequence(models, lawsuit)
        bench.update(workloads.label_text((cnn, vocab), lawsuit))
        assert [CLASSES[i] for i in bench["fusion"]] == \
            iob_collapse(family("fusion", fm, None))
        assert [CLASSES[i] for i in bench["textcnn"]] == \
            iob_collapse(family("textcnn", cnn, vocab))
        assert [IOB_TAGS[i] for i in bench["crf"]] == \
            family("crf", crf_model, fm)
        assert [IOB_TAGS[i] for i in bench["seqmodels"]] == \
            family("bilstm-f", seq_model, fm)
        labelled.update(bench["fusion"])
    assert len(labelled) > 1


def test_training_stages_run_and_label_at_tiny_sizes(tmp_path, monkeypatch):
    """``sequence_stages`` (seq-train, and the predict-long fixture) and
    ``CnnTrain.train`` (cnn-train) call the trainers and unpack what they
    return; a change to a trainer's keywords or return must fail here,
    not only in the benchmark.  Each trains at ``TINY`` sizes, keeps its
    best checkpoints, and its models label one request."""
    workloads = _workloads(monkeypatch)
    sizes = workloads.TINY
    corpus, _, _ = workloads.sequence_corpus(1, sizes, sizes.test,
                                             tmp_path / "seq_corpus")
    stages = list(workloads.sequence_stages(corpus, sizes, tmp_path / "seq"))
    assert [s.name for s in stages] == ["fusion", "crf", "seqmodels"]
    assert (tmp_path / "seq" / "fm.ckpt").exists()
    assert (tmp_path / "seq" / "seq.ckpt").exists()
    lawsuit = corpus["test"][0]
    labels = workloads.label_sequence(stages[-1].models, lawsuit)
    assert {family: len(ids) for family, ids in labels.items()} == \
        dict.fromkeys(("fusion", "crf", "seqmodels"), len(lawsuit.pages))

    cnn = workloads.CnnTrain(sizes)
    setup = cnn.setup(1, tmp_path / "cnn_corpus")
    [stage] = cnn.train(setup, tmp_path / "cnn")
    assert stage.name == "textcnn" and stage.epochs == sizes.text_epochs
    assert (tmp_path / "cnn" / "textcnn.ckpt").exists()
    lawsuit = setup.requests[0]
    labels = workloads.label_text(stage.models, lawsuit)
    assert len(labels["textcnn"]) == len(lawsuit.pages)
