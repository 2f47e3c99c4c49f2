"""The benchmark saves and restores its predict-long models through the
surface of ``FusionModule``, ``CrfModel`` and ``SeqModel`` (``params``,
``n_tags``, ``n_features``, ``state_dict``, ``decode``); a change to that
surface must fail here, not only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from pageseq import crf, fusion, seqmodels
from pageseq.iob import CLASSES, IOB_TAGS
from pageseq.synth import SynthConfig, generate_synthetic

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


def test_fixture_round_trips_and_labels_alike(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    corpus = generate_synthetic(SynthConfig(n_lawsuits=3, seed=2))
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
    models = (fm, crf_model, seq_model)
    workloads.save_fixture(models, tmp_path)
    loaded = workloads.load_sequence_models(tmp_path)
    assert workloads.sequence_digest(loaded) == \
        workloads.sequence_digest(models)
    lawsuit = next(lawsuit for split in corpus.values() for lawsuit in split)
    labels = workloads.label_sequence(loaded, lawsuit)
    assert labels == workloads.label_sequence(models, lawsuit)
    assert len(labels["crf"]) == len(lawsuit.pages)
