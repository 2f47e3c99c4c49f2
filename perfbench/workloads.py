"""The benchmark's three workloads, driven through the public functions
of the ``pageseq`` modules.

- ``cnn-train`` trains the text CNN (the acceptance roster's
  ``SMALL_TEXT_CNN``) and labels the test split with it.
- ``seq-train`` trains the roster's sequence pipeline (FM, then FM+CRF,
  then BiLSTM-F) on precomputed embeddings and labels the test split.
- ``predict-long`` labels lawsuits several times the default length with
  FM, FM+CRF and BiLSTM-F checkpoints that a seeded fixture trained in
  another process.

One request labels one lawsuit.  Modules are reached through their
attributes at call time (``textcnn.train_text_cnn``), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from pageseq import (checkpoint, corpus as corpus_io, crf, experiments,
                     fusion, iob, metrics, seqmodels, synth, textcnn)
from pageseq.iob import CLASSES, IOB_TAGS

TEXT_CNN = experiments.SMALL_TEXT_CNN
FM_HIDDEN = 128  # the roster's FM width
BATCH = 64  # train_text_cnn and train_fusion default mini-batch
SEQ_BATCH = 8  # train_seq default lawsuits per mini-batch


@dataclass(frozen=True)
class Sizes:
    """Lawsuit counts per split, and epochs per model."""

    cnn_train: int  # cnn-train's train split
    seq_train: int  # seq-train's train split, and the fixture's
    validation: int
    test: int  # lawsuits labelled per pass; >= 100 for a 90th percentile
    text_epochs: int
    fm_epochs: int
    crf_epochs: int
    seq_epochs: int
    request_docs: float  # documents per predict-long lawsuit, on average


# The roster's epochs.  Each stage's work is linear in the train split,
# so seq-train's stages take about the roster's shares of its time on
# a seventh of its 210 train lawsuits.
FULL = Sizes(cnn_train=42, seq_train=28, validation=8, test=100,
             text_epochs=5, fm_epochs=12, crf_epochs=80, seq_epochs=8,
             request_docs=30.0)
TINY = Sizes(cnn_train=6, seq_train=6, validation=2, test=2, text_epochs=1,
             fm_epochs=1, crf_epochs=2, seq_epochs=2, request_docs=6.0)


def corpus_config(seed, train, validation, test) -> synth.SynthConfig:
    """Default-shape corpus with the given lawsuit count per split."""
    n = train + validation + test
    return synth.SynthConfig(seed=seed, n_lawsuits=n,
                             split_fractions=(train / n, validation / n,
                                              test / n))


@dataclass
class Stage:
    """One training call, timed by the generator that makes it."""

    name: str
    seconds: float
    page_epochs: int  # pages trained on, times epochs
    steps: int  # optimizer steps
    epochs: int  # of a loop that keeps a best checkpoint; else 0
    models: tuple | None = None  # on the last stage: what labels requests


def synthesize(config: synth.SynthConfig, directory):
    """Seeded corpus, written to disk and read back as a run would."""
    corpus = synth.generate_synthetic(config)
    corpus_io.save_corpus(corpus, directory)
    return corpus_io.load_corpus(directory)


def fm_train_pages(corpus):
    return sum(len(lawsuit.pages) for lawsuit in corpus["train"])


def sequence_corpus(seed, sizes: Sizes, test, directory):
    """Corpus for FM training.

    ``train_fusion`` raises when its last mini-batch holds one page
    (BatchNorm1d needs two rows in train mode), so a corpus whose train
    split has 1 (mod BATCH) pages is drawn again from the next derived
    seed.  The redraw count is returned so that the run reports it.
    """
    for redraw in range(8):
        config = corpus_config(seed + 1_000_003 * redraw, sizes.seq_train,
                               sizes.validation, test)
        corpus = synthesize(config, directory)
        if fm_train_pages(corpus) % BATCH != 1:
            return corpus, config.seed, redraw
    raise RuntimeError(f"seed {seed}: no usable corpus in 8 draws")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def state_digest(state: dict) -> str:
    return digest(*(state[k] for k in sorted(state)))


def sequence_stages(corpus, sizes: Sizes, directory):
    """Yields the FM, FM+CRF (over FM probabilities) and BiLSTM-F stages."""
    directory.mkdir(parents=True, exist_ok=True)
    pages, lawsuits = fm_train_pages(corpus), len(corpus["train"])
    start = time.perf_counter()
    text_dim, image_dim = fusion.corpus_embedding_dims(corpus)
    fm_config = fusion.FusionConfig(text_dim=text_dim, image_dim=image_dim,
                                    hidden=FM_HIDDEN)
    fm, _, _ = fusion.train_fusion(corpus, fm_config, seed=0,
                                   epochs=sizes.fm_epochs,
                                   out_path=directory / "fm.ckpt")
    yield Stage("fusion", time.perf_counter() - start,
                pages * sizes.fm_epochs,
                math.ceil(pages / BATCH) * sizes.fm_epochs, sizes.fm_epochs)
    start = time.perf_counter()
    crf_model, _ = experiments.train_fm_crf(corpus, fm,
                                            epochs=sizes.crf_epochs)
    # full-batch: one step per epoch
    yield Stage("crf", time.perf_counter() - start, pages * sizes.crf_epochs,
                sizes.crf_epochs, 0)
    start = time.perf_counter()
    data = experiments.seq_dataset(corpus, fm, "concat")
    seq_config = seqmodels.SeqModelConfig(variant="bilstm-f",
                                          input_dim=fm_config.concat_dim)
    seq_model, _, _ = seqmodels.train_seq(data, seq_config, seed=0,
                                          epochs=sizes.seq_epochs,
                                          out_path=directory / "seq.ckpt")
    yield Stage("seqmodels", time.perf_counter() - start,
                pages * sizes.seq_epochs,
                math.ceil(lawsuits / SEQ_BATCH) * sizes.seq_epochs,
                sizes.seq_epochs, models=(fm, crf_model, seq_model))


def sequence_digest(models) -> str:
    fm, crf_model, seq_model = models
    return state_digest({**fm.state_dict(),
                         **{f"crf.{k}": v for k, v in crf_model.params.items()},
                         **{f"seq.{k}": v
                            for k, v in seq_model.state_dict().items()}})


def label_sequence(models, lawsuit):
    """One request: FM, FM+CRF (Viterbi) and BiLSTM-F on one lawsuit."""
    fm, crf_model, seq_model = models
    [(probs, _)] = experiments.fm_probability_sequences(
        {"request": [lawsuit]}, fm, "request")
    crf_path, _ = crf_model.decode(probs)
    features = experiments.concat_features(lawsuit.pages, fm)
    return {"fusion": probs.argmax(axis=1).tolist(), "crf": crf_path,
            "seqmodels": seq_model.decode(features)}


def label_text(models, lawsuit):
    """One request: the text CNN on one lawsuit."""
    model, vocab = models
    ids = textcnn.encode_pages(lawsuit.pages, vocab, TEXT_CNN.max_tokens)
    return {"textcnn": model.predict_probs(ids).argmax(axis=1).tolist()}


@dataclass
class Setup:
    requests: list  # lawsuits to label, one request each
    baseline_labels: list  # labels the majority baseline is fit on
    corpus: dict | None = None  # training corpus
    models: tuple | None = None  # loaded checkpoints (predict-long)
    redraws: int = 0


class CnnTrain:
    name = "cnn-train"
    trains = True
    headline = "textcnn"
    families = ("textcnn",)
    label = staticmethod(label_text)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed, directory, fixture=None) -> Setup:
        sizes = self.sizes
        corpus = synthesize(corpus_config(seed, sizes.cnn_train,
                                          sizes.validation, sizes.test),
                            directory)
        return Setup(requests=corpus["test"], corpus=corpus,
                     baseline_labels=[p.label for p in
                                      corpus_io.iter_pages(corpus, "train")])

    def train(self, setup: Setup, directory):
        """Yields the one training stage."""
        epochs = self.sizes.text_epochs
        directory.mkdir(parents=True, exist_ok=True)
        # train_text_cnn skips pages without text
        pages = sum(1 for p in corpus_io.iter_pages(setup.corpus, "train")
                    if p.text_tokens)
        start = time.perf_counter()
        model, vocab, _, _ = textcnn.train_text_cnn(
            setup.corpus, TEXT_CNN, weighted=False, seed=0, epochs=epochs,
            out_path=directory / "textcnn.ckpt")
        yield Stage("textcnn", time.perf_counter() - start, pages * epochs,
                    math.ceil(pages / BATCH) * epochs, epochs,
                    models=(model, vocab))

    @staticmethod
    def model_digest(models) -> str:
        return state_digest(models[0].state_dict())


class SeqTrain:
    name = "seq-train"
    trains = True
    headline = "crf"
    families = ("fusion", "crf", "seqmodels")
    label = staticmethod(label_sequence)
    model_digest = staticmethod(sequence_digest)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed, directory, fixture=None) -> Setup:
        corpus, _, redraws = sequence_corpus(seed, self.sizes,
                                             self.sizes.test, directory)
        return Setup(requests=corpus["test"], corpus=corpus, redraws=redraws,
                     baseline_labels=[p.label for p in
                                      corpus_io.iter_pages(corpus, "train")])

    def train(self, setup: Setup, directory):
        return sequence_stages(setup.corpus, self.sizes, directory)


FM_CKPT, CRF_CKPT, SEQ_CKPT = "fm.ckpt", "crf.ckpt", "seq.ckpt"


@dataclass
class Fixture:
    """Checkpoints trained for predict-long, and what trained them."""

    directory: object  # holds FM_CKPT, CRF_CKPT and SEQ_CKPT
    seed: int  # of the corpus the checkpoints were trained on
    train_pages_per_s: float


def save_fixture(models, directory):
    fm, crf_model, seq_model = models
    checkpoint.save_checkpoint(
        directory / FM_CKPT, fm.state_dict(),
        {"model": "fusion", "config": dataclasses.asdict(fm.config)})
    checkpoint.save_checkpoint(
        directory / CRF_CKPT, crf_model.params,
        {"model": "crf", "config": {"n_tags": crf_model.n_tags,
                                    "n_features": crf_model.n_features}})
    checkpoint.save_checkpoint(
        directory / SEQ_CKPT, seq_model.state_dict(),
        {"model": "bilstm-f",
         "config": dataclasses.asdict(seq_model.config)})


def load_sequence_models(directory):
    params, meta = checkpoint.load_checkpoint(directory / FM_CKPT)
    fm = fusion.FusionModule(fusion.FusionConfig(**meta["config"]))
    fm.load_state(params)
    params, meta = checkpoint.load_checkpoint(directory / CRF_CKPT)
    crf_model = crf.CrfModel(**meta["config"])
    for name, value in crf_model.params.items():
        value[...] = params[name]
    params, meta = checkpoint.load_checkpoint(directory / SEQ_CKPT)
    seq_model = seqmodels.SeqModel(seqmodels.SeqModelConfig(**meta["config"]))
    seq_model.load_state(params)
    return fm, crf_model, seq_model


class PredictLong:
    name = "predict-long"
    trains = False
    headline = "crf"
    families = ("fusion", "crf", "seqmodels")
    label = staticmethod(label_sequence)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def train(self, setup: Setup, directory):
        """Nothing is trained in the timed phase."""
        return iter(())

    def setup(self, seed, directory, fixture=None) -> Setup:
        # the fixture corpus's seed gives the requests the class
        # prototypes that the checkpoints were trained on
        corpus = synthesize(synth.SynthConfig(
            seed=fixture.seed, n_lawsuits=self.sizes.test,
            docs_per_lawsuit_mean=self.sizes.request_docs), directory)
        requests = [lawsuit for split in corpus_io.SPLITS
                    for lawsuit in corpus[split]]
        return Setup(requests=requests,
                     models=load_sequence_models(fixture.directory),
                     baseline_labels=[p.label for lawsuit in requests
                                      for p in lawsuit.pages])


WORKLOADS = {w.name: w for w in (CnnTrain, SeqTrain, PredictLong)}


# ------------------------------------------------------------------ checks

def check_pass(workload, setup: Setup, outputs) -> tuple[dict, list]:
    """Scores one labelling pass and checks its outputs.

    Returns ({family: macro-F1}, [failure messages]).
    """
    failures = []
    gold, gold_tags = [], []
    for lawsuit in setup.requests:
        labels = lawsuit.labels()
        gold.extend(labels)
        gold_tags.extend(iob.iob_encode(labels, lawsuit.first_page_flags()))
    f1 = {}
    for family in workload.families:
        tagged = family in ("crf", "seqmodels")
        names = IOB_TAGS if tagged else CLASSES
        pred = []
        for lawsuit, out in zip(setup.requests, outputs):
            ids = out[family]
            if len(ids) != len(lawsuit.pages) or not all(
                    0 <= i < len(names) for i in ids):
                failures.append(f"{family}: lawsuit {lawsuit.id} does not get "
                                "exactly one valid label per page")
                ids = [0] * len(lawsuit.pages)
            pred.extend(names[i] for i in ids)
        if tagged:
            classes = iob.iob_collapse(pred)
            f1[family] = metrics.score_collapsed(gold_tags, pred,
                                                 CLASSES).macro_f1
            if metrics.score(gold, classes, CLASSES).macro_f1 != f1[family]:
                failures.append(f"{family}: B-/I- tags do not collapse to "
                                "the scored classes")
        else:
            f1[family] = metrics.score(gold, pred, CLASSES).macro_f1
    majority = fusion.MajorityBaseline(setup.baseline_labels)
    baseline = metrics.score(gold, [majority.majority_class] * len(gold),
                             CLASSES).macro_f1
    for family, value in f1.items():
        if not value > baseline:
            failures.append(f"{family} macro-F1 {value:.4f} does not beat "
                            f"the majority baseline {baseline:.4f}")
    # the paper's claim: a CRF over FM probabilities beats FM alone
    if "crf" in f1 and not f1["crf"] > f1["fusion"]:
        failures.append(f"FM+CRF macro-F1 {f1['crf']:.4f} does not beat "
                        f"FM alone ({f1['fusion']:.4f})")
    return f1, failures


def outputs_digest(outputs) -> str:
    return digest(*(np.asarray(out[family], dtype=np.int64)
                    for out in outputs for family in sorted(out)))
