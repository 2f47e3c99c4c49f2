"""End-to-end pipelines over a corpus: the model roster from the result
tables (majority, text CNN, image-only, fusion variants, FM+CRF, BiLSTM
labelers) trained and scored under one uniform protocol.

Every model is evaluated on every test page.  The text CNN sees an
all-padding token sequence for pages whose text is missing, which is
exactly the situation the fusion models are built to handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import crf as crf_ops
from .checkpoint import BestCheckpointKeeper, params_digest
from .corpus import iter_pages
from .fusion import (FusionConfig, FusionModule, MajorityBaseline,
                     MlpClassifier, corpus_embedding_dims, embedding_arrays,
                     evaluate_fusion, train_fusion)
from .iob import CLASS_TO_ID, CLASSES, IOB_TAGS
from .metrics import MetricsReport, score, score_by_first_page
from .seqmodels import (SeqModelConfig, evaluate_seq, lawsuit_tag_ids,
                        train_seq)
from .synth import SynthConfig, generate_synthetic
from .tensor import RngState
from .textcnn import (TextCnnConfig, encode_pages, evaluate_text_cnn,
                      train_text_cnn)
from .training import BATCH, classifier_loss, fit, label_pages

# desk-scale hyperparameters used by the synthetic experiments
SMALL_TEXT_CNN = TextCnnConfig(max_tokens=60, embed_dim=32, filters_per_size=32,
                               kernel_sizes=(3, 4, 5), blocks=2, pool_size=2,
                               final_pool_out_len=4, fc_hidden=64)
# the roster's epochs of the text CNN, the fusion modules and BiLSTM-F
TEXT_EPOCHS, FM_EPOCHS, SEQ_EPOCHS = 5, 12, 8
FM_CRF_L2 = 1e-4  # the FM+CRF's L2 penalty on every parameter


def concat_features(pages, fm: FusionModule):
    """Concatenated text+image embeddings with the FM's missing vectors."""
    c = fm.config
    x = fm.concat(*embedding_arrays(pages, c.text_dim, c.image_dim)[:4])
    return x.astype(np.float32, copy=False)


def _fm_sequences(lawsuits, fm: FusionModule, features, dtype):
    """Per lawsuit: ``features`` (``fm.concat``, ``fm.hidden`` or
    ``fm.predict_probs``) of its pages as ``dtype``, and its IOB tag ids."""
    c = fm.config
    items = []
    for lawsuit in lawsuits:
        arrays = embedding_arrays(lawsuit.pages, c.text_dim, c.image_dim)
        items.append((features(*arrays[:4]).astype(dtype, copy=False),
                      lawsuit_tag_ids(lawsuit)))
    return items


def seq_dataset(corpus, fm: FusionModule, kind: str):
    """Per-split lists of (features, gold IOB tag ids) for sequence models.

    ``kind`` is "hidden" (FM first-FC activations) or "concat"
    (text+image embeddings with FM missing substitution).
    """
    features = {"concat": fm.concat, "hidden": fm.hidden}.get(kind)
    if features is None:
        raise ValueError(f"unknown kind {kind!r}")
    return {split: _fm_sequences(corpus[split], fm, features, np.float32)
            for split in corpus}


def fm_probability_sequences(corpus, fm: FusionModule, split):
    """Per-lawsuit FM softmax outputs (T, 6) plus IOB tag ids."""
    return _fm_sequences(corpus[split], fm, fm.predict_probs, np.float64)


def train_fm_crf(corpus, fm: FusionModule, epochs=80, max_lr=0.08, seed=0,
                 batch_size=256, out_path=None, verbose=False):
    """CRF over FM prediction vectors; 12 IOB tags, 6-dim features, at
    the constant rate ``max_lr`` on ``batch_size`` train lawsuits per
    step: the roster's whole split, and bounded memory on a larger one.
    Only with ``out_path`` is each epoch validated and the best kept,
    there and in the model; naming ``fm`` by digest, not path, a run
    writes that file byte for byte from any directory.  Returns (model, log).
    """
    validation = {}
    if out_path is not None:
        val_seqs = fm_probability_sequences(corpus, fm, "validation")
        meta = {"model": "crf", "seed": seed,
                "fm_digest": params_digest(fm.state_dict()),
                "config": {"n_tags": len(IOB_TAGS),
                           "n_features": len(CLASSES)}}
        validation = {"keeper": BestCheckpointKeeper(out_path, meta),
                      "evaluate": lambda m: evaluate_seq(m.decode, val_seqs)}
    return crf_ops.train_crf(
        fm_probability_sequences(corpus, fm, "train"), n_tags=len(IOB_TAGS),
        epochs=epochs, lr=max_lr, l2=FM_CRF_L2, batch_size=batch_size,
        seed=seed, verbose=verbose, **validation)


def train_unimodal_mlp(corpus, modality, hidden=64, seed=0, epochs=10,
                       batch_size=BATCH, max_lr=5e-3):
    """Embedding-only classifier on one modality, skipping absent pages."""
    attr = f"{modality}_embedding"
    train_pages = [p for p in iter_pages(corpus, "train")
                   if getattr(p, attr) is not None]
    if not train_pages:
        raise ValueError(f"no training pages with {modality} embeddings")
    dim = len(getattr(train_pages[0], attr))
    x = np.stack([getattr(p, attr) for p in train_pages]).astype(np.float32)
    y = np.array([CLASS_TO_ID[p.label] for p in train_pages])
    model = MlpClassifier(dim, hidden, seed=seed)
    fit(model, len(x), classifier_loss(model, [x], y),
        RngState(seed).consumer("mlp-shuffle"), epochs, batch_size, max_lr)
    return model


def evaluate_unimodal_mlp(model, corpus, modality,
                          split="test") -> MetricsReport:
    """Pages without the modality get the train split's majority class."""
    pages = list(iter_pages(corpus, split))
    embs = [getattr(p, f"{modality}_embedding") for p in pages]
    labels = iter(label_pages(model, [np.array(
        [e for e in embs if e is not None], dtype=np.float32)]))
    majority = MajorityBaseline(p.label for p in iter_pages(corpus, "train"))
    preds = [majority.majority_class if e is None else next(labels)
             for e in embs]
    return score([p.label for p in pages], preds, CLASSES)


@dataclass
class OrderingResult:
    """Macro-F1 roster plus the detailed reports for one experiment run."""

    macro: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    first_page: tuple | None = None

    def add(self, name, report):
        self.reports[name] = report
        self.macro[name] = report.macro_f1


def run_ordering_experiment(synth_config: SynthConfig, train_seed=0,
                            with_zero_variant=False) -> OrderingResult:
    """Trains the model roster on one synthetic corpus and scores the
    test split under the uniform all-pages protocol."""
    corpus = generate_synthetic(synth_config)
    result = OrderingResult()
    test_pages = list(iter_pages(corpus, "test"))
    test_gold = [p.label for p in test_pages]

    majority = MajorityBaseline([p.label for p in iter_pages(corpus, "train")])
    result.add("majority", score(
        test_gold, [majority.majority_class] * len(test_pages), CLASSES))

    cnn, vocab, _, _ = train_text_cnn(corpus, SMALL_TEXT_CNN, weighted=False,
                                      seed=train_seed, epochs=TEXT_EPOCHS)
    ids = encode_pages(test_pages, vocab, SMALL_TEXT_CNN.max_tokens)
    result.add("textcnn", evaluate_text_cnn(cnn, ids, test_gold))

    image_mlp = train_unimodal_mlp(corpus, "image", seed=train_seed)
    result.add("image_only", evaluate_unimodal_mlp(image_mlp, corpus, "image"))

    text_dim, image_dim = corpus_embedding_dims(corpus)
    fm_config = FusionConfig(text_dim=text_dim, image_dim=image_dim, hidden=128)
    fm, _, _ = train_fusion(corpus, fm_config, seed=train_seed,
                            epochs=FM_EPOCHS)
    test_data = embedding_arrays(test_pages, text_dim, image_dim)
    fm_preds = label_pages(fm, test_data[:4])
    result.add("fm", score(test_gold, fm_preds, CLASSES))
    # the w/o-img-acts ablation (no page's image mask set) needs text, so
    # it and its FM reference are scored on the text-present test pages
    text_pages = [p for p in test_pages if p.text_embedding is not None]
    text_subset = embedding_arrays(text_pages, text_dim, image_dim)
    text_subset_gold = [p.label for p in text_pages]
    result.add("fm_text_subset",
               evaluate_fusion(fm, text_subset, text_subset_gold))
    no_image = np.zeros_like(text_subset[3])
    result.add("fm_no_img", evaluate_fusion(
        fm, (*text_subset[:3], no_image), text_subset_gold))

    if with_zero_variant:
        zero_config = FusionConfig(text_dim=text_dim, image_dim=image_dim,
                                   hidden=128, missing_mode="zero")
        fm_zero, _, _ = train_fusion(corpus, zero_config, seed=train_seed,
                                     epochs=FM_EPOCHS)
        result.add("fm_zero", evaluate_fusion(fm_zero, test_data, test_gold))

    crf_model, _ = train_fm_crf(corpus, fm)
    result.add("fm_crf", evaluate_seq(
        crf_model.decode, fm_probability_sequences(corpus, fm, "test")))

    seq_data = seq_dataset(corpus, fm, "concat")
    seq_config = SeqModelConfig(variant="bilstm-f",
                                input_dim=fm.config.concat_dim)
    seq_model, _, _ = train_seq(seq_data, seq_config, seed=train_seed,
                                epochs=SEQ_EPOCHS)
    result.add("bilstm_f", evaluate_seq(seq_model.decode, seq_data["test"]))

    result.first_page = score_by_first_page(
        test_gold, fm_preds, [p.is_first_page for p in test_pages], CLASSES)
    return result
