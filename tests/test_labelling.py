"""Each family's labeller against a reference loop kept here: one
``predict_probs`` row per page for the page families, one ``decode`` per
lawsuit for the sequence families.  The labellers batch pages and the
CLI builds their inputs, so both must give the reference's labels."""

import tracemalloc

import numpy as np
import pytest

from pageseq import cli, training
from pageseq.corpus import iter_pages
from pageseq.crf import CrfModel
from pageseq.experiments import (evaluate_unimodal_mlp,
                                 fm_probability_sequences, seq_dataset)
from pageseq.fusion import (FusionConfig, FusionModule, MlpClassifier,
                            embedding_arrays)
from pageseq.iob import CLASSES, IOB_TAGS, iob_encode
from pageseq.metrics import score, score_collapsed
from pageseq.seqmodels import (VARIANTS, SeqModel, SeqModelConfig,
                               evaluate_seq, label_lawsuits)
from pageseq.synth import SynthConfig, generate_synthetic
from pageseq.text import Vocab
from pageseq.textcnn import TextCnn, TextCnnConfig, encode_pages
from pageseq.training import BATCH, label_pages

TINY_CNN = TextCnnConfig(max_tokens=16, embed_dim=4, filters_per_size=2,
                         kernel_sizes=(3,), blocks=1, pool_size=2,
                         final_pool_out_len=2, fc_hidden=4)


def _perturbed(model, seed):
    """``model`` with every state entry a random draw, as a trained one's
    would be."""
    gen = np.random.default_rng(seed)
    for name, value in model.state_dict().items():
        draw = gen.standard_normal(value.shape)
        value[...] = np.abs(draw) + 0.5 if name.endswith("running_var") \
            else draw
    return model


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SynthConfig(n_lawsuits=10, seed=4, text_dim=16,
                                          image_dim=12,
                                          missing_image_rate=0.2))


@pytest.fixture(scope="module")
def fm():
    return _perturbed(FusionModule(FusionConfig(text_dim=16, image_dim=12,
                                                hidden=8)), 1)


def _reference_page_tags(model, inputs, pages):
    labels = [CLASSES[int(model.predict_probs(
        *(a[i:i + 1] for a in inputs)).argmax())] for i in range(len(pages))]
    return labels, iob_encode(labels, [p.is_first_page for p in pages])


@pytest.mark.parametrize("split", ["train", "test"])
def test_text_cnn_labeller_matches_one_row_per_page(corpus, split,
                                                    monkeypatch):
    monkeypatch.setattr(training, "BATCH", 3)  # several blocks, a short last
    pages = list(iter_pages(corpus, split))
    vocab = Vocab.build([p.text_tokens for p in pages if p.text_tokens])
    model = _perturbed(TextCnn(len(vocab), TINY_CNN), 2)
    ids = encode_pages(pages, vocab, TINY_CNN.max_tokens)
    labels, tags = _reference_page_tags(model, [ids], pages)
    assert label_pages(model, [ids]) == labels
    assert cli.FAMILIES["textcnn"].predict(model, vocab, corpus, split) == tags


@pytest.mark.parametrize("split", ["train", "test"])
def test_fusion_labeller_matches_one_row_per_page(corpus, fm, split,
                                                  monkeypatch):
    monkeypatch.setattr(training, "BATCH", 3)  # several blocks, a short last
    pages = list(iter_pages(corpus, split))
    inputs = embedding_arrays(pages, 16, 12)[:4]
    labels, tags = _reference_page_tags(fm, inputs, pages)
    assert label_pages(fm, inputs) == labels
    assert cli.FAMILIES["fusion"].predict(fm, None, corpus, split) == tags


def test_image_mlp_labeller_matches_one_row_per_page(corpus):
    model = _perturbed(MlpClassifier(12, 8), 3)
    pages = list(iter_pages(corpus, "train"))
    preds = [CLASSES[3] if p.image_embedding is None else
             CLASSES[int(model.predict_probs(
                 p.image_embedding[None, :].astype(np.float32)).argmax())]
             for p in pages]
    assert any(p.image_embedding is None for p in pages)
    want = score([p.label for p in pages], preds, CLASSES)
    got = evaluate_unimodal_mlp(model, corpus, "image", split="train")
    assert got.to_dict() == want.to_dict()


def _reference_lawsuit_tags(decode, lawsuit_set):
    return [IOB_TAGS[i] for x, _ in lawsuit_set for i in decode(x)]


@pytest.mark.parametrize("split", ["train", "test"])
def test_crf_labeller_matches_one_decode_per_lawsuit(corpus, fm, split):
    model = _perturbed(CrfModel(len(IOB_TAGS), len(CLASSES)), 4)
    lawsuits = fm_probability_sequences(corpus, fm, split)
    tags = _reference_lawsuit_tags(lambda x: model.decode(x)[0], lawsuits)
    assert label_lawsuits(model.decode, lawsuits) == tags
    assert cli.FAMILIES["crf"].predict(model, fm, corpus, split) == tags


@pytest.mark.parametrize("variant", VARIANTS)
def test_bilstm_labeller_matches_one_decode_per_lawsuit(corpus, fm, variant):
    config = SeqModelConfig(variant=variant, input_dim=fm.config.hidden,
                            lstm_hidden=3, pre_fc=5)
    if config.fusion_input:
        config.input_dim = fm.config.concat_dim
    model = _perturbed(SeqModel(config), 5)
    lawsuits = seq_dataset(corpus, fm, "concat" if config.fusion_input
                           else "hidden")["train"]
    tags = _reference_lawsuit_tags(model.decode, lawsuits)
    assert label_lawsuits(model.decode, lawsuits) == tags
    assert cli.FAMILIES[variant].predict(model, fm, corpus, "train") == tags
    gold = [IOB_TAGS[i] for _, ids in lawsuits for i in ids]
    assert evaluate_seq(model.decode, lawsuits).to_dict() == \
        score_collapsed(gold, tags, CLASSES).to_dict()


def test_paper_shape_labelling_peaks_at_one_training_batch():
    """80 pages through the paper's text CNN go in two calls, 64 rows and
    16, so the peak of live arrays is that of a 64-row call (340 MiB
    measured; one 80-row call peaks at 422), and nothing stays after."""
    config = TextCnnConfig()
    model = TextCnn(5000, config)
    ids = np.random.default_rng(0).integers(0, 5000, (80, config.max_tokens))
    rows, predict_probs = [], model.predict_probs

    def counted(x):
        rows.append(len(x))
        return predict_probs(x)

    model.predict_probs = counted
    tracemalloc.start()
    try:
        labels = label_pages(model, [ids])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == [BATCH, 80 - BATCH]
    assert len(labels) == 80
    assert peak <= 360 * 2 ** 20, peak / 2 ** 20
    assert held < 2 ** 20, held / 2 ** 20
