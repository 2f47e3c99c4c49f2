import hashlib
from pathlib import Path

import numpy as np
import pytest

from pageseq import cli
from pageseq.checkpoint import load_checkpoint
from pageseq.corpus import iter_pages
from pageseq.iob import CLASSES
from pageseq.synth import SynthConfig, generate_synthetic
from pageseq.text import Vocab
from pageseq.textcnn import (TextCnn, TextCnnConfig, encode_pages,
                             evaluate_text_cnn, train_text_cnn)

TINY = TextCnnConfig(max_tokens=20, embed_dim=8, filters_per_size=4,
                     kernel_sizes=(3, 4, 5), blocks=2, pool_size=2,
                     final_pool_out_len=3, fc_hidden=16)


def test_paper_scale_flatten_dimension():
    config = TextCnnConfig()
    assert config.block_channels == 768
    assert config.flatten_dim == 3840


def test_extract_embedding_shape():
    model = TextCnn(vocab_size=50, config=TINY)
    ids = np.zeros((4, TINY.max_tokens), dtype=np.int64)
    emb = model.extract_embedding(ids)
    assert emb.shape == (4, TINY.flatten_dim)


def test_initial_loss_near_uniform():
    """Small-init output head keeps the initial loss near ln(6)."""
    from pageseq.losses import cross_entropy
    model = TextCnn(vocab_size=80, config=TINY)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 80, size=(16, TINY.max_tokens))
    logits = model.forward(ids, train=False)
    loss, _ = cross_entropy(logits, rng.integers(0, 6, size=16))
    assert abs(loss - np.log(6.0)) < 0.05


def test_forward_rejects_wrong_length():
    model = TextCnn(vocab_size=10, config=TINY)
    with pytest.raises(ValueError):
        model.forward(np.zeros((2, 7), dtype=np.int64))


def test_same_seed_same_model():
    a = TextCnn(vocab_size=30, config=TINY, seed=3)
    b = TextCnn(vocab_size=30, config=TINY, seed=3)
    for name, pa in a.named_params().items():
        np.testing.assert_array_equal(pa, b.named_params()[name])


def test_predict_probs_rows_sum_to_one():
    model = TextCnn(vocab_size=30, config=TINY)
    ids = np.zeros((3, TINY.max_tokens), dtype=np.int64)
    probs = model.predict_probs(ids)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_encode_pages_missing_text_is_padding():
    corpus = generate_synthetic(SynthConfig(n_lawsuits=10, seed=2))
    pages = list(iter_pages(corpus, "train"))
    vocab = Vocab.build([p.text_tokens or [] for p in pages])
    ids = encode_pages(pages, vocab, 20)
    for row, page in zip(ids, pages):
        if page.text_tokens is None:
            assert np.all(row == 0)


def test_train_text_cnn_end_to_end():
    corpus = generate_synthetic(SynthConfig(n_lawsuits=20, seed=4))
    model, vocab, _, log = train_text_cnn(corpus, TINY, weighted=False,
                                          seed=0, epochs=2)
    assert len(log.rows) == 2
    test_pages = list(iter_pages(corpus, "test"))
    ids = encode_pages(test_pages, vocab, TINY.max_tokens)
    report = evaluate_text_cnn(model, ids, [p.label for p in test_pages])
    assert 0.0 <= report.macro_f1 <= 1.0


def test_train_text_cnn_weighted_requires_all_classes():
    corpus = generate_synthetic(SynthConfig(n_lawsuits=20, seed=4))
    # delete every training page of one class
    for lawsuit in corpus["train"]:
        lawsuit.pages = [p for p in lawsuit.pages if p.label != "Despacho"]
        for i, p in enumerate(lawsuit.pages):
            p.page_index = i
    corpus["train"] = [l for l in corpus["train"] if l.pages]
    with pytest.raises(ValueError, match="Despacho"):
        train_text_cnn(corpus, TINY, weighted=True, epochs=1)


def test_training_deterministic():
    corpus = generate_synthetic(SynthConfig(n_lawsuits=12, seed=6))
    m1, _, _, log1 = train_text_cnn(corpus, TINY, weighted=False, seed=1,
                                    epochs=1)
    m2, _, _, log2 = train_text_cnn(corpus, TINY, weighted=False, seed=1,
                                    epochs=1)
    assert log1.rows[0].train_loss == log2.rows[0].train_loss
    for name, p1 in m1.named_params().items():
        np.testing.assert_array_equal(p1, m2.named_params()[name])


def test_checkpoint_with_one_conv_per_kernel_size_loads():
    """``data/textcnn_per_kernel.ckpt`` was written by pageseq at c0acf5a,
    when each kernel size had a Conv1d of its own and the config held a
    class count, with the logits that model gave: restored through the
    CLI, its parameter names and shapes load as they are, and the
    one-GEMM trunk reproduces the logits within float32 rounding."""
    path = Path(__file__).parent / "data" / "textcnn_per_kernel.ckpt"
    params, meta = load_checkpoint(path)
    assert meta["config"]["classes"] == len(CLASSES)
    rows = len(params["embedding.weight"])
    vocab = Vocab([f"t{i}" for i in range(rows - 2)])  # and pad, unknown
    model = cli._restore(path, params, meta, cli.FAMILIES[meta["model"]],
                         vocab)
    logits = model.forward(np.array(meta["ids"]), train=False)
    np.testing.assert_allclose(logits, np.float32(meta["logits"]),
                               rtol=0, atol=1e-6)
    # and, bit for bit, the logits of d77219d, whose eval forward still
    # filled every layer's cache and normalised out of place (x86-64,
    # one BLAS thread)
    assert hashlib.sha256(logits.tobytes()).hexdigest() == \
        "19d297a6b35081cc098bf42be6203a7c914efc904cd24c816b724128df2d494c"
