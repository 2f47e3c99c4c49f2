"""Word-level CNN text classifier.

Serves two roles: a page-text classifier (with an optional
class-weighted loss variant) and the extractor of flatten-layer text
embeddings consumed by the fusion models.  Each convolutional block runs
three parallel filter sizes whose outputs are channel-concatenated, so
the paper-default configuration flattens to exactly 3,840 dimensions
(768 channels x adaptive pool length 5).

Activations run channels-last, (batch, length, ch), from the embedding
lookup to the adaptive pool; only the flatten reorders them, to
(ch, position), the feature order of ``fc1`` and of saved checkpoints.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checkpoint import BestCheckpointKeeper
from .corpus import iter_pages
from .iob import CLASS_TO_ID, CLASSES
from .layers import (AdaptiveMaxPool1d, BatchNorm1d, Conv1d, Dropout,
                     Embedding, Linear, MaxPool1d, ReLU)
from .losses import class_weights
from .model_base import ModelBase
from .metrics import score
from .runconfig import need
from .tensor import DEFAULT_DTYPE, RngState, softmax
from .text import Vocab, encode
from .training import BATCH, classifier_loss, fit, label_pages


@dataclass
class TextCnnConfig:
    max_tokens: int = 500
    embed_dim: int = 100
    filters_per_size: int = 256
    kernel_sizes: tuple = (3, 4, 5)
    blocks: int = 3
    pool_size: int = 2
    final_pool_out_len: int = 5
    fc_hidden: int = 256
    dropout: float = 0.5

    def __post_init__(self):
        """Raises ``ValueError`` naming the first field out of range."""
        for name in ("max_tokens", "embed_dim", "filters_per_size", "blocks",
                     "pool_size", "final_pool_out_len", "fc_hidden"):
            need(self, name, getattr(self, name) >= 1, "at least 1")
        ks = self.kernel_sizes
        need(self, "kernel_sizes", len(ks) >= 1 and len(set(ks)) == len(ks)
             and all(isinstance(k, int) and k >= 1 for k in ks),
             "distinct integers of at least 1")
        need(self, "dropout", 0 <= self.dropout < 1, "in [0, 1)")
        # each block's pool floors the length, and the adaptive pool
        # needs final_pool_out_len positions left; a pool of 2 or more
        # leaves none after as many blocks as max_tokens has bits, which
        # bounds the power for any blocks value
        blocks = min(self.blocks, int(self.max_tokens).bit_length())
        need(self, "max_tokens", self.max_tokens // self.pool_size ** blocks
             >= self.final_pool_out_len,
             f"at least final_pool_out_len * pool_size**blocks "
             f"({self.final_pool_out_len} * {self.pool_size}**{self.blocks})")

    @property
    def block_channels(self) -> int:
        return len(self.kernel_sizes) * self.filters_per_size

    @property
    def flatten_dim(self) -> int:
        return self.block_channels * self.final_pool_out_len


class ConvBlock:
    """Parallel convolutions (one filter bank per kernel size,
    concatenated along ch) -> BN -> pool, over (batch, length, ch).

    The block owns its conv output, so eval-mode BN normalises it in
    place."""

    def __init__(self, in_ch, filters, kernel_sizes, pool_size, rng, dtype):
        self.conv = Conv1d(in_ch, filters, kernel_sizes, rng, dtype)
        self.bn = BatchNorm1d(filters * len(kernel_sizes), dtype=dtype)
        self.pool = MaxPool1d(pool_size)

    def forward(self, x, train=False):
        y = self.conv.forward(x, train=train)
        b, length, c = y.shape
        y = self.bn.forward(y.reshape(b * length, c), train=train,
                            overwrite_input=True)
        return self.pool.forward(y.reshape(b, length, c), train=train)

    def backward(self, grad):
        grad = self.pool.backward(grad)
        b, length, c = grad.shape
        grad = self.bn.backward(grad.reshape(b * length, c))
        return self.conv.backward(grad.reshape(b, length, c))


class TextCnn(ModelBase):
    """Embedding -> conv blocks -> adaptive max pool -> two FC layers."""

    def __init__(self, vocab_size, config: TextCnnConfig, seed=0,
                 dtype=DEFAULT_DTYPE):
        super().__init__()
        self.config = config
        rngs = RngState(seed)
        init = rngs.consumer("textcnn-init")
        self.embedding = Embedding(vocab_size, config.embed_dim, init, dtype)
        self.blocks = []
        in_ch = config.embed_dim
        for _ in range(config.blocks):
            self.blocks.append(ConvBlock(in_ch, config.filters_per_size,
                                         config.kernel_sizes, config.pool_size,
                                         init, dtype))
            in_ch = config.block_channels
        self.final_pool = AdaptiveMaxPool1d(config.final_pool_out_len)
        self.fc1 = Linear(config.flatten_dim, config.fc_hidden, init, dtype)
        self.relu = ReLU()
        self.dropout = Dropout(config.dropout, rngs.consumer("textcnn-dropout"))
        # small head init keeps initial logits near-uniform (loss ~ ln 6)
        self.fc2 = Linear(config.fc_hidden, len(CLASSES), init, dtype,
                          w_scale=1e-3)
        self._flat_shape = None

    def _children(self):
        out = {"embedding": self.embedding}
        for i, block in enumerate(self.blocks):
            # the conv's parameters are named conv{k}.weight and conv{k}.bias
            out[f"block{i}"] = block.conv
            out[f"block{i}.bn"] = block.bn
        out["fc1"] = self.fc1
        out["fc2"] = self.fc2
        return out

    def _trunk(self, ids, train):
        if ids.ndim != 2 or ids.shape[1] != self.config.max_tokens:
            raise ValueError(f"expected ids (batch, {self.config.max_tokens}), "
                             f"got {ids.shape}")
        x = self.embedding.forward(ids, train=train)
        for block in self.blocks:
            x = block.forward(x, train=train)
        x = self.final_pool.forward(x, train=train)
        self._flat_shape = x.shape if train else None
        # flatten in (ch, position) order, the order fc1 and saved
        # checkpoints were trained with
        return x.transpose(0, 2, 1).reshape(x.shape[0], -1)

    def forward(self, ids, train=False):
        flat = self._trunk(ids, train)
        h = self.dropout.forward(self.relu.forward(self.fc1.forward(flat, train=train),
                                                   train=train), train=train)
        return self.fc2.forward(h, train=train)

    def backward(self, dlogits):
        g = self.fc2.backward(dlogits)
        g = self.fc1.backward(self.relu.backward(self.dropout.backward(g)))
        b, out_len, c = self._flat_shape
        g = g.reshape(b, c, out_len).transpose(0, 2, 1)
        g = self.final_pool.backward(g)
        for block in reversed(self.blocks):
            g = block.backward(g)
        self.embedding.backward(g)

    def extract_embedding(self, ids) -> np.ndarray:
        """Flatten-layer activations in eval mode."""
        return self._trunk(ids, train=False)

    def predict_probs(self, ids) -> np.ndarray:
        return softmax(self.forward(ids, train=False), axis=1)


def encode_pages(pages, vocab, max_tokens):
    """Id matrix for a page list; pages without text encode as all padding."""
    ids = np.zeros((len(pages), max_tokens), dtype=np.int64)
    for i, page in enumerate(pages):
        ids[i] = encode(page.text_tokens or [], vocab, max_tokens)
    return ids


def text_cnn_setup(corpus, config: TextCnnConfig, weighted: bool, seed=0):
    """A fresh model on the train pages that have text: returns (model,
    page count, ``loss_fn`` for ``training.fit``, vocabulary)."""
    pages = [p for p in iter_pages(corpus, "train") if p.text_tokens]
    if not pages:
        raise ValueError("no train page has text")
    counts = [sum(1 for p in pages if p.label == c) for c in CLASSES]
    if weighted and any(c == 0 for c in counts):
        missing = [c for c, n in zip(CLASSES, counts) if n == 0]
        raise ValueError(f"classes absent from training data: {missing}")
    vocab = Vocab.build([p.text_tokens for p in pages])
    ids = encode_pages(pages, vocab, config.max_tokens)
    targets = np.array([CLASS_TO_ID[p.label] for p in pages])
    model = TextCnn(len(vocab), config, seed=seed)
    weights = class_weights(counts) if weighted else None
    return (model, len(pages), classifier_loss(model, [ids], targets, weights),
            vocab)


def train_text_cnn(corpus, config: TextCnnConfig, weighted: bool, seed=0,
                   epochs=20, batch_size=BATCH, max_lr=2e-3, out_path=None,
                   verbose=False):
    """Trains on the train split, checkpointing on best validation
    macro-F1 to ``out_path``, with the vocabulary beside it as
    ``vocab.txt`` and its digest in the meta.  Pages without text carry
    no signal for this model, so training and validation skip them.

    Returns (model, vocab, keeper, log).
    """
    model, n, loss_fn, vocab = text_cnn_setup(corpus, config, weighted, seed)
    val_pages = [p for p in iter_pages(corpus, "validation") if p.text_tokens]
    if not val_pages:
        raise ValueError("no validation page has text")
    val_ids = encode_pages(val_pages, vocab, config.max_tokens)
    val_gold = [p.label for p in val_pages]
    family = "textcnn-w" if weighted else "textcnn"
    keeper = BestCheckpointKeeper(out_path, {
        "model": family, "seed": seed, "vocab_digest": vocab.digest(),
        "config": asdict(config)})
    log = fit(model, n, loss_fn, RngState(seed).consumer("textcnn-shuffle"),
              epochs, batch_size, max_lr,
              evaluate=lambda m: evaluate_text_cnn(m, val_ids, val_gold),
              keeper=keeper, name=family, verbose=verbose)
    if out_path:  # the checkpoints are unusable without it
        try:
            vocab.save(Path(out_path).with_name("vocab.txt"))
        except Exception:
            keeper.discard()
            raise
    return model, vocab, keeper, log


def evaluate_text_cnn(model, ids, gold_labels):
    return score(gold_labels, label_pages(model, [ids]), CLASSES)
