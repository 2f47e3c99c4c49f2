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

from dataclasses import dataclass

import numpy as np

from .checkpoint import BestCheckpointKeeper
from .corpus import iter_pages
from .iob import CLASSES
from .layers import (AdaptiveMaxPool1d, BatchNorm1d, Conv1d, Dropout,
                     Embedding, Linear, MaxPool1d, ReLU)
from .losses import class_weights, cross_entropy
from .model_base import ModelBase
from .metrics import score
from .optim import Adam
from .schedule import OneCycleSchedule
from .tensor import DEFAULT_DTYPE, RngState, softmax
from .text import Vocab, encode
from .training import TrainLog, iterate_minibatches, minibatch_count


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
    classes: int = 6

    @property
    def block_channels(self) -> int:
        return len(self.kernel_sizes) * self.filters_per_size

    @property
    def flatten_dim(self) -> int:
        return self.block_channels * self.final_pool_out_len


class ConvBlock:
    """Parallel convolutions (one per kernel size) -> concat -> BN -> pool,
    over (batch, length, ch); the convolutions concatenate along ch."""

    def __init__(self, in_ch, filters, kernel_sizes, pool_size, rng, dtype):
        self.filters = filters
        self.convs = [Conv1d(in_ch, filters, k, rng, dtype) for k in kernel_sizes]
        self.bn = BatchNorm1d(filters * len(kernel_sizes), dtype=dtype)
        self.pool = MaxPool1d(pool_size)

    def forward(self, x, train=False):
        outs = [conv.forward(x, train=train) for conv in self.convs]
        y = np.concatenate(outs, axis=2)
        b, length, c = y.shape
        y = self.bn.forward(y.reshape(b * length, c), train=train)
        return self.pool.forward(y.reshape(b, length, c), train=train)

    def backward(self, grad):
        grad = self.pool.backward(grad)
        b, length, c = grad.shape
        grad = self.bn.backward(grad.reshape(b * length, c)).reshape(b, length, c)
        dx = None
        for i, conv in enumerate(self.convs):
            g = grad[..., i * self.filters : (i + 1) * self.filters]
            d = conv.backward(g)
            dx = d if dx is None else dx + d
        return dx

    def children(self):
        out = {f"conv{c.kernel}": c for c in self.convs}
        out["bn"] = self.bn
        return out


class TextCnn(ModelBase):
    """Embedding -> conv blocks -> adaptive max pool -> two FC layers."""

    def __init__(self, vocab_size, config: TextCnnConfig, seed=0,
                 dtype=DEFAULT_DTYPE):
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
        self.fc2 = Linear(config.fc_hidden, config.classes, init, dtype,
                          w_scale=1e-3)
        self._flat_shape = None

    def _children(self):
        out = {"embedding": self.embedding}
        for i, block in enumerate(self.blocks):
            for name, layer in block.children().items():
                out[f"block{i}.{name}"] = layer
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
        self._flat_shape = x.shape
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


def train_text_cnn(corpus, config: TextCnnConfig, weighted: bool, seed=0,
                   epochs=20, batch_size=64, max_lr=2e-3, out_path=None,
                   include_missing_text=False, verbose=False):
    """Trains on the train split, checkpointing on best validation macro-F1.

    Pages without text are excluded from training (they carry no signal
    for this model) unless ``include_missing_text`` is set.

    Returns (model, vocab, keeper, log).
    """
    def usable(p):
        return include_missing_text or p.text_tokens
    train_pages = [p for p in iter_pages(corpus, "train") if usable(p)]
    val_pages = [p for p in iter_pages(corpus, "validation") if usable(p)]
    if not train_pages or not val_pages:
        raise ValueError("empty train or validation split")
    counts = [sum(1 for p in train_pages if p.label == c) for c in CLASSES]
    if weighted and any(c == 0 for c in counts):
        missing = [c for c, n in zip(CLASSES, counts) if n == 0]
        raise ValueError(f"classes absent from training data: {missing}")
    vocab = Vocab.build([p.text_tokens or [] for p in train_pages])
    ids = encode_pages(train_pages, vocab, config.max_tokens)
    targets = np.array([CLASS_IDS[p.label] for p in train_pages])
    val_ids = encode_pages(val_pages, vocab, config.max_tokens)
    val_gold = [p.label for p in val_pages]

    weights = class_weights(counts) if weighted else None
    model = TextCnn(len(vocab), config, seed=seed)
    opt = Adam(model.named_params())
    steps_per_epoch = minibatch_count(len(train_pages), batch_size)
    sched = OneCycleSchedule(total_steps=epochs * steps_per_epoch, max_lr=max_lr)
    keeper = BestCheckpointKeeper(out_path) if out_path else None
    log = TrainLog()
    shuffle_rng = RngState(seed).consumer("textcnn-shuffle")
    step = 0
    best = (-1.0, None)
    for epoch in range(epochs):
        losses = []
        lr = sched.lr(step)
        for idx in iterate_minibatches(len(train_pages), batch_size, shuffle_rng):
            lr = sched.lr(step)
            model.zero_grads()
            logits = model.forward(ids[idx], train=True)
            loss, dlogits = cross_entropy(logits, targets[idx], weights)
            model.backward(dlogits)
            opt.step(model.named_grads(), lr)
            losses.append(loss)
            step += 1
        report = evaluate_text_cnn(model, val_ids, val_gold)
        saved = False
        if keeper:
            saved = keeper.update(report.macro_f1, model.state_dict(),
                                  {"epoch": epoch, "model": "textcnn",
                                   "weighted": weighted})
        if report.macro_f1 > best[0]:
            best = (report.macro_f1, model.snapshot())
        log.add(epoch=epoch, lr=lr, train_loss=float(np.mean(losses)),
                val_macro_f1=report.macro_f1,
                val_weighted_f1=report.weighted_f1, saved=saved)
        if verbose:
            print(f"epoch {epoch}: loss {np.mean(losses):.4f} "
                  f"val macro-F1 {report.macro_f1:.4f}")
    if best[1] is not None:
        model.load_state(best[1])
    return model, vocab, keeper, log


def evaluate_text_cnn(model, ids, gold_labels, batch_size=256):
    preds = []
    for start in range(0, len(ids), batch_size):
        probs = model.predict_probs(ids[start : start + batch_size])
        preds.extend(CLASSES[i] for i in probs.argmax(axis=1))
    return score(gold_labels, preds, CLASSES)


CLASS_IDS = {c: i for i, c in enumerate(CLASSES)}
