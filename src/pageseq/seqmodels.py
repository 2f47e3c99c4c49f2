"""BiLSTM sequence labelers over per-page representations of lawsuits.

Four variants: plain BiLSTM and BiLSTM-CRF consume fusion-module hidden
activations; the -F variants consume concatenated text+image embeddings
through an extra BN/dropout/FC(512) stem.  All tag over the 12 IOB tags;
evaluation always collapses to the 6 base classes.  Training packs the
lawsuits of a mini-batch into one pass: BatchNorm and dropout see all
their pages at once, and the BiLSTM runs them side by side over a
padded grid.  :func:`label_lawsuits`, the one labeller of these models
and of FM+CRF, makes one ``decode`` call per lawsuit in eval mode, so a
lawsuit's predictions never depend on any other lawsuit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import crf as crf_ops
from .checkpoint import BestCheckpointKeeper
from .iob import CLASSES, IOB_TAGS, TAG_TO_ID, iob_encode
from .layers import BatchNorm1d, Dropout, Linear
from .losses import cross_entropy
from .lstm import BiLstm
from .metrics import score_collapsed
from .model_base import ModelBase
from .runconfig import need
from .tensor import DEFAULT_DTYPE, RngState, packing, softmax
from .training import fit

VARIANTS = ("bilstm", "bilstm-crf", "bilstm-f", "bilstm-f-crf")


@dataclass
class SeqModelConfig:
    variant: str
    input_dim: int
    lstm_hidden: int = 128
    pre_fc: int = 512
    dropout: float = 0.5

    def __post_init__(self):
        """Raises ``ValueError`` naming the first field out of range."""
        need(self, "variant", self.variant in VARIANTS,
             f"one of {', '.join(VARIANTS)}")
        for name in ("input_dim", "lstm_hidden", "pre_fc"):
            need(self, name, getattr(self, name) >= 1, "at least 1")
        need(self, "dropout", 0 <= self.dropout < 1, "in [0, 1)")

    @property
    def fusion_input(self) -> bool:
        return self.variant in ("bilstm-f", "bilstm-f-crf")

    @property
    def crf_head(self) -> bool:
        return self.variant.endswith("crf")


class SeqModel(ModelBase):
    def __init__(self, config: SeqModelConfig, seed=0, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.config = config
        rngs = RngState(seed)
        init = rngs.consumer("seq-init")
        drop_rng = rngs.consumer("seq-dropout")
        lstm_in = config.input_dim
        if config.fusion_input:
            self.bn_in = BatchNorm1d(config.input_dim, dtype=dtype)
            self.drop_in = Dropout(config.dropout, drop_rng)
            self.fc_in = Linear(config.input_dim, config.pre_fc, init, dtype)
            lstm_in = config.pre_fc
        self.bilstm = BiLstm(lstm_in, config.lstm_hidden, init, dtype)
        self.bn_out = BatchNorm1d(2 * config.lstm_hidden, dtype=dtype)
        self.drop_out = Dropout(config.dropout, drop_rng)
        self.fc_out = Linear(2 * config.lstm_hidden, len(IOB_TAGS), init,
                             dtype, w_scale=1e-3)
        if config.crf_head:
            self.crf = crf_ops.CrfHead(len(IOB_TAGS))

    def _children(self):
        out = {}
        if self.config.fusion_input:
            out.update({"bn_in": self.bn_in, "fc_in": self.fc_in})
        out.update({"bilstm": self.bilstm, "bn_out": self.bn_out,
                    "fc_out": self.fc_out})
        if self.config.crf_head:
            out["crf"] = self.crf
        return out

    def forward_scores(self, x, train=False, lengths=None):
        """Per-page tag scores (N, 12) of the lawsuits packed in ``x``.

        ``x`` is the (T, input_dim) pages of each lawsuit concatenated,
        and ``lengths`` gives each lawsuit's page count (one lawsuit when
        omitted), as for :func:`crf.nll_and_grad`.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ValueError(f"expected (T, {self.config.input_dim}), "
                             f"got {x.shape}")
        if x.shape[0] == 0:
            raise ValueError("empty lawsuit")
        lengths = packing(x.shape[0], lengths)
        if self.config.fusion_input:
            x = self.fc_in.forward(self.drop_in.forward(
                self.bn_in.forward(x, train=train), train=train), train=train)
        h = self.bilstm.forward(x, train=train, lengths=lengths)
        h = self.drop_out.forward(self.bn_out.forward(h, train=train),
                                  train=train)
        return self.fc_out.forward(h, train=train)

    def backward_scores(self, d_scores):
        g = self.fc_out.backward(d_scores)
        g = self.bn_out.backward(self.drop_out.backward(g))
        g = self.bilstm.backward(g)
        if self.config.fusion_input:
            g = self.bn_in.backward(self.drop_in.backward(self.fc_in.backward(g)))
        return g

    def loss_and_backward(self, x, tag_ids, lengths=None):
        """Train-mode loss of the lawsuits packed in ``x``, grads accumulated.

        The loss is the mean over the lawsuits of each lawsuit's loss
        normalised by its length; ``lengths`` is as in
        :meth:`forward_scores`.  The CRF head takes the whole mini-batch
        in one call, weighing lawsuit i by 1 / (T_i * lawsuits).
        """
        tag_ids = np.asarray(tag_ids)
        scores = self.forward_scores(x, train=True, lengths=lengths)
        if tag_ids.shape != (scores.shape[0],):
            raise ValueError(f"tags of shape {tag_ids.shape} for "
                             f"{scores.shape[0]} pages")
        packed = packing(scores.shape[0], lengths)
        n_seq = packed.lengths.size
        if self.config.crf_head:
            total, d_em = self.crf.nll_and_backward(
                scores.astype(np.float64), tag_ids, packed,
                1.0 / (packed.lengths * n_seq))
            d_scores = d_em.astype(scores.dtype)
        else:
            d_scores = np.empty_like(scores)
            total = 0.0
            for lo, hi in zip(packed.firsts, packed.lasts + 1):
                loss, d = cross_entropy(scores[lo:hi], tag_ids[lo:hi])
                total += loss / n_seq
                d_scores[lo:hi] = d / n_seq
        self.backward_scores(d_scores)
        return total

    def decode(self, x):
        """Predicted IOB tag ids for one lawsuit (eval mode)."""
        scores = self.forward_scores(x, train=False)
        if self.config.crf_head:
            return self.crf.decode(scores.astype(np.float64))[0]
        return softmax(scores, axis=1).argmax(axis=1).tolist()


def lawsuit_tag_ids(lawsuit):
    tags = iob_encode(lawsuit.labels(), lawsuit.first_page_flags())
    return np.array([TAG_TO_ID[t] for t in tags])


def train_seq(lawsuit_inputs, config: SeqModelConfig, seed=0, epochs=20,
              batch_size=8, max_lr=2e-3, out_path=None, fm_digest=None,
              verbose=False):
    """Trains on whole lawsuits, ``batch_size`` lawsuits per mini-batch,
    each mini-batch packed into one forward and backward pass.

    ``lawsuit_inputs`` maps split name to a list of
    (features (T, input_dim), gold IOB tag ids) pairs.  The checkpoints
    written to ``out_path`` name the fusion checkpoint the features came
    from by its ``params_digest``, ``fm_digest``, not by a path, so a
    run writes the same file byte for byte from any directory.
    Returns (model, keeper, log).
    """
    train_set = lawsuit_inputs["train"]
    val_set = lawsuit_inputs["validation"]
    if not train_set or not val_set:
        raise ValueError("empty train or validation split")
    if batch_size == 1 or len(train_set) == 1:
        # a step of one one-page lawsuit would give BatchNorm one row
        for i, (_, tags) in enumerate(train_set):
            if len(tags) == 1:
                raise ValueError(
                    f"train lawsuit {i} has one page, and a mini-batch of "
                    "one lawsuit gives train-mode BatchNorm a single row; "
                    "use batch_size >= 2 and two or more train lawsuits")
    model = SeqModel(config, seed=seed)

    def loss_fn(idx):
        batch = [train_set[i] for i in idx]
        return model.loss_and_backward(
            np.concatenate([x for x, _ in batch]),
            np.concatenate([tags for _, tags in batch]),
            lengths=[len(tags) for _, tags in batch])

    keeper = BestCheckpointKeeper(out_path, {
        "model": config.variant, "seed": seed, "fm_digest": fm_digest,
        "config": asdict(config)})
    log = fit(model, len(train_set), loss_fn,
              RngState(seed).consumer("seq-shuffle"), epochs, batch_size,
              max_lr, evaluate=lambda m: evaluate_seq(m.decode, val_set),
              keeper=keeper, name=config.variant, verbose=verbose)
    return model, keeper, log


def label_lawsuits(decode, lawsuit_set):
    """The sequence families' labeller: the IOB tags of every page of a
    list of (features, gold tag ids) lawsuits, in order.  Each lawsuit is
    one ``decode(features)`` call, which gives its tag ids, or (tag ids,
    score) as ``CrfModel.decode`` does."""
    tags = []
    for x, _ in lawsuit_set:
        path = decode(x)
        tags.extend(IOB_TAGS[i] for i in
                    (path[0] if isinstance(path, tuple) else path))
    return tags


def evaluate_seq(decode, lawsuit_set):
    """Collapsed-class report of :func:`label_lawsuits`."""
    gold = [IOB_TAGS[i] for _, tags in lawsuit_set for i in tags]
    return score_collapsed(gold, label_lawsuits(decode, lawsuit_set), CLASSES)
