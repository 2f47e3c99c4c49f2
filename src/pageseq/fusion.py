"""Early fusion of text and image embeddings.

The fusion module concatenates per-page text and image embeddings,
substituting a learned vector (or zeros) when a modality is absent, and
classifies through the MLP trunk (batch-norm and two FC layers) that the
image-only baseline uses on one modality.  Also here: the hybrid
classifier, the always-missing-image ablation and the majority baseline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import BestCheckpointKeeper
from .corpus import iter_pages
from .iob import CLASS_TO_ID, CLASSES
from .layers import BatchNorm1d, Dropout, Linear
from .metrics import score
from .model_base import ModelBase
from .runconfig import need
from .tensor import DEFAULT_DTYPE, RngState, softmax
from .training import classifier_loss, fit, label_pages


@dataclass
class FusionConfig:
    text_dim: int = 3840
    image_dim: int = 4096
    hidden: int = 128
    classes: int = 6
    dropout: float = 0.5
    missing_mode: str = "learned"  # or "zero"

    def __post_init__(self):
        """Raises ``ValueError`` naming the first field out of range."""
        for name in ("text_dim", "image_dim", "hidden"):
            need(self, name, getattr(self, name) >= 1, "at least 1")
        need(self, "classes", self.classes == len(CLASSES),
             f"{len(CLASSES)}, the number of page classes")
        need(self, "dropout", 0 <= self.dropout < 1, "in [0, 1)")
        need(self, "missing_mode", self.missing_mode in ("learned", "zero"),
             "'learned' or 'zero'")

    @property
    def concat_dim(self) -> int:
        return self.text_dim + self.image_dim

    @property
    def name(self) -> str:
        suffix = "-zero" if self.missing_mode == "zero" else ""
        return f"FM-{self.hidden}{suffix}"


class MlpClassifier(ModelBase):
    """BN-FC-dropout-BN-FC: the image-only baseline and the FM trunk."""

    stream = "mlp"  # names the rng consumers "<stream>-init", "-dropout"

    def __init__(self, input_dim, hidden, classes=6, dropout=0.5, seed=0,
                 dtype=DEFAULT_DTYPE):
        super().__init__()
        rngs = RngState(seed)
        init = rngs.consumer(f"{self.stream}-init")
        self.bn0 = BatchNorm1d(input_dim, dtype=dtype)
        self.fc1 = Linear(input_dim, hidden, init, dtype)
        self.dropout = Dropout(dropout, rngs.consumer(f"{self.stream}-dropout"))
        self.bn1 = BatchNorm1d(hidden, dtype=dtype)
        self.fc2 = Linear(hidden, classes, init, dtype, w_scale=1e-3)
        self._layers = [self.bn0, self.fc1, self.dropout, self.bn1, self.fc2]

    def _children(self):
        return {"bn0": self.bn0, "fc1": self.fc1, "bn1": self.bn1,
                "fc2": self.fc2}

    def forward(self, x, train=False):
        for layer in self._layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad):
        for layer in reversed(self._layers):
            grad = layer.backward(grad)
        return grad

    def predict_probs(self, *inputs, **options):
        return softmax(self.forward(*inputs, train=False, **options), axis=1)


class FusionModule(MlpClassifier):
    """The MLP trunk over [text; image] with missing-modality vectors."""

    stream = "fusion"

    def __init__(self, config: FusionConfig, seed=0, dtype=DEFAULT_DTYPE):
        c = self.config = config
        super().__init__(c.concat_dim, c.hidden, c.classes, c.dropout, seed,
                         dtype)
        # zero init: learned and zero variants start from the same point
        self._add_param("missing_text", np.zeros(c.text_dim, dtype=dtype))
        self._add_param("missing_image", np.zeros(c.image_dim, dtype=dtype))
        self._masks = None

    def concat(self, text, image, text_present, image_present,
               force_missing_image=False):
        """Rows [text; image] with the missing vector where the mask is
        False (either input may then be None).  ``force_missing_image``
        runs the "w/o img acts" ablation: no sample uses its image.
        """
        text_present = np.asarray(text_present, dtype=bool)
        image_present = np.asarray(image_present, dtype=bool)
        if force_missing_image:
            image_present = np.zeros_like(image_present)
            if not text_present.all():
                raise ValueError("fusion w/o image acts requires text on "
                                 "every sample")
        if np.any(~text_present & ~image_present):
            raise ValueError("sample with both modalities missing")
        missing_text, missing_image = (self.params["missing_text"],
                                       self.params["missing_image"])
        parts = []
        for emb, present, missing in ((text, text_present, missing_text),
                                      (image, image_present, missing_image)):
            shape = (len(present), len(missing))
            if emb is None:
                emb = np.zeros(shape, dtype=missing.dtype)
            if emb.shape != shape:
                raise ValueError(f"embedding shape {emb.shape} != {shape}")
            parts.append(emb)
        # one copy, then only the absent rows are overwritten
        x = np.concatenate(parts, axis=1,
                           dtype=np.result_type(*parts, missing_text))
        x[~text_present, :self.config.text_dim] = missing_text
        x[~image_present, self.config.text_dim:] = missing_image
        return x

    def forward(self, text, image, text_present, image_present, train=False,
                force_missing_image=False):
        """Logits of the trunk over :meth:`concat`."""
        x = self.concat(text, image, text_present, image_present,
                        force_missing_image)
        # the rows that took a missing vector, for backward
        self._masks = (np.asarray(text_present, dtype=bool),
                       np.asarray(image_present, dtype=bool)
                       & (not force_missing_image)) if train else None
        return super().forward(x, train=train)

    def backward(self, dlogits):
        g = super().backward(dlogits)
        if self.config.missing_mode == "learned":
            text_present, image_present = self._masks
            d = self.config.text_dim
            if np.any(~text_present):
                self.grads["missing_text"] += g[~text_present, :d].sum(axis=0)
            if np.any(~image_present):
                self.grads["missing_image"] += g[~image_present, d:].sum(axis=0)
        return g

    def hidden(self, text, image, text_present, image_present):
        """FC(d) activations in eval mode (the BiLSTM input features)."""
        x = self.concat(text, image, text_present, image_present)
        return self.fc1.forward(self.bn0.forward(x, train=False), train=False)


class HybridClassifier:
    """Text model when text exists, image model otherwise."""

    def __init__(self, text_model, image_model):
        self.text_model = text_model
        self.image_model = image_model
        self.text_calls = 0
        self.image_calls = 0

    def predict_page(self, page) -> str:
        if page.has_text:
            self.text_calls += 1
            return self.text_model.predict_page(page)
        if page.has_image:
            self.image_calls += 1
            return self.image_model.predict_page(page)
        raise ValueError(f"{page.lawsuit_id}:{page.page_index}: "
                         "page has no modality")


class MajorityBaseline:
    """Constant classifier; ties break to the lowest class index."""

    def __init__(self, train_labels):
        labels = list(train_labels)
        if not labels:
            raise ValueError("no training labels")
        counts = Counter(labels)
        self.majority_class = max(CLASSES, key=lambda c: (counts.get(c, 0),
                                                          -CLASSES.index(c)))


class EmbeddingWidthError(ValueError):
    """A page's embedding is not as wide as the model's input."""


def _width_error(page, modality, dim, emb):
    return EmbeddingWidthError(
        f"the model takes {modality} embeddings of width {dim}, but page "
        f"{page.lawsuit_id}:{page.page_index} has one of width {len(emb)}")


def embedding_arrays(pages, text_dim, image_dim):
    """Dense (text, image, text_mask, image_mask, target) arrays for pages;
    an embedding of another width raises ``EmbeddingWidthError``."""
    n = len(pages)
    text = np.zeros((n, text_dim), dtype=np.float32)
    image = np.zeros((n, image_dim), dtype=np.float32)
    tmask, imask = [], []
    for i, page in enumerate(pages):
        t, im = page.text_embedding, page.image_embedding
        if t is None and im is None:
            raise ValueError(f"{page.lawsuit_id}:{page.page_index}: "
                             "no embedding on either modality")
        if t is not None:
            if len(t) != text_dim:
                raise _width_error(page, "text", text_dim, t)
            text[i] = t
        if im is not None:
            if len(im) != image_dim:
                raise _width_error(page, "image", image_dim, im)
            image[i] = im
        tmask.append(t is not None)
        imask.append(im is not None)
    targets = np.array([CLASS_TO_ID[p.label] for p in pages], dtype=np.int64)
    return (text, image, np.array(tmask, dtype=bool),
            np.array(imask, dtype=bool), targets)


def corpus_embedding_dims(corpus):
    for split in corpus:
        for page in iter_pages(corpus, split):
            if page.text_embedding is not None and page.image_embedding is not None:
                return len(page.text_embedding), len(page.image_embedding)
    raise ValueError("corpus has no page with both embeddings")


def fusion_setup(corpus, config: FusionConfig, seed=0):
    """A fresh model on the train split: returns (model, page count,
    ``loss_fn`` for ``training.fit``)."""
    pages = list(iter_pages(corpus, "train"))
    text, image, tmask, imask, targets = embedding_arrays(
        pages, config.text_dim, config.image_dim)
    if not tmask.any() or not imask.any():
        raise ValueError("a modality is missing from every training sample")
    model = FusionModule(config, seed=seed)
    return model, len(pages), classifier_loss(
        model, [text, image, tmask, imask], targets)


def train_fusion(corpus, config: FusionConfig, seed=0, epochs=20,
                 batch_size=64, max_lr=5e-3, out_path=None, verbose=False):
    """One-cycle Adam training; checkpoints on best validation macro-F1.

    Returns (model, keeper, log).
    """
    model, n, loss_fn = fusion_setup(corpus, config, seed)
    val_pages = list(iter_pages(corpus, "validation"))
    if not val_pages:
        raise ValueError("empty validation split")
    vdata = embedding_arrays(val_pages, config.text_dim, config.image_dim)
    val_gold = [p.label for p in val_pages]
    family = "fusion-zero" if config.missing_mode == "zero" else "fusion"
    keeper = BestCheckpointKeeper(out_path, {
        "model": family, "seed": seed, "config": asdict(config)}) \
        if out_path else None
    log = fit(model, n, loss_fn, RngState(seed).consumer("fusion-shuffle"),
              epochs, batch_size, max_lr,
              evaluate=lambda m: evaluate_fusion(m, vdata, val_gold),
              keeper=keeper, name=config.name, verbose=verbose)
    return model, keeper, log


def evaluate_fusion(model, data, gold_labels, force_missing_image=False):
    return score(gold_labels, label_pages(
        model, data[:4], force_missing_image=force_missing_image), CLASSES)


GRID = [(512, "learned"), (512, "zero"), (128, "learned"), (128, "zero")]


def fusion_grid(corpus, text_dim, image_dim, seed=0, epochs=10, **train_kw):
    """Table-style 4-config sweep; returns {config name: val macro-F1}."""
    results = {}
    for hidden, mode in GRID:
        config = FusionConfig(text_dim=text_dim, image_dim=image_dim,
                              hidden=hidden, missing_mode=mode)
        _, _, log = train_fusion(corpus, config, seed=seed, epochs=epochs,
                                 **train_kw)
        results[config.name] = max(r.val_macro_f1 for r in log.rows)
    return results
