"""Synthetic lawsuit generator mirroring the corpus's statistical structure.

Lawsuits are Markov chains over document types; each document is a run
of pages sharing one class, with the run's first page flagged and drawn
closer to its class prototype than interior pages (the separability
boost).  Text and image embeddings come from per-class prototypes plus
Gaussian noise; page tokens are drawn from per-class keyword pools plus
a shared filler vocabulary.  Modalities are dropped independently at the
configured rates, never both on the same page.  Everything is driven by
one seeded, sequential PRNG, so a (seed, config) pair regenerates a
bit-identical corpus.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Lawsuit, Page
from .iob import CLASSES
from .tensor import RngState


@dataclass
class SynthConfig:
    seed: int = 7
    n_lawsuits: int = 300
    # page-share targets per class, CLASSES order; softer than the real
    # corpus so desk-scale macro-F1 margins are meaningful
    class_freq: tuple = (0.04, 0.10, 0.03, 0.60, 0.15, 0.08)
    doc_len_mean: tuple = (3.0, 5.0, 2.0, 8.0, 6.0, 4.0)
    docs_per_lawsuit_mean: float = 7.0
    max_doc_len: int = 15
    markov_structure: float = 0.0  # 0 = independent document types
    text_dim: int = 96
    image_dim: int = 128
    text_strength_first: float = 1.0
    text_strength_interior: float = 0.5
    text_noise: float = 2.4
    image_strength_first: float = 0.9
    image_strength_interior: float = 0.45
    image_noise: float = 3.6
    first_page_boost: float = 1.0  # 0 makes first and interior pages alike
    missing_text_rate: float = 0.10
    missing_image_rate: float = 1e-5
    tokens_per_page: float = 40.0
    keyword_rate_first: float = 0.30
    keyword_rate_interior: float = 0.10
    keyword_confusion: float = 0.25  # chance a keyword comes from a random class
    keywords_per_class: int = 12
    filler_vocab: int = 150
    split_fractions: tuple = (0.70, 0.15, 0.15)

    def __post_init__(self):
        """Raises ``ValueError`` naming the first field out of range."""
        def need(name, ok, want):
            if not ok:
                raise ValueError(f"{name} must be {want}, got "
                                 f"{getattr(self, name)!r}")

        def shares(values, n):
            return len(values) == n and all(0 <= v <= 1 for v in values) \
                and abs(sum(values) - 1.0) <= 1e-9

        k = len(CLASSES)
        need("seed", self.seed >= 0, "at least 0")
        for name in ("n_lawsuits", "max_doc_len", "text_dim", "image_dim",
                     "keywords_per_class", "filler_vocab"):
            need(name, getattr(self, name) >= 1, "at least 1")
        for name in ("markov_structure", "missing_text_rate",
                     "missing_image_rate", "keyword_rate_first",
                     "keyword_rate_interior", "keyword_confusion"):
            need(name, 0 <= getattr(self, name) <= 1, "in [0, 1]")
        for name in ("docs_per_lawsuit_mean", "text_noise", "image_noise",
                     "tokens_per_page"):
            need(name, 0 <= getattr(self, name) < math.inf,
                 "finite and at least 0")
        for name in ("text_strength_first", "text_strength_interior",
                     "image_strength_first", "image_strength_interior",
                     "first_page_boost"):
            need(name, math.isfinite(getattr(self, name)), "finite")
        need("class_freq", shares(self.class_freq, k),
             f"{k} page shares in [0, 1] that sum to 1")
        need("doc_len_mean", len(self.doc_len_mean) == k and all(
            1 <= m < math.inf for m in self.doc_len_mean),
            f"{k} finite mean lengths of at least 1")
        need("split_fractions", shares(self.split_fractions, 3),
             "3 fractions in [0, 1] that sum to 1")

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def doc_type_distribution(config: SynthConfig) -> np.ndarray:
    """Probability of starting a document of each class.

    Weighted by target page share over mean document length, so the
    expected page share matches ``class_freq``.
    """
    q = np.asarray(config.class_freq) / np.asarray(config.doc_len_mean)
    return q / q.sum()


def markov_matrix(config: SynthConfig) -> np.ndarray:
    """Row-stochastic matrix over document-type transitions."""
    q = doc_type_distribution(config)
    k = len(CLASSES)
    rows = np.tile(q, (k, 1))
    if config.markov_structure > 0:
        pref = np.zeros((k, k))
        for i in range(k):
            pref[i, (i + 1) % k] = 1.0
        rows = (1 - config.markov_structure) * rows + config.markov_structure * pref
    sums = rows.sum(axis=1)
    if np.any(sums <= 0):
        raise ValueError("degenerate Markov matrix")
    return rows / sums[:, None]


def _strengths(config: SynthConfig, first: bool):
    boost = config.first_page_boost if first else 0.0
    text = config.text_strength_interior + boost * (
        config.text_strength_first - config.text_strength_interior)
    image = config.image_strength_interior + boost * (
        config.image_strength_first - config.image_strength_interior)
    return text, image


def generate_synthetic(config: SynthConfig) -> dict:
    """Builds a full train/validation/test corpus; see module docstring."""
    rngs = RngState(config.seed)
    proto_rng = rngs.consumer("synth-prototypes")
    rng = rngs.consumer("synth-corpus")
    k = len(CLASSES)
    text_proto = proto_rng.standard_normal((k, config.text_dim)) / np.sqrt(config.text_dim)
    image_proto = proto_rng.standard_normal((k, config.image_dim)) / np.sqrt(config.image_dim)
    keywords = [[f"kw{ci}t{j}" for j in range(config.keywords_per_class)]
                for ci in range(k)]
    filler = [f"w{j}" for j in range(config.filler_vocab)]
    start_dist = doc_type_distribution(config)
    trans = markov_matrix(config)

    lawsuits = []
    for li in range(config.n_lawsuits):
        lawsuit_id = f"suit-{li:05d}"
        n_docs = 2 + rng.poisson(max(config.docs_per_lawsuit_mean - 2, 0))
        doc_types = []
        for d in range(n_docs):
            if d == 0:
                ci = rng.choice(k, p=start_dist)
            else:
                ci = rng.choice(k, p=trans[doc_types[-1]])
            doc_types.append(int(ci))
        pages = []
        for ci in doc_types:
            length = min(1 + rng.poisson(config.doc_len_mean[ci] - 1.0),
                         config.max_doc_len)
            for j in range(length):
                first = j == 0
                t_str, i_str = _strengths(config, first)
                text_emb = (t_str * text_proto[ci]
                            + config.text_noise
                            * rng.standard_normal(config.text_dim)
                            / np.sqrt(config.text_dim)).astype(np.float32)
                image_emb = (i_str * image_proto[ci]
                             + config.image_noise
                             * rng.standard_normal(config.image_dim)
                             / np.sqrt(config.image_dim)).astype(np.float32)
                kw_rate = (config.keyword_rate_first if first
                           else config.keyword_rate_interior)
                if config.first_page_boost == 0.0:
                    kw_rate = config.keyword_rate_interior
                n_tok = max(1, int(rng.poisson(config.tokens_per_page)))
                tokens = []
                for _ in range(n_tok):
                    if rng.random() < kw_rate:
                        src = ci
                        if rng.random() < config.keyword_confusion:
                            src = int(rng.integers(k))
                        tokens.append(keywords[src][rng.integers(len(keywords[src]))])
                    else:
                        tokens.append(filler[rng.integers(len(filler))])
                drop_text = rng.random() < config.missing_text_rate
                drop_image = (not drop_text
                              and rng.random() < config.missing_image_rate)
                pages.append(Page(
                    lawsuit_id=lawsuit_id,
                    page_index=len(pages),
                    label=CLASSES[ci],
                    is_first_page=first,
                    text_tokens=None if drop_text else tokens,
                    text_embedding=None if drop_text else text_emb,
                    image_embedding=None if drop_image else image_emb,
                ))
        lawsuits.append(Lawsuit(lawsuit_id, pages))

    order = rng.permutation(config.n_lawsuits)
    n_train = int(round(config.split_fractions[0] * config.n_lawsuits))
    n_val = int(round(config.split_fractions[1] * config.n_lawsuits))
    corpus = {
        "train": [lawsuits[i] for i in order[:n_train]],
        "validation": [lawsuits[i] for i in order[n_train : n_train + n_val]],
        "test": [lawsuits[i] for i in order[n_train + n_val :]],
    }
    for split in corpus.values():
        for lawsuit in split:
            lawsuit.validate()
    return corpus
