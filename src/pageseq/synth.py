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

Each token takes one to four scalar draws: a keyword test, a confusion
test, a class and a pool index.  :func:`_draw_tokens` makes them from
the PCG64 stream's raw 64-bit words (``random_raw``) in plain Python,
mapping each word exactly as numpy's ``Generator.random`` (its top 53
bits) and ``Generator.integers`` (Lemire's bounded method on 32-bit
halves, the high half held for the next draw) do, and rewinds the words
it did not use.  The embedding, Poisson, class-choice and drop draws
are numpy's own.  So a (seed, config) pair still regenerates, byte for
byte, the corpus that one ``Generator`` call per draw gave;
``tests/synth_reference.py`` keeps that loop as the oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Lawsuit, Page
from .iob import CLASSES
from .runconfig import need
from .tensor import RngState

_LOW = 0xFFFFFFFF  # the low 32-bit half of a raw word
_CHUNK = 4096  # most raw words drawn at once


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
        def shares(values, n):
            return len(values) == n and all(0 <= v <= 1 for v in values) \
                and abs(sum(values) - 1.0) <= 1e-9

        k = len(CLASSES)
        need(self, "seed", self.seed >= 0, "at least 0")
        for name in ("n_lawsuits", "max_doc_len", "text_dim", "image_dim"):
            need(self, name, getattr(self, name) >= 1, "at least 1")
        # _draw_tokens models numpy's 32-bit bounded draw only
        for name in ("keywords_per_class", "filler_vocab"):
            need(self, name, 1 <= getattr(self, name) <= 2**32,
                 "in [1, 2**32]")
        for name in ("markov_structure", "missing_text_rate",
                     "missing_image_rate", "keyword_rate_first",
                     "keyword_rate_interior", "keyword_confusion"):
            need(self, name, 0 <= getattr(self, name) <= 1, "in [0, 1]")
        for name in ("docs_per_lawsuit_mean", "text_noise", "image_noise",
                     "tokens_per_page"):
            need(self, name, 0 <= getattr(self, name) < math.inf,
                 "finite and at least 0")
        for name in ("text_strength_first", "text_strength_interior",
                     "image_strength_first", "image_strength_interior",
                     "first_page_boost"):
            need(self, name, math.isfinite(getattr(self, name)), "finite")
        need(self, "class_freq", shares(self.class_freq, k),
             f"{k} page shares in [0, 1] that sum to 1")
        need(self, "doc_len_mean", len(self.doc_len_mean) == k and all(
            1 <= m < math.inf for m in self.doc_len_mean),
            f"{k} finite mean lengths of at least 1")
        need(self, "split_fractions", shares(self.split_fractions, 3),
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


def _bounded(bitgen, words, i, carry, n):
    """``Generator.integers(n)`` from raw words: (value, words, i, carry).

    Lemire's (2019) method on 32-bit halves, as numpy draws an ``n`` of
    at most 2**32: the low half of a fresh word first, its high half
    held in ``carry`` (or None) for the next draw, as PCG64's
    ``next_uint32`` does; ``n == 1`` draws nothing.  Keeps at least two
    unread words after ``i``.
    """
    if n == 1:
        return 0, words, i, carry
    low = 2**32 % n  # reject while the low half of half-word * n is below
    while True:
        if len(words) - i < 3:
            words = words[i:] + bitgen.random_raw(_CHUNK).tolist()
            i = 0
        if carry is None:
            m = (words[i] & _LOW) * n
            carry = words[i] >> 32
            i += 1
        else:
            m, carry = carry * n, None
        if m & _LOW >= low:
            return m >> 32, words, i, carry


def _draw_tokens(bitgen, carry, n_tok, kw_rate, confusion, own, pools,
                 filler):
    """A page's tokens, drawn as ``Generator.random``/``.integers`` would.

    Per token: ``random() < kw_rate`` picks a keyword; then ``random() <
    confusion`` takes its pool from ``pools[integers(len(pools))]``
    instead of ``own``; the token is ``pool[integers(len(pool))]``.  A
    ``random()`` reads one raw word; bounded draws are :func:`_bounded`'s,
    its first try inlined.  Words are drawn in chunks of at most
    ``_CHUNK``, and the unused ones are rewound.  Returns (tokens, carry).
    """
    # random() < rate  <=>  (word >> 11) / 2**53 < rate  <=>  word < cut
    kw_cut = math.ceil(kw_rate * 2**53) << 11
    conf_cut = math.ceil(confusion * 2**53) << 11
    n_kw, n_fill, n_pools = len(own), len(filler), len(pools)
    kw_low, fill_low = 2**32 % n_kw, 2**32 % n_fill
    chunk = min(2 * n_tok + 4, _CHUNK)  # default pages read ~1.7 a token
    words = bitgen.random_raw(chunk).tolist()
    i, end = 0, len(words) - 3  # a token reads at most 3 words
    tokens = []
    for _ in range(n_tok):
        if i > end:
            words = words[i:] + bitgen.random_raw(chunk).tolist()
            i, end = 0, len(words) - 3
        if words[i] < kw_cut:
            pool, n, low = own, n_kw, kw_low
            i += 2
            if words[i - 1] < conf_cut:
                c, words, i, carry = _bounded(bitgen, words, i, carry,
                                              n_pools)
                pool = pools[c]
                end = len(words) - 3
        else:
            pool, n, low = filler, n_fill, fill_low
            i += 1
        if n == 1:
            tokens.append(pool[0])
            continue
        if carry is None:
            w = words[i]
            m, carry = (w & _LOW) * n, w >> 32
            i += 1
        else:
            m, carry = carry * n, None
        if m & _LOW < low:  # rejected: draw again
            j, words, i, carry = _bounded(bitgen, words, i, carry, n)
            end = len(words) - 3
        else:
            j = m >> 32
        tokens.append(pool[j])
    if i < len(words):  # steps back by the unused words, mod the period
        bitgen.advance(2**128 - (len(words) - i))
    return tokens, carry


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

    # per first-page flag: each class's embedding means, and keyword rate
    by_first = {}
    for first in (False, True):
        t_str, i_str = _strengths(config, first)
        kw_rate = (config.keyword_rate_first
                   if first and config.first_page_boost != 0.0
                   else config.keyword_rate_interior)
        by_first[first] = (t_str * text_proto, i_str * image_proto, kw_rate)
    text_root, image_root = np.sqrt(config.text_dim), np.sqrt(config.image_dim)
    bitgen, carry = rng.bit_generator, None
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
                text_mean, image_mean, kw_rate = by_first[first]
                text_emb = (text_mean[ci]
                            + config.text_noise
                            * rng.standard_normal(config.text_dim)
                            / text_root).astype(np.float32)
                image_emb = (image_mean[ci]
                             + config.image_noise
                             * rng.standard_normal(config.image_dim)
                             / image_root).astype(np.float32)
                n_tok = max(1, int(rng.poisson(config.tokens_per_page)))
                tokens, carry = _draw_tokens(
                    bitgen, carry, n_tok, kw_rate, config.keyword_confusion,
                    keywords[ci], keywords, filler)
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

    # permutation reads 32-bit halves: hand it the held one
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = carry is not None, carry or 0
    bitgen.state = state
    order = rng.permutation(config.n_lawsuits)
    n_train = int(round(config.split_fractions[0] * config.n_lawsuits))
    n_val = int(round(config.split_fractions[1] * config.n_lawsuits))
    return {
        "train": [lawsuits[i] for i in order[:n_train]],
        "validation": [lawsuits[i] for i in order[n_train : n_train + n_val]],
        "test": [lawsuits[i] for i in order[n_train + n_val :]],
    }
