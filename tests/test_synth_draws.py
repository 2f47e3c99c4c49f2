"""The synthetic corpus: raw-word token draws against the scalar-draw
oracle in ``synth_reference.py``, and one pinned corpus digest."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pageseq import synth
from pageseq.synth import SynthConfig, generate_synthetic
from synth_reference import generate_synthetic as reference_synthetic

SPLITS = ("train", "validation", "test")


def corpus_digest(corpus) -> str:
    """sha256 of every split in order: each lawsuit's id, and each page's
    ids, label, flags, tokens, missing masks and embedding bytes."""
    h = hashlib.sha256()
    for split in SPLITS:
        for lawsuit in corpus[split]:
            pages = [[p.lawsuit_id, p.page_index, p.label, p.is_first_page,
                      p.text_tokens, p.text_embedding is None,
                      p.image_embedding is None] for p in lawsuit.pages]
            h.update(json.dumps([split, lawsuit.id, pages]).encode())
            for p in lawsuit.pages:
                for emb in (p.text_embedding, p.image_embedding):
                    if emb is not None:
                        h.update(emb.dtype.str.encode() + emb.tobytes())
    return h.hexdigest()


def assert_same_corpus(config):
    assert corpus_digest(generate_synthetic(config)) == corpus_digest(
        reference_synthetic(config)), config


def hold(bitgen, carry):
    """Hands PCG64 the held half-word, as ``generate_synthetic`` does."""
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = carry is not None, carry or 0
    bitgen.state = state


def scalar_tokens(ref, n_tok, kw_rate, confusion, own, pools, filler):
    """The tokens of one page, one ``Generator`` call per draw."""
    tokens = []
    for _ in range(n_tok):
        pool = filler
        if ref.random() < kw_rate:
            pool = own
            if ref.random() < confusion:
                pool = pools[ref.integers(len(pools))]
        tokens.append(pool[ref.integers(len(pool))])
    return tokens


def range_pools(n):
    """Own, class and filler pools of n items each, as ranges: a token
    names its pool and index, and no list of n items is built."""
    return (range(n), [range((2 + c) * n, (3 + c) * n) for c in range(6)],
            range(n, 2 * n))


@pytest.mark.parametrize("n", [1, 2, 6, 12, 150, 3 * 2**30, 2**32])
def test_token_draws_match_generator_calls(n, monkeypatch):
    # at 3 * 2**30 Lemire's method rejects about a quarter of first
    # tries; 2**32 is numpy's plain-uint32 path
    own, pools, filler = range_pools(n)
    retries = []
    bounded = synth._bounded

    def counting(bitgen, words, i, carry, size):
        retries.append(size)
        return bounded(bitgen, words, i, carry, size)

    monkeypatch.setattr(synth, "_bounded", counting)
    rng, ref = (np.random.Generator(np.random.PCG64(11)) for _ in range(2))
    carry = None
    for page in range(40):
        n_tok = 1 + page % 9
        tokens, carry = synth._draw_tokens(rng.bit_generator, carry, n_tok,
                                           0.4, 0.5, own, pools, filler)
        assert tokens == scalar_tokens(ref, n_tok, 0.4, 0.5, own, pools,
                                       filler), page
        # between pages, whole-word draws read past the rewound words
        assert rng.random() == ref.random()
        assert rng.standard_normal() == ref.standard_normal()
    if n == 3 * 2**30:
        assert retries.count(n) > 10
    hold(rng.bit_generator, carry)
    assert [rng.integers(n) for _ in range(5)] == [ref.integers(n)
                                                   for _ in range(5)]
    assert rng.permutation(50).tolist() == ref.permutation(50).tolist()


class RecordingBitGenerator:
    """A PCG64 that records the size of each ``random_raw`` call."""

    def __init__(self, bitgen):
        self.bitgen, self.sizes = bitgen, []

    def random_raw(self, size):
        self.sizes.append(size)
        return self.bitgen.random_raw(size)

    def advance(self, delta):
        self.bitgen.advance(delta)


def test_long_pages_draw_in_bounded_chunks():
    own, pools, filler = range_pools(150)
    rng, ref = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
    recorder = RecordingBitGenerator(rng.bit_generator)
    tokens, carry = synth._draw_tokens(recorder, None, 20_000, 0.3, 0.25,
                                       own, pools, filler)
    assert max(recorder.sizes) == synth._CHUNK and len(recorder.sizes) > 5
    assert tokens == scalar_tokens(ref, 20_000, 0.3, 0.25, own, pools,
                                   filler)
    hold(rng.bit_generator, carry)
    assert rng.integers(150) == ref.integers(150)


@pytest.mark.parametrize("name", ["keywords_per_class", "filler_vocab"])
def test_pool_sizes_above_2_pow_32_are_rejected(name):
    SynthConfig(**{name: 2**32})  # constructed only, never generated
    with pytest.raises(ValueError, match=f"^{name} must be in"):
        SynthConfig(**{name: 2**32 + 1})


@pytest.mark.parametrize("seed", range(40))
def test_default_config_seeds_match_oracle(seed):
    assert_same_corpus(SynthConfig(seed=seed, n_lawsuits=30))


def test_roster_corpus_matches_oracle():
    assert_same_corpus(SynthConfig())


def benchmark_shape(seed, train, validation, test):
    n = train + validation + test
    return SynthConfig(seed=seed, n_lawsuits=n, split_fractions=(
        train / n, validation / n, test / n))


@pytest.mark.parametrize("config", [
    benchmark_shape(1, 42, 8, 100),  # cnn-train
    benchmark_shape(1, 28, 8, 100),  # seq-train
    SynthConfig(seed=1, n_lawsuits=100, docs_per_lawsuit_mean=30.0),
], ids=["cnn-train", "seq-train", "predict-long"])
def test_benchmark_corpus_shapes_match_oracle(config):
    assert_same_corpus(config)


@pytest.mark.parametrize("overrides", [
    {"filler_vocab": 1},
    {"keywords_per_class": 1},
    {"keyword_confusion": 0.0},
    {"keyword_confusion": 1.0},
    {"keyword_rate_first": 0.0, "keyword_rate_interior": 0.0},
    {"keyword_rate_first": 1.0, "keyword_rate_interior": 1.0},
    {"tokens_per_page": 0.0},
    {"tokens_per_page": 200.0},
    {"first_page_boost": 0.0},
    {"filler_vocab": 1, "keywords_per_class": 1, "keyword_confusion": 1.0,
     "keyword_rate_first": 1.0},
])
def test_edge_configs_match_oracle(overrides):
    for seed in (0, 5):
        assert_same_corpus(SynthConfig(seed=seed, n_lawsuits=12,
                                       **overrides))


def shares(n):
    return st.lists(st.integers(1, 20), min_size=n, max_size=n).map(
        lambda w: tuple(x / sum(w) for x in w))


def rate():
    return st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(seed=st.integers(0, 2**32), n_lawsuits=st.integers(1, 5),
       class_freq=shares(6),
       doc_len_mean=st.lists(st.floats(1.0, 6.0), min_size=6, max_size=6),
       docs_per_lawsuit_mean=st.floats(0.0, 10.0),
       max_doc_len=st.integers(1, 15), markov_structure=rate(),
       text_dim=st.integers(1, 8), image_dim=st.integers(1, 8),
       first_page_boost=st.sampled_from([0.0, 0.5, 1.0]),
       missing_text_rate=rate(), missing_image_rate=rate(),
       tokens_per_page=st.floats(0.0, 120.0),
       keyword_rate_first=rate(), keyword_rate_interior=rate(),
       keyword_confusion=rate(), keywords_per_class=st.integers(1, 40),
       filler_vocab=st.integers(1, 400), split_fractions=shares(3))
def test_any_config_matches_oracle(**fields):
    fields["doc_len_mean"] = tuple(fields["doc_len_mean"])
    assert_same_corpus(SynthConfig(**fields))


def test_corpus_digest_is_pinned():
    """Holds for numpy 2.4: the normal, Poisson and choice draws are
    numpy's own.  Taken from the scalar-draw generator before the raw-word
    walk replaced it, so a change of draw order fails here even if the
    oracle moves with it."""
    corpus = generate_synthetic(SynthConfig(seed=7, n_lawsuits=20))
    assert corpus_digest(corpus) == PINNED_DIGEST


PINNED_DIGEST = ("09fa3977f941e7701fb6932402eda300"
                 "c539c337a64752a3d7b8cec3b0c8fe5c")
