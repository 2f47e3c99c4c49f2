"""Synthetic corpus oracle: the generator with one scalar draw per call.

``synth.generate_synthetic`` used to draw each page's tokens with one to
four scalar ``Generator`` calls per token (``random`` for the keyword
and confusion tests, ``integers`` for the class and the pool index).
That code is kept here, unchanged, as the oracle for the walk over raw
PCG64 words that replaced it: both must give the same corpus byte for
byte from every (seed, config) pair.
"""

import numpy as np

from pageseq.corpus import Lawsuit, Page
from pageseq.iob import CLASSES
from pageseq.synth import (SynthConfig, _strengths, doc_type_distribution,
                           markov_matrix)
from pageseq.tensor import RngState


def generate_synthetic(config: SynthConfig) -> dict:
    """The parent's generator: one scalar ``Generator`` call per draw."""
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
    return {
        "train": [lawsuits[i] for i in order[:n_train]],
        "validation": [lawsuits[i] for i in order[n_train : n_train + n_val]],
        "test": [lawsuits[i] for i in order[n_train + n_val :]],
    }
