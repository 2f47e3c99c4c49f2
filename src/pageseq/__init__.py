"""Sequence-aware multimodal page classification on precomputed embeddings."""

import os as _os

# Cap BLAS worker threads before numpy initialises its backend; one
# thread is the default so identical runs stay bit-identical.
_threads = _os.environ.get("PAGESEQ_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)

from .iob import CLASSES, IOB_TAGS, iob_collapse, iob_encode
from .metrics import score, score_by_first_page, score_collapsed
from .synth import SynthConfig, generate_synthetic
from .tensor import RngState, softmax

__all__ = [
    "CLASSES", "IOB_TAGS", "iob_collapse", "iob_encode",
    "score", "score_by_first_page", "score_collapsed",
    "SynthConfig", "generate_synthetic",
    "RngState", "softmax",
]

__version__ = "0.1.0"
