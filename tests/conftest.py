"""Shared test utilities: central finite differences at 64-bit, and a
traced memory peak."""

# pageseq pins the BLAS thread count from PAGESEQ_THREADS, which works
# only if it is imported before numpy loads its BLAS library
import pageseq  # noqa: F401  isort:skip

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same bounded examples on every run, so the
# suite stays deterministic and quick
settings.register_profile("pageseq", derandomize=True, database=None,
                          max_examples=40, deadline=None)
settings.load_profile("pageseq")


def central_diff(fn, arr, coords, h=1e-5):
    """Numeric partial derivatives of scalar ``fn()`` w.r.t. arr[coords]."""
    out = []
    for idx in coords:
        orig = arr[idx]
        arr[idx] = orig + h
        plus = fn()
        arr[idx] = orig - h
        minus = fn()
        arr[idx] = orig
        out.append((plus - minus) / (2.0 * h))
    return np.array(out)


def sample_coords(rng, shape, count):
    """Up to ``count`` distinct multi-indices of an array shape."""
    size = int(np.prod(shape))
    flat = rng.choice(size, size=min(count, size), replace=False)
    return [np.unravel_index(i, shape) for i in np.atleast_1d(flat)]


def max_rel_err(numeric, analytic):
    denom = np.maximum(1e-8, np.maximum(np.abs(numeric), np.abs(analytic)))
    return float(np.max(np.abs(numeric - analytic) / denom))


def check_grads(fn, arr, analytic, rng, count=60, h=1e-5, tol=1e-4):
    coords = sample_coords(rng, arr.shape, count)
    numeric = central_diff(fn, arr, coords, h=h)
    got = np.array([analytic[idx] for idx in coords])
    err = max_rel_err(numeric, got)
    assert err <= tol, f"max relative error {err} over {len(coords)} coords"
    return len(coords)


def traced_peak(fn):
    """``(fn(), peak, held)``: the most bytes the call had allocated at
    once under tracemalloc, and the bytes still allocated after it, both
    counted from the start of the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, held - base


@pytest.fixture
def rng():
    return np.random.default_rng(0)
