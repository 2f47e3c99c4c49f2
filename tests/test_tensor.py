import numpy as np
import pytest

from crf_reference import log_sum_exp
from pageseq.tensor import RngState, softmax


def test_log_sum_exp_single_element():
    assert log_sum_exp(np.array([5.0])) == pytest.approx(5.0)


def test_log_sum_exp_no_overflow():
    val = log_sum_exp(np.array([1000.0, 1000.0]))
    assert val == pytest.approx(1000.0 + np.log(2.0))


def test_log_sum_exp_matches_naive_on_small_values():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50)
    assert log_sum_exp(x) == pytest.approx(np.log(np.exp(x).sum()))


def test_log_sum_exp_empty_raises():
    with pytest.raises(ValueError):
        log_sum_exp(np.array([]))


def test_log_sum_exp_axis():
    x = np.array([[0.0, 0.0], [1.0, 3.0]])
    out = log_sum_exp(x, axis=1)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(np.log(2.0))


def test_softmax_sums_to_one_and_preserves_argmax():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 5)) * 10
    p = softmax(x, axis=1)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_array_equal(p.argmax(axis=1), x.argmax(axis=1))


def test_softmax_extreme_values_finite():
    p = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)


def test_rng_consumer_streams_are_independent():
    a = RngState(0).consumer("alpha").standard_normal(5)
    b = RngState(0).consumer("beta").standard_normal(5)
    assert not np.allclose(a, b)


def test_rng_consumer_deterministic():
    a = RngState(42).consumer("x").standard_normal(10)
    b = RngState(42).consumer("x").standard_normal(10)
    np.testing.assert_array_equal(a, b)


def test_rng_adding_consumer_does_not_perturb_existing():
    state = RngState(7)
    first = state.consumer("train").standard_normal(4)
    state2 = RngState(7)
    state2.consumer("extra")  # a new consumer someone added later
    second = state2.consumer("train").standard_normal(4)
    np.testing.assert_array_equal(first, second)
