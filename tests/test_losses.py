import warnings

import numpy as np
import pytest

from conftest import check_grads
from pageseq.losses import class_weights, cross_entropy


def test_class_weights_identity():
    """n = sum over classes of frequency times weight, exactly."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        counts = rng.integers(1, 10_000, size=rng.integers(2, 10))
        w = class_weights(counts)
        n = counts.sum()
        assert np.sum(counts * w) == pytest.approx(n, rel=1e-12)


def test_class_weights_worked_example():
    # training-split page counts for the six classes; the dominant class
    # ends up with weight n / (c * f) ~ 0.1854
    counts = [553, 2546, 346, 134134, 9509, 2129]
    w = class_weights(counts)
    n, c = sum(counts), len(counts)
    assert w[3] == pytest.approx(n / (c * 134134), abs=1e-12)
    assert w[3] == pytest.approx(0.1854, abs=1e-4)


def test_class_weights_zero_count_raises():
    with pytest.raises(ValueError):
        class_weights([3, 0, 5])


def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 6))
    loss, _ = cross_entropy(logits, np.array([0, 1, 2, 3]))
    assert loss == pytest.approx(np.log(6.0))


def test_cross_entropy_perfect_prediction_low_loss():
    logits = np.full((2, 3), -50.0)
    logits[0, 1] = 50.0
    logits[1, 2] = 50.0
    loss, _ = cross_entropy(logits, np.array([1, 2]))
    assert loss < 1e-6


def test_cross_entropy_gradient_unweighted(rng):
    logits = rng.standard_normal((5, 4))
    targets = np.array([0, 1, 2, 3, 1])
    _, d = cross_entropy(logits, targets)
    fn = lambda: cross_entropy(logits, targets)[0]
    check_grads(fn, logits, d, rng)


def test_cross_entropy_gradient_weighted(rng):
    logits = rng.standard_normal((6, 3))
    targets = np.array([0, 1, 2, 0, 1, 2])
    weights = np.array([0.2, 1.0, 3.0])
    _, d = cross_entropy(logits, targets, weights)
    fn = lambda: cross_entropy(logits, targets, weights)[0]
    check_grads(fn, logits, d, rng)


def test_cross_entropy_weighting_raises_minority_loss():
    logits = np.zeros((1, 2))
    logits[0, 0] = 3.0  # confidently wrong about class 1
    base, _ = cross_entropy(logits, np.array([1]))
    up, _ = cross_entropy(logits, np.array([1]), np.array([1.0, 5.0]))
    assert up == pytest.approx(5 * base)


def test_cross_entropy_finite_when_target_probability_underflows():
    """softmax([0, 200])[0] is 0 in float32; its log-softmax is -200."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, dlogits = cross_entropy(np.array([[0.0, 200.0]], np.float32),
                                      np.array([0]))
    assert loss == pytest.approx(200.0)
    np.testing.assert_array_equal(dlogits, [[-1.0, 1.0]])
