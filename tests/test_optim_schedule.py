import math

import numpy as np
import pytest

from pageseq.lstm import BiLstm
from pageseq.optim import _BLOCK, Adam
from pageseq.schedule import OneCycleSchedule, lr_range_test


def test_adam_first_step_size_equals_lr():
    """With bias correction the first update has magnitude lr per coord."""
    w = np.ones(3, dtype=np.float64)
    opt = Adam({"w": w})
    opt.step({"w": np.array([1.0, -2.0, 0.5])}, lr=0.1)
    np.testing.assert_allclose(w, [0.9, 1.1, 0.9], atol=1e-6)


def test_adam_converges_on_quadratic():
    w = np.array([5.0, -3.0])
    opt = Adam({"w": w})
    for _ in range(600):
        opt.step({"w": 2 * w}, lr=0.05)
    np.testing.assert_allclose(w, 0.0, atol=1e-3)


def test_adam_rejects_nonpositive_lr():
    opt = Adam({"w": np.zeros(1)})
    with pytest.raises(ValueError):
        opt.step({"w": np.zeros(1)}, lr=0.0)
    with pytest.raises(ValueError):  # NaN compares false with 0 as well
        opt.step({"w": np.zeros(1)}, lr=math.nan)


def test_adam_state_per_parameter():
    w1, w2 = np.zeros(2), np.zeros(2)
    opt = Adam({"a": w1, "b": w2})
    opt.step({"a": np.ones(2), "b": np.zeros(2)}, lr=0.1)
    assert np.all(w1 != 0)
    np.testing.assert_array_equal(w2, 0)



def _formula_adam_steps(params, grads, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam update written out with full-size temporaries."""
    m = {k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()}
    v = {k: np.zeros_like(p, dtype=np.float64) for k, p in params.items()}
    for t, (g_step, lr) in enumerate(zip(grads, lrs), start=1):
        b1t, b2t = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for name, p in params.items():
            g = g_step[name].astype(np.float64)
            m[name] += (1.0 - beta1) * (g - m[name])
            v[name] += (1.0 - beta2) * (g * g - v[name])
            update = lr * (m[name] / b1t) / (np.sqrt(v[name] / b2t) + eps)
            p -= update.astype(p.dtype)


def test_adam_matches_the_formula_bit_for_bit():
    """Five steps at varying lr on float32 and float64 parameters, on
    views into a BiLstm's stacked weights, and on parameters of 2.5
    blocks and of one block and one element, equal the written-out
    update byte for byte; the shared scratch leaks nothing between
    parameters or blocks, and is at most one block."""
    rng = np.random.default_rng(0)
    lstm = BiLstm(6, 3, np.random.default_rng(1))
    params = dict(lstm.params)  # views into lstm.stacked
    params.update(w32=rng.standard_normal((7, 5)).astype(np.float32),
                  w64=rng.standard_normal((4, 9)),
                  b32=rng.standard_normal(3).astype(np.float32),
                  big32=rng.standard_normal((5, _BLOCK // 2))
                  .astype(np.float32),
                  big64=rng.standard_normal(_BLOCK + 1))
    ref = {k: v.copy() for k, v in params.items()}
    grads = [{k: (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-3, 3))
              .astype(p.dtype) for k, p in ref.items()} for _ in range(5)]
    lrs = [1e-3, 5e-2, 3e-4, 0.2, 7e-3]
    opt = Adam(params)
    assert opt._scratch[0].size <= _BLOCK
    for g, lr in zip(grads, lrs):
        opt.step(g, lr)
    _formula_adam_steps(ref, grads, lrs)
    for name, p in params.items():
        assert p.dtype == ref[name].dtype
        assert p.tobytes() == ref[name].tobytes(), name
    assert lstm.stacked["w_h"][1].tobytes() == ref["bwd.w_h"].tobytes()


def test_adam_rejects_a_non_contiguous_parameter():
    """A flat view of a strided array is a copy, so a step would update
    the copy and lose it: the optimizer refuses such a parameter."""
    with pytest.raises(ValueError, match="w_t"):
        Adam({"w": np.zeros((3, 4)), "w_t": np.zeros((4, 3)).T})


def test_one_cycle_anchor_points():
    sched = OneCycleSchedule(total_steps=100, max_lr=0.4)
    assert sched.lr(0) == pytest.approx(0.4 / 25)
    assert sched.lr(sched.peak_step) == pytest.approx(0.4)
    assert sched.lr(99) == pytest.approx(0.4 / 1e4)


def test_one_cycle_rises_then_falls():
    sched = OneCycleSchedule(total_steps=50, max_lr=1.0)
    lrs = [sched.lr(i) for i in range(50)]
    peak = sched.peak_step
    assert all(lrs[i] <= lrs[i + 1] + 1e-12 for i in range(peak))
    assert all(lrs[i] >= lrs[i + 1] - 1e-12 for i in range(peak, 49))


def test_one_cycle_rejects_degenerate():
    with pytest.raises(ValueError):
        OneCycleSchedule(total_steps=1, max_lr=0.1)
    sched = OneCycleSchedule(total_steps=10, max_lr=0.1)
    with pytest.raises(ValueError):
        sched.lr(10)


def test_range_test_lr_column_geometric():
    losses = iter(np.linspace(2.0, 1.0, 50))

    def loss_step(batch, lr):
        return next(losses)

    result = lr_range_test(loss_step, iter(range(50)), 1e-5, 1.0, 50)
    lrs = result.lrs
    assert all(lrs[i] < lrs[i + 1] for i in range(len(lrs) - 1))
    ratios = [lrs[i + 1] / lrs[i] for i in range(len(lrs) - 1)]
    assert max(ratios) - min(ratios) < 1e-9
    assert lrs[0] == pytest.approx(1e-5)
    assert lrs[-1] == pytest.approx(1.0)


def test_range_test_diverges_early():
    calls = []

    def loss_step(batch, lr):
        calls.append(lr)
        return 1.0 if len(calls) < 10 else 100.0

    result = lr_range_test(loss_step, iter(range(100)), 1e-4, 10.0, 100)
    assert len(result.lrs) < 100


def test_range_test_suggestion_on_convex_model():
    """Quadratic model: loss falls until lr passes the stability limit."""
    w = np.array([10.0])

    def loss_step(batch, lr):
        loss = float(w[0] ** 2)
        w[0] -= lr * 2 * w[0]
        return loss

    result = lr_range_test(loss_step, iter(range(80)), 1e-4, 5.0, 80)
    assert result.lrs[0] <= result.suggested_lr <= result.lrs[-1]
    idx = result.lrs.index(result.suggested_lr)
    assert result.smoothed_losses[idx + 1] < result.smoothed_losses[idx]


def test_range_test_rejects_bad_bounds():
    with pytest.raises(ValueError):
        lr_range_test(lambda b, lr: 1.0, iter(range(5)), 1.0, 0.1, 10)
