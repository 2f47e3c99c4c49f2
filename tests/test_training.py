from types import SimpleNamespace

import numpy as np
import pytest

from pageseq.checkpoint import BestCheckpointKeeper, load_checkpoint
from pageseq.fusion import MlpClassifier
from pageseq.schedule import OneCycleSchedule
from pageseq.training import (TrainingDiverged, classifier_loss, fit,
                              iterate_minibatches, minibatch_count)


def _sizes(n, batch_size):
    rng = np.random.default_rng(0)
    return [len(b) for b in iterate_minibatches(n, batch_size, rng)]


@pytest.mark.parametrize("n, batch_size, expect", [
    (65, 64, [65]), (66, 64, [64, 2]), (64, 64, [64]), (129, 64, [64, 65]),
    (1, 64, [1]), (10, 64, [10]), (17, 8, [8, 9]), (3, 1, [1, 1, 1]),
])
def test_one_item_last_batch_joins_the_one_before(n, batch_size, expect):
    assert _sizes(n, batch_size) == expect
    assert minibatch_count(n, batch_size) == len(expect)


def test_batching_is_plain_slicing_unless_one_item_is_left():
    for n in range(2, 300):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        order = rng_a.permutation(n)
        batches = list(iterate_minibatches(n, 64, rng_b))
        assert len(batches) == minibatch_count(n, 64)
        if n % 64 == 1:
            continue
        plain = [order[s : s + 64] for s in range(0, n, 64)]
        assert len(batches) == len(plain)
        for x, y in zip(batches, plain):
            np.testing.assert_array_equal(x, y)


def test_merged_batches_cover_every_index_once():
    rng = np.random.default_rng(1)
    batches = list(iterate_minibatches(129, 64, rng))
    assert sorted(np.concatenate(batches).tolist()) == list(range(129))


# ------------------------------------------------------------------- fit

def _mlp_problem(n=10, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 5)).astype(np.float32)
    y = rng.integers(0, 3, n)
    model = MlpClassifier(5, 4, classes=3, seed=seed)
    return model, x, y


def _scripted(scores, states=None):
    """An ``evaluate`` that reports the given macro-F1s in turn and
    records the model state it saw."""
    scores = iter(scores)

    def evaluate(model):
        if states is not None:
            states.append(model.snapshot())
        return SimpleNamespace(macro_f1=next(scores), weighted_f1=0.0)
    return evaluate


def _fit(model, x, y, epochs=4, **kw):
    return fit(model, len(x), classifier_loss(model, [x], y),
               np.random.default_rng(1), epochs, 4, 1e-2, **kw)


def _same_state(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def test_fit_restores_the_first_best_epoch():
    model, x, y = _mlp_problem()
    states = []
    _fit(model, x, y, evaluate=_scripted([0.2, 0.5, 0.5, 0.3], states))
    assert not _same_state(states[1], states[3])
    assert _same_state(model.state_dict(), states[1])


def test_fit_keeper_saves_only_on_strict_improvement(tmp_path):
    model, x, y = _mlp_problem()
    states = []
    keeper = BestCheckpointKeeper(tmp_path / "best.ckpt", {"model": "mlp"})
    log = _fit(model, x, y, evaluate=_scripted([0.2, 0.5, 0.5, 0.6], states),
               keeper=keeper)
    assert [r.saved for r in log.rows] == [True, True, False, True]
    params, meta = load_checkpoint(tmp_path / "best.ckpt")
    assert meta == {"model": "mlp", "epoch": 3, "val_macro_f1": 0.6}
    assert _same_state(params, states[3])


def test_fit_logs_one_row_per_epoch_with_its_last_steps_lr():
    model, x, y = _mlp_problem(n=10)
    log = _fit(model, x, y, epochs=3, evaluate=_scripted([0.1, 0.2, 0.3]))
    per_epoch = minibatch_count(10, 4)
    sched = OneCycleSchedule(total_steps=3 * per_epoch, max_lr=1e-2)
    assert [r.epoch for r in log.rows] == [0, 1, 2]
    assert [r.lr for r in log.rows] == [sched.lr((e + 1) * per_epoch - 1)
                                        for e in range(3)]
    assert [r.val_macro_f1 for r in log.rows] == [0.1, 0.2, 0.3]
    assert all(np.isfinite(r.train_loss) for r in log.rows)


def test_fit_without_evaluate_keeps_the_last_step():
    model, x, y = _mlp_problem()
    log = _fit(model, x, y)
    # each epoch still logs its rate and mean loss, with no validation
    assert [(r.epoch, r.val_macro_f1, r.val_weighted_f1, r.saved)
            for r in log.rows] == [(e, None, None, False) for e in range(4)]
    assert all(np.isfinite(r.train_loss) and r.lr > 0 for r in log.rows)
    # a run whose last epoch scores best restores exactly that state
    other, _, _ = _mlp_problem()
    _fit(other, x, y, evaluate=_scripted([0.1, 0.9, 0.8, 0.7]))
    last, _, _ = _mlp_problem()
    _fit(last, x, y, evaluate=_scripted([0.1, 0.2, 0.3, 0.4]))
    assert _same_state(model.state_dict(), last.state_dict())
    assert not _same_state(model.state_dict(), other.state_dict())


@pytest.mark.parametrize("n, batch, epochs", [(10, 4, 3), (9, 4, 2),
                                              (8, 8, 2), (17, 8, 5)])
def test_fit_step_count(n, batch, epochs):
    model, x, y = _mlp_problem(n=n)
    calls = []
    loss_fn = classifier_loss(model, [x], y)
    fit(model, n, lambda idx: calls.append(len(idx)) or loss_fn(idx),
        np.random.default_rng(0), epochs, batch, 1e-2)
    assert len(calls) == epochs * minibatch_count(n, batch)
    assert sum(calls) == epochs * n


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fit_stops_at_the_first_non_finite_loss(bad):
    model, x, y = _mlp_problem(n=10)
    loss_fn = classifier_loss(model, [x], y)
    calls = []

    def diverging(idx):
        calls.append(len(idx))
        return loss_fn(idx) if len(calls) < 5 else bad

    evaluated = []
    with pytest.raises(TrainingDiverged, match="at epoch 1, step 4"):
        fit(model, 10, diverging, np.random.default_rng(0), 3, 4, 1e-2,
            evaluate=lambda m: evaluated.append(1) or
            SimpleNamespace(macro_f1=0.1, weighted_f1=0.0))
    assert len(calls) == 5 and len(evaluated) == 1
