import numpy as np
import pytest

from conftest import check_grads
from pageseq.lstm import BiLstm, LstmCell
from pageseq.tensor import RngState


def _rng():
    return RngState(1).consumer("test-lstm")


def test_lstm_output_shape():
    cell = LstmCell(3, 5, _rng(), np.float64)
    out = cell.forward(np.zeros((4, 3)))
    assert out.shape == (4, 5)


def test_lstm_state_carries_forward():
    """A step's output must depend on earlier inputs."""
    cell = LstmCell(2, 3, _rng(), np.float64)
    x = np.zeros((3, 2))
    base = cell.forward(x)[2].copy()
    x2 = x.copy()
    x2[0, 0] = 5.0  # perturb only the first step
    changed = cell.forward(x2)[2]
    assert not np.allclose(base, changed)


def _check_cell_grads(t_len, rng):
    cell = LstmCell(3, 4, _rng(), np.float64)
    x = rng.standard_normal((t_len, 3))
    c = rng.standard_normal((t_len, 4))
    fn = lambda: float((cell.forward(x, train=True) * c).sum())
    cell.forward(x, train=True)
    cell.zero_grads()
    dx = cell.backward(c.copy())
    for name in ("w_x", "w_h", "bias"):
        check_grads(fn, cell.params[name], cell.grads[name], rng)
    check_grads(fn, x, dx, rng)


def test_lstm_gradients_over_three_steps(rng):
    _check_cell_grads(3, rng)


def test_lstm_gradients_over_forty_steps(rng):
    """Finite differences through a long recurrence."""
    _check_cell_grads(40, rng)


def test_bilstm_output_is_concat_of_directions():
    bil = BiLstm(2, 3, _rng(), np.float64)
    out = bil.forward(np.zeros((5, 2)))
    assert out.shape == (5, 6)


def test_bilstm_backward_depends_on_future():
    """Reversed direction means early outputs see late inputs."""
    bil = BiLstm(2, 3, _rng(), np.float64)
    x = np.zeros((4, 2))
    base = bil.forward(x)[0].copy()
    x2 = x.copy()
    x2[3, 1] = 4.0
    changed = bil.forward(x2)[0]
    assert not np.allclose(base, changed)


def _check_bilstm_grads(t_len, rng):
    bil = BiLstm(3, 2, _rng(), np.float64)
    x = rng.standard_normal((t_len, 3))
    c = rng.standard_normal((t_len, 4))
    fn = lambda: float((bil.forward(x, train=True) * c).sum())
    bil.forward(x, train=True)
    bil.zero_grads()
    dx = bil.backward(c.copy())
    for name, param in bil.params.items():
        check_grads(fn, param, bil.grads[name], rng, count=30)
    check_grads(fn, x, dx, rng)


def test_bilstm_gradients(rng):
    _check_bilstm_grads(4, rng)


def test_bilstm_gradients_over_forty_steps(rng):
    _check_bilstm_grads(40, rng)


def test_bilstm_param_aliasing_survives_zero_grads():
    """named grads alias the cells' grad buffers even after zeroing."""
    bil = BiLstm(2, 2, _rng(), np.float64)
    x = np.random.default_rng(0).standard_normal((3, 2))
    bil.forward(x, train=True)
    bil.zero_grads()
    bil.backward(np.ones((3, 4)))
    assert any(np.abs(g).sum() > 0 for g in bil.grads.values())


def test_float32_gradients_match_float64():
    gen = np.random.default_rng(5)
    cells = {dt: LstmCell(64, 32, _rng(), dt) for dt in (np.float32, np.float64)}
    for name, p in cells[np.float64].params.items():
        cells[np.float32].params[name][...] = p
    x = gen.standard_normal((40, 64))
    dh = gen.standard_normal((40, 32))
    out = {}
    for dt, cell in cells.items():
        cell.forward(x.astype(dt), train=True)
        cell.zero_grads()
        dx = cell.backward(dh.astype(dt))
        assert dx.dtype == dt
        out[dt] = dict(cell.grads, dx=dx)
    for name, want in out[np.float64].items():
        got = out[np.float32][name].astype(np.float64)
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 2e-5, (name, rel)


def test_eval_forward_matches_train_forward_and_keeps_no_cache():
    cell = LstmCell(5, 6, _rng())
    x = np.random.default_rng(2).standard_normal((30, 5)).astype(np.float32)
    trained = cell.forward(x, train=True)
    assert cell._cache is not None
    evaluated = cell.forward(x, train=False)
    np.testing.assert_array_equal(trained, evaluated)
    assert cell._cache is None


def test_backward_after_eval_forward_names_the_cause():
    cell = LstmCell(5, 6, _rng())
    x = np.random.default_rng(2).standard_normal((4, 5))
    cell.forward(x, train=False)
    with pytest.raises(RuntimeError, match="train=True"):
        cell.backward(np.ones((4, 6)))


def _loop_backward(cell, x, dh_seq):
    """Reference BPTT: one step at a time, weight grads as outer products."""
    h_dim = cell.hidden
    w_x, w_h, bias = (cell.params[n] for n in ("w_x", "w_h", "bias"))
    h, c, steps = np.zeros(h_dim), np.zeros(h_dim), []
    for t in range(len(x)):
        a = x[t] @ w_x + h @ w_h + bias
        i, f, o = (1.0 / (1.0 + np.exp(-a[k * h_dim : (k + 1) * h_dim]))
                   for k in (0, 1, 3))
        g = np.tanh(a[2 * h_dim : 3 * h_dim])
        steps.append((i, f, g, o, c, h))
        c = f * c + i * g
        h = o * np.tanh(c)
    grads = {n: np.zeros_like(p) for n, p in cell.params.items()}
    dx = np.zeros_like(x)
    dh_next, dc_next = np.zeros(h_dim), np.zeros(h_dim)
    for t in range(len(x) - 1, -1, -1):
        i, f, g, o, c_prev, h_prev = steps[t]
        tc = np.tanh(f * c_prev + i * g)
        dh = dh_seq[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tc * tc)
        da = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)])
        grads["w_x"] += np.outer(x[t], da)
        grads["w_h"] += np.outer(h_prev, da)
        grads["bias"] += da
        dx[t] = w_x @ da
        dh_next = w_h @ da
        dc_next = dc * f
    return grads, dx


def test_backward_matches_step_by_step_reference():
    gen = np.random.default_rng(6)
    cell = LstmCell(7, 5, _rng(), np.float64)
    cell.params["bias"][...] = gen.standard_normal(20)
    for t_len in (1, 2, 40):
        x = gen.standard_normal((t_len, 7))
        dh = gen.standard_normal((t_len, 5))
        cell.forward(x, train=True)
        cell.zero_grads()
        dx = cell.backward(dh)
        want, want_dx = _loop_backward(cell, x, dh)
        np.testing.assert_allclose(dx, want_dx, rtol=1e-12, atol=1e-12)
        for name, g in want.items():
            np.testing.assert_allclose(cell.grads[name], g, rtol=1e-12,
                                       atol=1e-12)
