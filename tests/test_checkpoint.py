from types import SimpleNamespace

import numpy as np
import pytest

from pageseq.checkpoint import (BestCheckpointKeeper, CheckpointIOError,
                                load_checkpoint, save_checkpoint)


def test_round_trip_mixed_widths(tmp_path):
    params = {
        "a.weight": np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32),
        "b.bias": np.random.default_rng(1).standard_normal(5),
        "scalarish": np.array([1.5], dtype=np.float64),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, {"epoch": 3})
    loaded, meta = load_checkpoint(path)
    assert meta == {"epoch": 3}
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].dtype == params[name].dtype
        np.testing.assert_array_equal(loaded[name], params[name])


def test_save_is_deterministic(tmp_path):
    params = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, {"epoch": 0})
    save_checkpoint(p2, params, {"epoch": 0})
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointIOError):
        load_checkpoint(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointIOError):
        load_checkpoint(tmp_path / "absent.ckpt")


def _model(**params):
    """A stand-in model whose snapshot is ``params``."""
    return SimpleNamespace(snapshot=lambda: dict(params))


def test_keeper_saves_only_on_strict_improvement(tmp_path):
    keeper = BestCheckpointKeeper(tmp_path / "best.ckpt")
    assert keeper.update(0.5, _model(w=np.zeros(2)), {"epoch": 0}) is True
    assert keeper.update(0.5, _model(w=np.ones(2)), {"epoch": 1}) is False
    # the tie kept the earlier snapshot
    loaded, meta = load_checkpoint(tmp_path / "best.ckpt")
    np.testing.assert_array_equal(loaded["w"], 0.0)
    assert meta["epoch"] == 0
    assert keeper.update(0.6, _model(w=np.ones(2)), {"epoch": 2}) is True
    _, meta = load_checkpoint(tmp_path / "best.ckpt")
    assert meta["epoch"] == 2
    assert meta["val_macro_f1"] == 0.6


def test_keeper_rejects_non_finite(tmp_path):
    keeper = BestCheckpointKeeper(tmp_path / "best.ckpt")
    with pytest.raises(ValueError):
        keeper.update(float("nan"), _model(w=np.zeros(1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_keeper_refuses_non_finite_parameters(tmp_path, bad):
    """The run fails, so the epoch it saved before goes too."""
    path = tmp_path / "best.ckpt"
    keeper = BestCheckpointKeeper(path)
    assert keeper.update(0.5, _model(w=np.zeros(2)), {"epoch": 0})
    model = _model(w=np.zeros(2), b=np.array([1.0, bad], dtype=np.float32))
    with pytest.raises(ValueError, match="not finite, 'b' first"):
        keeper.update(0.6, model, {"epoch": 1})
    assert not path.exists() and keeper.best_state is None


def test_keeper_discard_puts_back_the_file_it_replaced(tmp_path):
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, {"w": np.ones(3)}, {"epoch": 9})
    earlier = path.read_bytes()
    idle = BestCheckpointKeeper(path)
    idle.discard()  # it wrote nothing
    assert path.read_bytes() == earlier
    keeper = BestCheckpointKeeper(path)
    assert keeper.update(0.5, _model(w=np.zeros(2)), {"epoch": 0})
    assert keeper.update(0.7, _model(w=np.zeros(2)), {"epoch": 1})
    assert path.read_bytes() != earlier
    keeper.discard()
    keeper.discard()  # a second call changes nothing
    assert path.read_bytes() == earlier


def test_keeper_without_a_path_keeps_the_best_in_memory():
    keeper = BestCheckpointKeeper()
    assert keeper.update(0.5, _model(w=np.zeros(2))) is False
    assert keeper.update(0.4, _model(w=np.ones(2))) is False
    assert keeper.best_score == 0.5
    np.testing.assert_array_equal(keeper.best_state["w"], 0.0)


def _small_checkpoint(tmp_path):
    rng = np.random.default_rng(7)
    params = {
        "conv.weight": rng.standard_normal((2, 3)).astype(np.float32),
        "buf.bn.running_var": rng.standard_normal(2),
        "scalar": np.array(0.5, dtype=np.float32),
    }
    path = tmp_path / "small.ckpt"
    save_checkpoint(path, params, {"epoch": 1, "model": "textcnn"})
    return path, params


def _load_or_fail_cleanly(path):
    """A damaged file may still parse; anything else must be a
    CheckpointIOError that names the file."""
    try:
        params, meta = load_checkpoint(path)
    except CheckpointIOError as exc:
        assert str(path) in str(exc)
        return None
    assert isinstance(meta, dict)
    assert all(isinstance(v, np.ndarray) for v in params.values())
    return params


def test_truncation_at_every_offset_fails_cleanly(tmp_path):
    path, params = _small_checkpoint(tmp_path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        assert _load_or_fail_cleanly(cut) is None, f"{size} bytes loaded"
    cut.write_bytes(blob)
    loaded = _load_or_fail_cleanly(cut)
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])


def test_byte_flip_at_every_offset_fails_cleanly(tmp_path):
    path, _ = _small_checkpoint(tmp_path)
    blob = path.read_bytes()
    rng = np.random.default_rng(11)
    bad = tmp_path / "flipped.ckpt"
    for offset in range(len(blob)):
        for mask in (0xFF, int(rng.integers(1, 256))):
            damaged = bytearray(blob)
            damaged[offset] ^= mask
            bad.write_bytes(bytes(damaged))
            _load_or_fail_cleanly(bad)


def test_trailing_bytes_rejected(tmp_path):
    path, _ = _small_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointIOError, match="unexpected bytes"):
        load_checkpoint(path)


def test_save_replaces_atomically(tmp_path):
    path, params = _small_checkpoint(tmp_path)
    before = path.read_bytes()
    # a save that fails half-way leaves the old file and no temp file
    with pytest.raises(ValueError):
        save_checkpoint(path, {"a": np.zeros(2), "b": np.zeros(2, np.int8)})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.ckpt"]
