import numpy as np
import pytest

from pageseq.fusion import FusionConfig, FusionModule


def _model():
    return FusionModule(FusionConfig(text_dim=5, image_dim=4, hidden=6), seed=0)


def test_state_dict_separates_buffers():
    model = _model()
    state = model.state_dict()
    assert any(k.startswith("buf.") for k in state)
    assert set(model.named_params()).isdisjoint(
        k for k in state if k.startswith("buf."))


def test_snapshot_restores_params_and_buffers(rng):
    model = _model()
    text = rng.standard_normal((4, 5)).astype(np.float32)
    image = rng.standard_normal((4, 4)).astype(np.float32)
    mask = np.ones(4, dtype=bool)
    snap = model.snapshot()
    model.forward(text, image, mask, mask, train=True)  # moves BN stats
    for p in model.named_params().values():
        p += 1.0
    model.load_state(snap)
    restored = model.state_dict()
    for name, value in snap.items():
        np.testing.assert_array_equal(restored[name], value)


def test_load_state_rejects_unknown_key():
    model = _model()
    state = model.snapshot()
    state["bogus"] = np.zeros(1)
    with pytest.raises(KeyError):
        model.load_state(state)


def test_load_state_rejects_missing_key():
    model = _model()
    state = model.snapshot()
    del state["bn0.beta"]
    with pytest.raises(KeyError, match="bn0.beta"):
        model.load_state(state)


def test_load_state_rejects_wrong_shape():
    model = _model()
    state = model.snapshot()
    state["fc1.bias"] = np.zeros(7, dtype=np.float32)
    with pytest.raises(ValueError, match="fc1.bias"):
        model.load_state(state)


def test_adam_never_sees_buffers():
    model = _model()
    assert all(not k.startswith("buf.") for k in model.named_params())
    assert set(model.named_params()) == set(model.named_grads())
