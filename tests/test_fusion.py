import hashlib
from pathlib import Path

import numpy as np
import pytest

from pageseq import cli
from pageseq.checkpoint import load_checkpoint
from pageseq.corpus import Page, iter_pages
from pageseq.fusion import (FusionConfig, FusionModule, HybridClassifier,
                            MajorityBaseline, MlpClassifier,
                            corpus_embedding_dims, embedding_arrays,
                            evaluate_fusion, fusion_grid, train_fusion)
from pageseq.experiments import concat_features, train_unimodal_mlp
from pageseq.iob import CLASSES
from pageseq.losses import cross_entropy
from pageseq.synth import SynthConfig, generate_synthetic

CFG = FusionConfig(text_dim=8, image_dim=6, hidden=16)


def _batch(rng, n, tmiss=(), imiss=()):
    text = rng.standard_normal((n, CFG.text_dim)).astype(np.float32)
    image = rng.standard_normal((n, CFG.image_dim)).astype(np.float32)
    tmask = np.ones(n, dtype=bool)
    imask = np.ones(n, dtype=bool)
    tmask[list(tmiss)] = False
    imask[list(imiss)] = False
    return text, image, tmask, imask


def test_forward_shape_and_missing_substitution(rng):
    model = FusionModule(CFG, seed=0)
    model.params["missing_text"] += 1.0
    text, image, tmask, imask = _batch(rng, 4, tmiss=[1])
    out = model.forward(text, image, tmask, imask, train=False)
    assert out.shape == (4, 6)
    # row 1 must not depend on its (absent) text features
    text2 = text.copy()
    text2[1] += 100
    out2 = model.forward(text2, image, tmask, imask, train=False)
    np.testing.assert_array_equal(out[1], out2[1])


def test_both_modalities_missing_rejected(rng):
    model = FusionModule(CFG, seed=0)
    text, image, tmask, imask = _batch(rng, 3, tmiss=[0], imiss=[0])
    with pytest.raises(ValueError):
        model.forward(text, image, tmask, imask)


def test_learned_missing_vector_gets_gradient(rng):
    model = FusionModule(CFG, seed=0)
    text, image, tmask, imask = _batch(rng, 6, tmiss=[2, 4])
    logits = model.forward(text, image, tmask, imask, train=True)
    _, d = cross_entropy(logits, np.zeros(6, dtype=int))
    model.zero_grads()
    model.backward(d)
    assert np.abs(model.grads["missing_text"]).sum() > 0
    assert np.abs(model.grads["missing_image"]).sum() == 0  # no image was missing


def test_zero_variant_missing_vector_never_trains(rng):
    config = FusionConfig(text_dim=8, image_dim=6, hidden=16,
                          missing_mode="zero")
    model = FusionModule(config, seed=0)
    text, image, tmask, imask = _batch(rng, 6, tmiss=[0, 1], imiss=[3])
    logits = model.forward(text, image, tmask, imask, train=True)
    _, d = cross_entropy(logits, np.zeros(6, dtype=int))
    model.zero_grads()
    model.backward(d)
    np.testing.assert_array_equal(model.grads["missing_text"], 0.0)
    np.testing.assert_array_equal(model.grads["missing_image"], 0.0)
    np.testing.assert_array_equal(model.params["missing_text"], 0.0)


def test_no_image_mask_ignores_images(rng):
    """The "w/o img acts" ablation: an all-False image mask gives every
    row the missing image vector, whatever the images hold."""
    model = FusionModule(CFG, seed=0)
    model.params["missing_image"] += 1.0
    text, image, tmask, imask = _batch(rng, 5, imiss=range(5))
    out = model.predict_probs(text, image, tmask, imask)
    out2 = model.predict_probs(text, image * 50, tmask, imask)
    np.testing.assert_array_equal(out, out2)
    x = model.concat(text, None, tmask, imask)
    np.testing.assert_array_equal(x[:, CFG.text_dim:], 1.0)


def test_no_image_mask_requires_text(rng):
    model = FusionModule(CFG, seed=0)
    text, image, tmask, imask = _batch(rng, 3, tmiss=[1], imiss=range(3))
    with pytest.raises(ValueError, match="both modalities missing"):
        model.forward(text, image, tmask, imask)


def test_config_names_match_grid_convention():
    assert FusionConfig(hidden=512).name == "FM-512"
    assert FusionConfig(hidden=128, missing_mode="zero").name == "FM-128-zero"
    with pytest.raises(ValueError):
        FusionConfig(missing_mode="sometimes")


def test_hybrid_classifier_delegation_and_counters():
    class Stub:
        def __init__(self, label):
            self.label = label

        def predict_page(self, page):
            return self.label

    hc = HybridClassifier(Stub("RE"), Stub("ARE"))
    with_text = Page("s", 0, "RE", True, text_tokens=["x"])
    image_only = Page("s", 1, "RE", False,
                      image_embedding=np.zeros(3, dtype=np.float32))
    assert hc.predict_page(with_text) == "RE"
    assert hc.predict_page(image_only) == "ARE"
    assert (hc.text_calls, hc.image_calls) == (1, 1)
    with pytest.raises(ValueError):
        hc.predict_page(Page("s", 2, "RE", False))


def test_majority_baseline_tie_breaks_low_index():
    baseline = MajorityBaseline(["RE", "ARE"])  # tied counts
    # ARE has the lower class index
    assert baseline.majority_class == "ARE"
    baseline = MajorityBaseline(["Others"] * 3 + ["RE"])
    assert baseline.majority_class == "Others"
    with pytest.raises(ValueError):
        MajorityBaseline([])


def test_embedding_arrays_masks():
    pages = [
        Page("s", 0, "RE", True,
             text_embedding=np.ones(4, dtype=np.float32),
             image_embedding=np.ones(3, dtype=np.float32)),
        Page("s", 1, "ARE", False,
             image_embedding=np.full(3, 2.0, dtype=np.float32)),
    ]
    text, image, tmask, imask, targets = embedding_arrays(pages, 4, 3)
    assert tmask.tolist() == [True, False]
    assert imask.tolist() == [True, True]
    assert targets.tolist() == [CLASSES.index("RE"), CLASSES.index("ARE")]
    # concat_features: each row is the page's embedding or the missing vector
    pages.append(Page("s", 2, "RE", False,
                      text_embedding=np.full(4, 3.0, dtype=np.float32)))
    fm = FusionModule(FusionConfig(text_dim=4, image_dim=3, hidden=5))
    fm.params["missing_text"][...] = [-1, -2, -3, -4]
    fm.params["missing_image"][...] = [-5, -6, -7]
    x = concat_features(pages, fm)
    assert x.dtype == np.float32
    for row, page in zip(x, pages):
        for got, emb, missing in ((row[:4], page.text_embedding,
                                   fm.params["missing_text"]),
                                  (row[4:], page.image_embedding,
                                   fm.params["missing_image"])):
            np.testing.assert_array_equal(
                got, missing if emb is None else emb)


def test_train_fusion_end_to_end_and_grid():
    corpus = generate_synthetic(SynthConfig(n_lawsuits=20, seed=8))
    text_dim, image_dim = corpus_embedding_dims(corpus)
    config = FusionConfig(text_dim=text_dim, image_dim=image_dim, hidden=16)
    model, _, log = train_fusion(corpus, config, seed=0, epochs=4)
    assert len(log.rows) == 4
    test_pages = list(iter_pages(corpus, "test"))
    data = embedding_arrays(test_pages, text_dim, image_dim)
    report = evaluate_fusion(model, data, [p.label for p in test_pages])
    assert report.macro_f1 > 0.2  # clearly above the 0.12 majority level

    results = fusion_grid(corpus, config, seed=0, epochs=1)
    assert set(results) == {"FM-512", "FM-512-zero", "FM-128", "FM-128-zero"}


def test_train_fusion_deterministic():
    corpus = generate_synthetic(SynthConfig(n_lawsuits=12, seed=8))
    text_dim, image_dim = corpus_embedding_dims(corpus)
    config = FusionConfig(text_dim=text_dim, image_dim=image_dim, hidden=8)
    m1, _, _ = train_fusion(corpus, config, seed=2, epochs=2)
    m2, _, _ = train_fusion(corpus, config, seed=2, epochs=2)
    for name, p1 in m1.state_dict().items():
        np.testing.assert_array_equal(p1, m2.state_dict()[name])


def _train_split_of(corpus, n_pages):
    """The corpus with its train split cut to the first ``n_pages`` pages."""
    kept, left = [], n_pages
    for lawsuit in corpus["train"]:
        if left == 0:
            break
        lawsuit.pages = lawsuit.pages[:left]
        left -= len(lawsuit.pages)
        kept.append(lawsuit)
    assert left == 0
    return dict(corpus, train=kept)


def test_train_fusion_merges_one_page_last_batch():
    """65 pages at batch size 64: one batch of 65, not 64 + a lone page
    that train-mode BatchNorm cannot normalise."""
    corpus = _train_split_of(
        generate_synthetic(SynthConfig(n_lawsuits=20, seed=8)), 65)
    assert len(list(iter_pages(corpus, "train"))) == 65
    text_dim, image_dim = corpus_embedding_dims(corpus)
    config = FusionConfig(text_dim=text_dim, image_dim=image_dim, hidden=8)
    _, _, log = train_fusion(corpus, config, seed=0, epochs=3, batch_size=64,
                             max_lr=5e-3)
    assert len(log.rows) == 3
    # one step per epoch: the last step is the schedule's last
    assert log.rows[-1].lr == pytest.approx(5e-3 / 1e4)


def test_train_unimodal_mlp_merges_one_page_last_batch():
    corpus = _train_split_of(generate_synthetic(
        SynthConfig(n_lawsuits=20, seed=8, missing_image_rate=0.0)), 65)
    model = train_unimodal_mlp(corpus, "image", hidden=8, epochs=2,
                               batch_size=64)
    assert model.predict_probs(np.zeros((2, model.bn0.dim),
                                        dtype=np.float32)).shape == (2, 6)


def test_mlp_classifier_shapes(rng):
    model = MlpClassifier(10, 8, seed=0)
    x = rng.standard_normal((5, 10)).astype(np.float32)
    probs = model.predict_probs(x)
    assert probs.shape == (5, 6)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def _state_sha256(state):
    digest = hashlib.sha256()
    for name, value in state.items():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def test_checkpoint_of_the_fusion_trunk_of_its_own_loads():
    """``data/fusion_parent.ckpt`` was written by pageseq at d19eb0c, when
    ``FusionModule`` built a trunk of its own, from that model with every
    entry perturbed (missing vectors and BN running stats included).  Its
    meta holds what that model gave on a batch with missing-text and
    missing-image rows (eval logits, ``hidden``, probabilities, then a
    train-mode step), and the digests of the fresh seed-3
    ``FusionModule`` and ``MlpClassifier`` states.  Restored through the
    CLI, the shared trunk gives all of it bit for bit."""
    path = Path(__file__).parent / "data" / "fusion_parent.ckpt"
    params, meta = load_checkpoint(path)
    model = cli._restore(path, params, meta, cli.FAMILIES[meta["model"]])
    batch = (np.float32(meta["text"]), np.float32(meta["image"]),
             np.array(meta["text_present"]), np.array(meta["image_present"]))
    assert not batch[2].all() and not batch[3].all()
    outputs = {"logits": model.forward(*batch), "hidden": model.hidden(*batch),
               "probs": model.predict_probs(*batch),
               "train_logits": model.forward(*batch, train=True)}
    model.zero_grads()
    model.backward(np.float32(meta["dlogits"]))
    mlp = MlpClassifier(CFG.concat_dim, CFG.hidden, seed=3)
    outputs["mlp_train_logits"] = mlp.forward(np.float32(meta["mlp_x"]),
                                              train=True)
    for name, got in outputs.items():
        assert got.dtype == np.float32, name
        np.testing.assert_array_equal(got, np.float32(meta[name]), name)
    assert _state_sha256(model.named_grads()) == meta["grads_sha256"]
    assert _state_sha256(FusionModule(CFG, seed=3).state_dict()) == \
        meta["fresh_fusion_sha256"]
    assert _state_sha256(MlpClassifier(CFG.concat_dim, CFG.hidden,
                                       seed=3).state_dict()) == \
        meta["fresh_mlp_sha256"]
