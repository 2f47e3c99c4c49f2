import itertools
from pathlib import Path

import numpy as np
import pytest

import crf_reference
from conftest import check_grads
from pageseq import cli
from pageseq import crf as C
from pageseq.checkpoint import load_checkpoint
from pageseq.iob import IOB_TAGS
from pageseq.model_base import ModelBase
from pageseq.optim import Adam


def _random_instance(rng, t, k, scale=1.0):
    return (rng.standard_normal((t, k)) * scale,
            rng.standard_normal((k, k)) * scale,
            rng.standard_normal(k) * scale,
            rng.standard_normal(k) * scale)


def test_sequence_score_manual():
    em = np.array([[1.0, 0.0], [0.0, 2.0]])
    tr = np.array([[0.1, 0.2], [0.3, 0.4]])
    start = np.array([0.5, 0.0])
    stop = np.array([0.0, 0.7])
    s = C.sequence_score(em, tr, start, stop, [0, 1])
    assert s == pytest.approx(0.5 + 1.0 + 0.2 + 2.0 + 0.7)


def test_log_partition_single_step():
    em = np.array([[1.0, 2.0, 3.0]])
    start = np.array([0.1, 0.2, 0.3])
    stop = np.array([0.0, 0.0, 0.0])
    tr = np.zeros((3, 3))
    expect = np.log(np.exp(em[0] + start + stop).sum())
    lz = crf_reference.forward_log_partition(em, tr, start, stop)
    assert lz == pytest.approx(expect)


def test_log_partition_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        em, tr, st, sp = _random_instance(rng, t, k)
        lz = crf_reference.forward_log_partition(em, tr, st, sp)
        bz = crf_reference.brute_force_log_partition(em, tr, st, sp)
        assert abs(lz - bz) <= 1e-8


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        em, tr, st, sp = _random_instance(rng, t, k)
        path, s = C.viterbi_decode(em, tr, st, sp)
        bpath, bs = crf_reference.brute_force_decode(em, tr, st, sp)
        assert s == pytest.approx(bs, abs=1e-9)
        assert path == bpath


def test_viterbi_tie_breaks_to_lowest_index():
    # all-zero scores: every path ties, rule picks all-zeros path
    em = np.zeros((4, 3))
    path, _ = C.viterbi_decode(em, np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    assert path == [0, 0, 0, 0]


def test_viterbi_single_tag():
    em = np.array([[0.3], [0.1]])
    path, s = C.viterbi_decode(em, np.zeros((1, 1)), np.zeros(1), np.zeros(1))
    assert path == [0, 0]


def test_viterbi_avoids_forbidden_bigram():
    k = 3
    rng = np.random.default_rng(7)
    em = rng.standard_normal((2, k)) * 0.01  # tie-breaking jitter
    em[:, 1] += 5.0  # tag 1 dominant on both steps
    tr = rng.standard_normal((k, k)) * 0.01
    tr[1, 1] = -100.0  # but the 1->1 bigram is forbidden
    path, _ = C.viterbi_decode(em, tr, np.zeros(k), np.zeros(k))
    assert path != [1, 1]
    assert 1 in path  # the dominant tag is still used once
    bpath, _ = crf_reference.brute_force_decode(em, tr, np.zeros(k),
                                                np.zeros(k))
    assert path == bpath


def test_marginals_match_brute_force_and_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(30):
        t = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        em, tr, st, sp = _random_instance(rng, t, k)
        unary, pairwise, _ = C.forward_backward(em, tr, st, sp)
        bunary = crf_reference.brute_force_marginals(em, tr, st, sp)
        np.testing.assert_allclose(unary, bunary, atol=1e-10)
        np.testing.assert_allclose(unary.sum(axis=1), 1.0, atol=1e-10)
        if t > 1:
            # expected transition counts sum to T-1
            assert pairwise.sum() == pytest.approx(t - 1, abs=1e-8)


def test_nll_gradients(rng):
    em, tr, st, sp = _random_instance(np.random.default_rng(3), 4, 3)
    gold = np.array([0, 2, 1, 1])
    nll, d_em, d_tr, d_st, d_sp = C.nll_and_grad(em, tr, st, sp, gold)
    assert nll >= 0

    def fn():
        return (crf_reference.forward_log_partition(em, tr, st, sp)
                - C.sequence_score(em, tr, st, sp, gold))

    check_grads(fn, em, d_em, rng)
    check_grads(fn, tr, d_tr, rng)
    check_grads(fn, st, d_st, rng)
    check_grads(fn, sp, d_sp, rng)


def test_crf_model_emission_map_and_grads(rng):
    model = C.CrfModel(n_tags=3, n_features=4)
    gen = np.random.default_rng(4)
    for name in model.params:
        model.params[name] += gen.standard_normal(model.params[name].shape) * 0.3
    feats = gen.standard_normal((5, 4))
    gold = np.array([0, 1, 2, 1, 0])
    nll, grads = model.nll_and_grad(feats, gold)

    def fn():
        em, p = model.emissions(feats), model.params
        return (crf_reference.forward_log_partition(
                    em, p["transitions"], p["start"], p["stop"])
                - C.sequence_score(em, p["transitions"], p["start"],
                                   p["stop"], gold))

    for name in ("transitions", "start", "stop", "emit_w", "emit_b"):
        check_grads(fn, model.params[name], grads[name], rng, count=30)


def test_crf_model_decode_matches_brute_force_iob_width():
    gen = np.random.default_rng(5)
    k = len(IOB_TAGS)
    model = C.CrfModel(n_tags=k, n_features=6)
    for name in model.params:
        model.params[name] += gen.standard_normal(model.params[name].shape)
    feats = gen.standard_normal((4, 6))
    em = model.emissions(feats)
    path, s = model.decode(feats)
    bpath, bs = crf_reference.brute_force_decode(
        em, model.params["transitions"], model.params["start"],
        model.params["stop"])
    assert path == bpath
    assert s == pytest.approx(bs)


def test_crf_model_is_a_model_base_with_flat_names():
    model = C.CrfModel(n_tags=3, n_features=2)
    assert isinstance(model, ModelBase)
    names = ["transitions", "start", "stop", "emit_w", "emit_b"]
    assert list(model.state_dict()) == list(model.named_grads()) == names
    for name, value in model.state_dict().items():
        assert value is model.params[name]  # live arrays, not copies
    state = model.snapshot()
    model.params["emit_w"] += 1.0
    model.load_state(state)
    assert not model.params["emit_w"].any()


def test_checkpoint_of_the_parent_crf_model_loads():
    """``data/crf_parent.ckpt`` was written by pageseq at 8849e5f, when
    ``CrfModel`` kept its parameters outside ``ModelBase`` and
    ``train --model crf`` wrote a meta of its own, from that model with
    every entry perturbed.  Its meta holds the Viterbi paths and scores
    that model gave on four inputs; restored through the CLI, the model
    decodes them bit for bit."""
    path = Path(__file__).parent / "data" / "crf_parent.ckpt"
    params, meta = load_checkpoint(path)
    assert sorted(params) == sorted(C.CrfModel(12, 6).params)
    model = cli._restore(path, params, meta, cli.FAMILIES[meta["model"]])
    assert isinstance(model, C.CrfModel)
    for x, want, score in zip(meta["inputs"], meta["paths"], meta["scores"]):
        assert model.decode(np.array(x)) == (want, score)


def test_train_crf_learns_transition_structure():
    """Sequences alternate tags deterministically; features are useless,
    so any fit must come from the transition parameters."""
    seqs = [(np.zeros((6, 2)), np.array([0, 1, 0, 1, 0, 1]))] * 4
    model, log = C.train_crf(seqs, n_tags=2, epochs=60,
                             lr=0.1, l2=1e-4, batch_size=4)
    assert log.rows[-1].train_loss < log.rows[0].train_loss
    path, _ = model.decode(np.zeros((6, 2)))
    assert path == [0, 1, 0, 1, 0, 1]


def _packed_instance(rng, lengths, k):
    em = rng.standard_normal((sum(lengths), k))
    tr, st, sp = (rng.standard_normal((k, k)), rng.standard_normal(k),
                  rng.standard_normal(k))
    return em, tr, st, sp


def _split(arr, lengths):
    return np.split(arr, np.cumsum(lengths)[:-1])


RAGGED = [7, 1, 41, 3, 1, 19, 2]


def test_packed_forward_backward_equals_per_sequence_calls():
    rng = np.random.default_rng(10)
    em, tr, st, sp = _packed_instance(rng, RAGGED, 12)
    unary, pairwise, log_z = C.forward_backward(em, tr, st, sp, RAGGED)
    assert unary.shape == em.shape
    want_pair, want_z = np.zeros((12, 12)), 0.0
    for part, got in zip(_split(em, RAGGED), _split(unary, RAGGED)):
        u, p, z = C.forward_backward(part, tr, st, sp)
        np.testing.assert_allclose(got, u, rtol=0, atol=1e-10)
        want_pair += p
        want_z += z
    np.testing.assert_allclose(pairwise, want_pair, rtol=0, atol=1e-10)
    assert log_z == pytest.approx(want_z, rel=1e-10)
    assert pairwise.sum() == pytest.approx(sum(RAGGED) - len(RAGGED))


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unweighted", "weighted"])
def test_packed_nll_and_grad_equals_per_sequence_sums(weighted):
    rng = np.random.default_rng(11)
    em, tr, st, sp = _packed_instance(rng, RAGGED, 12)
    gold = rng.integers(0, 12, em.shape[0])
    weights = rng.uniform(0.1, 2.0, len(RAGGED)) if weighted else None
    got = C.nll_and_grad(em, tr, st, sp, gold, RAGGED, weights)
    nll, d_em, d_tr, d_st, d_sp = got
    ones = np.ones(len(RAGGED))
    want = [0.0, [], 0.0, 0.0, 0.0]
    for w, part, tags in zip(ones if weights is None else weights,
                             _split(em, RAGGED), _split(gold, RAGGED)):
        n, e, t, s0, s1 = C.nll_and_grad(part, tr, st, sp, tags)
        want[0] += w * n
        want[1].append(w * e)
        want[2] = want[2] + w * t
        want[3] = want[3] + w * s0
        want[4] = want[4] + w * s1
    assert nll == pytest.approx(want[0], rel=1e-10)
    np.testing.assert_allclose(d_em, np.concatenate(want[1]), rtol=0,
                               atol=1e-10)
    for got_d, ref in zip((d_tr, d_st, d_sp), want[2:]):
        np.testing.assert_allclose(got_d, ref, rtol=0, atol=1e-10)
    if weights is None:  # no weights is all ones, bit for bit
        all_ones = C.nll_and_grad(em, tr, st, sp, gold, RAGGED, ones)
        assert all_ones[0] == nll
        for a, b in zip(got[1:], all_ones[1:]):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unweighted", "weighted"])
def test_packed_sequence_score_equals_per_sequence_sum(weighted):
    rng = np.random.default_rng(14)
    em, tr, st, sp = _packed_instance(rng, RAGGED, 12)
    tags = rng.integers(0, 12, em.shape[0])
    weights = rng.uniform(0.1, 2.0, len(RAGGED)) if weighted else None
    w = np.ones(len(RAGGED)) if weights is None else weights
    want = sum(wi * C.sequence_score(part, tr, st, sp, t) for wi, part, t in
               zip(w, _split(em, RAGGED), _split(tags, RAGGED)))
    got = C.sequence_score(em, tr, st, sp, tags, RAGGED, weights)
    assert got == pytest.approx(want, rel=1e-12)
    if weights is None:  # no weights is all ones, bit for bit
        assert got == C.sequence_score(em, tr, st, sp, tags, RAGGED, w)


def test_gold_tags_are_checked():
    em = np.zeros((4, 3))
    z3, z = np.zeros((3, 3)), np.zeros(3)
    with pytest.raises(ValueError, match="tags length"):
        C.nll_and_grad(em, z3, z, z, [0, 1, 2])
    with pytest.raises(IndexError, match="out of range"):
        C.nll_and_grad(em, z3, z, z, [0, 1, -1, 2])
    with pytest.raises(IndexError, match="out of range"):
        C.nll_and_grad(em, z3, z, z, [0, 1, 3, 2], [2, 2])


def test_packed_marginals_match_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        lengths = [int(t) for t in rng.integers(1, 5, int(rng.integers(1, 4)))]
        em, tr, st, sp = _packed_instance(rng, lengths, k)
        unary, _, _ = C.forward_backward(em, tr, st, sp, lengths)
        for part, got in zip(_split(em, lengths), _split(unary, lengths)):
            want = crf_reference.brute_force_marginals(part, tr, st, sp)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_packed_lengths_must_cover_the_rows():
    em = np.zeros((5, 3))
    z3, z = np.zeros((3, 3)), np.zeros(3)
    with pytest.raises(ValueError, match="sum to 4"):
        C.forward_backward(em, z3, z, z, [2, 2])
    with pytest.raises(ValueError, match="positive"):
        C.forward_backward(em, z3, z, z, [5, 0])


def test_train_crf_matches_per_sequence_training():
    """Five epochs of packed training through ``training.fit`` against a
    hand loop of Adam on the per-lawsuit sums: the parameters agree
    within 1e-12, and so do the per-epoch losses, at a constant rate."""
    rng = np.random.default_rng(13)
    seqs = [(rng.standard_normal((t, 4)), rng.integers(0, 5, t))
            for t in (9, 1, 30, 4, 17)]
    model, log = C.train_crf(seqs, n_tags=5, epochs=5,
                             lr=0.05, l2=1e-3, batch_size=5)
    hand = C.CrfModel(5, 4)
    opt = Adam(dict(hand.params))
    want = []
    for _ in range(5):
        total = 0.0
        grads = {k: np.zeros_like(v) for k, v in hand.params.items()}
        for feats, tags in seqs:
            nll, g = hand.nll_and_grad(feats, tags)
            total += nll
            for name in grads:
                grads[name] += g[name]
        for name in grads:
            grads[name] += 2e-3 * hand.params[name]
            total += 1e-3 * float((hand.params[name] ** 2).sum())
        opt.step(grads, 0.05)
        want.append(total)
    np.testing.assert_allclose([r.train_loss for r in log.rows], want,
                               rtol=1e-12, atol=0)
    assert [r.lr for r in log.rows] == [0.05] * 5
    assert list(model.params) == list(hand.params)
    for name, value in hand.params.items():
        np.testing.assert_allclose(model.params[name], value, rtol=0,
                                   atol=1e-12, err_msg=name)
        assert np.abs(value).max() > 0.1, name  # five steps moved it


# lengths 1 and 190 in one batch: most grid rows of the short sequences
# are padding
LONG_RAGGED = [190, 1, 37, 2, 73, 1, 12]


@pytest.mark.parametrize("scale", [1.0, 5.0, 20.0])
def test_scaled_forward_backward_matches_log_space_reference(scale):
    """K=12, a forbidden bigram and scores up to ~4 * scale: the scaled
    recursion equals the log-space oracle, and no grid row, padded or
    not, raises a floating-point warning."""
    rng = np.random.default_rng(int(scale))
    em, tr, st, sp = _random_instance(rng, sum(LONG_RAGGED), 12, scale)
    tr[4, 7] = -100.0
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        unary, pairwise, log_z = C.forward_backward(em, tr, st, sp,
                                                    LONG_RAGGED)
    want_unary, want_pairwise, want_log_z = crf_reference.forward_backward(
        em, tr, st, sp, LONG_RAGGED)
    np.testing.assert_allclose(unary, want_unary, rtol=0, atol=1e-10)
    # expected counts reach ~190; the oracle's log-space rounding grows
    # with them, so they are compared relatively
    np.testing.assert_allclose(pairwise, want_pairwise, rtol=1e-10,
                               atol=1e-10)
    assert log_z == pytest.approx(want_log_z, rel=1e-10)
    np.testing.assert_allclose(unary.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert pairwise.sum() == pytest.approx(sum(LONG_RAGGED) - len(LONG_RAGGED))


def test_scale_underflow_raises_naming_the_sequence():
    """A step of more than ~700 nats between surviving paths is outside
    the scaled recursion's domain: ValueError, not a silent NaN."""
    tr = np.array([[-800.0, -800.0], [0.0, 0.0]])  # no way out of tag 0
    start = np.array([0.0, -800.0])  # the only tag to start in
    stop = np.zeros(2)
    em = np.zeros((5, 2))
    assert np.isfinite(crf_reference.forward_backward(em, tr, start, stop,
                                                      [1, 4])[2])
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        with pytest.raises(ValueError, match="sequence 1 has scale 0.0 at row 1"):
            C.forward_backward(em, tr, start, stop, [1, 4])
        with pytest.raises(ValueError, match="sequence 1 "):
            C.nll_and_grad(em, tr, start, stop, [0] * 5, [1, 4])


def test_non_finite_score_raises_naming_the_sequence():
    em = np.zeros((6, 3))
    em[4, 1] = np.nan
    z3, z = np.zeros((3, 3)), np.zeros(3)
    with pytest.raises(ValueError, match="sequence 2 has scale nan at row 1"):
        C.forward_backward(em, z3, z, z, [2, 1, 3])
    with pytest.raises(ValueError, match="sequence 0 has scale nan at its stop"):
        C.forward_backward(np.zeros((6, 3)), z3, z, np.full(3, np.nan),
                           [2, 1, 3])
