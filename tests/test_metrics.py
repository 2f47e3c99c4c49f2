import numpy as np
import pytest

from pageseq.iob import CLASSES, iob_collapse
from pageseq.metrics import score, score_by_first_page, score_collapsed


def test_perfect_prediction():
    gold = ["a", "b", "a", "c"]
    rep = score(gold, gold, ["a", "b", "c"])
    assert rep.macro_f1 == 1.0
    assert rep.weighted_f1 == 1.0
    for s in rep.per_class.values():
        assert s.f1 == 1.0


def test_hand_computed_counts():
    # class "x": tp=8, fp=2, fn=4 -> precision .8, recall .6667, f1 .7273
    gold = ["x"] * 12 + ["y"] * 2
    pred = ["x"] * 8 + ["y"] * 4 + ["x"] * 2
    rep = score(gold, pred, ["x", "y"])
    s = rep.per_class["x"]
    assert (s.tp, s.fp, s.fn) == (8, 2, 4)
    assert s.precision == pytest.approx(0.8)
    assert s.recall == pytest.approx(2 / 3)
    assert s.f1 == pytest.approx(0.7273, abs=1e-4)


def test_zero_division_convention():
    rep = score(["a", "a"], ["a", "a"], ["a", "b"])
    assert rep.per_class["b"].f1 == 0.0
    assert rep.macro_f1 == pytest.approx(0.5)


def test_majority_baseline_identity():
    """macro-F1 of a constant classifier is F1(majority)/c; with the
    majority-class F1 at 94.41% and six classes this gives 15.73."""
    f1_majority = 0.9441
    macro = f1_majority / 6
    assert macro * 100 == pytest.approx(15.735, abs=1e-3)
    assert abs(macro * 100 - 15.73) <= 0.01  # display-rounding tolerance

    # and the identity holds for an actual constant predictor
    gold = ["m"] * 89 + ["a"] * 6 + ["b"] * 5
    pred = ["m"] * 100
    rep = score(gold, pred, ["a", "b", "m"])
    assert rep.macro_f1 == pytest.approx(rep.per_class["m"].f1 / 3)


def test_weighted_f1_support_weighting():
    gold = ["a"] * 9 + ["b"]
    pred = ["a"] * 10
    rep = score(gold, pred, ["a", "b"])
    f1_a = rep.per_class["a"].f1
    assert rep.weighted_f1 == pytest.approx(0.9 * f1_a)


def test_confusion_matrix_sums():
    rng = np.random.default_rng(0)
    classes = ["a", "b", "c"]
    gold = [classes[i] for i in rng.integers(3, size=50)]
    pred = [classes[i] for i in rng.integers(3, size=50)]
    rep = score(gold, pred, classes)
    assert rep.confusion.sum() == 50
    for i, c in enumerate(classes):
        assert rep.confusion[i].sum() == rep.per_class[c].support


def test_relabeling_permutes_rows_not_aggregates():
    rng = np.random.default_rng(1)
    classes = ["a", "b", "c"]
    gold = [classes[i] for i in rng.integers(3, size=60)]
    pred = [classes[i] for i in rng.integers(3, size=60)]
    rep = score(gold, pred, classes)
    mapping = {"a": "z", "b": "x", "c": "y"}
    rep2 = score([mapping[g] for g in gold], [mapping[p] for p in pred],
                 ["x", "y", "z"])
    assert rep2.macro_f1 == pytest.approx(rep.macro_f1)
    assert rep2.weighted_f1 == pytest.approx(rep.weighted_f1)
    for old, new in mapping.items():
        assert rep2.per_class[new].f1 == pytest.approx(rep.per_class[old].f1)


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        score(["a"], ["q"], ["a", "b"])
    with pytest.raises(ValueError):
        score(["q"], ["a"], ["a", "b"])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        score(["a"], ["a", "a"], ["a"])


def test_score_collapsed_b_vs_i_counted_correct():
    rep = score_collapsed(["I-ARE"], ["B-ARE"], CLASSES)
    assert rep.per_class["ARE"].f1 == 1.0


def test_score_collapsed_equals_score_of_collapsed():
    gold = ["B-RE", "I-RE", "B-ARE"]
    pred = ["I-RE", "I-RE", "B-RE"]
    rep = score_collapsed(gold, pred, CLASSES)
    rep2 = score(iob_collapse(gold), iob_collapse(pred), CLASSES)
    assert rep.to_dict() == rep2.to_dict()


def test_first_page_partition_supports():
    gold = ["a", "b", "a", "b"]
    pred = ["a", "a", "a", "b"]
    flags = [True, False, True, False]
    first, interior = score_by_first_page(gold, pred, flags, ["a", "b"])
    assert first.total + interior.total == 4
    assert first.total == 2
    assert first.macro_f1 == pytest.approx(0.5)  # a perfect, b absent


def test_report_serialization(capsys):
    rep = score(["a", "b"], ["a", "b"], ["a", "b"])
    d = rep.to_dict()
    assert d["macro_f1"] == 1.0
    text = rep.to_text()
    assert "Average" in text and "Weighted" in text
