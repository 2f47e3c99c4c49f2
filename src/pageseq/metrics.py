"""Per-class precision/recall/F1 with macro and support-weighted means.

The zero-division convention is 0 (not undefined): a class that is never
predicted and never gold scores 0, which is what makes the majority
baseline identity macro-F1 = F1(majority)/c exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .iob import iob_collapse


@dataclass
class ClassScores:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    classes: list
    per_class: dict = field(default_factory=dict)
    confusion: np.ndarray | None = None
    macro_f1: float = 0.0
    weighted_f1: float = 0.0
    total: int = 0

    def to_dict(self, digits=4):
        return {
            "classes": list(self.classes),
            "per_class": {
                c: {
                    "tp": s.tp, "fp": s.fp, "fn": s.fn, "support": s.support,
                    "precision": round(s.precision, digits),
                    "recall": round(s.recall, digits),
                    "f1": round(s.f1, digits),
                }
                for c, s in self.per_class.items()
            },
            "macro_f1": round(self.macro_f1, digits),
            "weighted_f1": round(self.weighted_f1, digits),
            "total": self.total,
            "confusion": self.confusion.tolist() if self.confusion is not None else None,
        }

    def to_json(self, digits=4):
        return json.dumps(self.to_dict(digits), ensure_ascii=False, indent=2,
                          sort_keys=False)

    def to_text(self):
        """Aligned table in the style of the paper's result tables."""
        rows = [f"{'Class':<12} {'Prec':>8} {'Rec':>8} {'F1':>8} {'Support':>8}"]
        for c in self.classes:
            s = self.per_class[c]
            rows.append(f"{c:<12} {100*s.precision:>8.2f} {100*s.recall:>8.2f} "
                        f"{100*s.f1:>8.2f} {s.support:>8}")
        rows.append(f"{'Average':<12} {'':>8} {'':>8} {100*self.macro_f1:>8.2f} "
                    f"{self.total:>8}")
        rows.append(f"{'Weighted':<12} {'':>8} {'':>8} {100*self.weighted_f1:>8.2f} "
                    f"{self.total:>8}")
        return "\n".join(rows)


def _f1(p, r):
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def score(gold, pred, classes) -> MetricsReport:
    """One-vs-rest counts per class over aligned label sequences."""
    gold = list(gold)
    pred = list(pred)
    if len(gold) != len(pred):
        raise ValueError("gold and pred lengths differ")
    index = {c: i for i, c in enumerate(classes)}
    for lab in gold:
        if lab not in index:
            raise ValueError(f"unknown gold label {lab!r}")
    for lab in pred:
        if lab not in index:
            raise ValueError(f"unknown predicted label {lab!r}")
    k = len(classes)
    confusion = np.zeros((k, k), dtype=np.int64)
    for g, p in zip(gold, pred):
        confusion[index[g], index[p]] += 1
    report = MetricsReport(classes=list(classes), confusion=confusion,
                           total=len(gold))
    f1s, supports = [], []
    for i, c in enumerate(classes):
        tp = int(confusion[i, i])
        fp = int(confusion[:, i].sum() - tp)
        fn = int(confusion[i, :].sum() - tp)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = _f1(prec, rec)
        report.per_class[c] = ClassScores(tp, fp, fn, prec, rec, f1, tp + fn)
        f1s.append(f1)
        supports.append(tp + fn)
    report.macro_f1 = float(np.mean(f1s))
    total_support = sum(supports)
    report.weighted_f1 = (
        float(np.dot(supports, f1s) / total_support) if total_support else 0.0
    )
    return report


def score_collapsed(gold_iob, pred_iob, classes) -> MetricsReport:
    """Scores IOB sequences on the collapsed base classes."""
    return score(iob_collapse(gold_iob), iob_collapse(pred_iob), classes)


def score_by_first_page(gold, pred, flags, classes):
    """Separate reports for first-page and interior-page samples."""
    gold, pred, flags = list(gold), list(pred), list(flags)
    if not len(gold) == len(pred) == len(flags):
        raise ValueError("gold/pred/flags lengths differ")
    first_idx = [i for i, f in enumerate(flags) if f]
    rest_idx = [i for i, f in enumerate(flags) if not f]
    first = score([gold[i] for i in first_idx], [pred[i] for i in first_idx], classes)
    interior = score([gold[i] for i in rest_idx], [pred[i] for i in rest_idx], classes)
    return first, interior
