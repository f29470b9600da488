"""Confusion counts, the classification report, and run-to-run comparisons.

A report is the JSON object `report.json` stores: `classes` maps each class
name to its precision, recall, f1 and support, then come `accuracy`,
`weighted_precision`, `weighted_recall`, `weighted_f1` and `total`. The
headline number everywhere is weighted F1: per-class F1 averaged with
true-support weights. Degenerate ratios (no predictions for a class, no
true members) are defined as 0 rather than NaN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def confusion(true_labels, predicted_labels, num_classes: int) -> np.ndarray:
    """[C, C] int64 counts: rows are the true class, columns the predicted class."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(f"label arrays must be matching vectors, got {t.shape} and {p.shape}")
    if t.size == 0:
        raise ValueError("no labels to score")
    for name, arr in (("true", t), ("predicted", p)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValueError(f"{name} labels outside [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return counts


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.where(den > 0, num / np.where(den > 0, den, 1), 0.0)


def report(counts: np.ndarray, class_names=None) -> dict:
    """The report of a confusion count matrix; classes default to class0, class1, ..."""
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    num_classes = counts.shape[0]
    names = tuple(f"class{i}" for i in range(num_classes)) if class_names is None \
        else tuple(class_names)
    if len(set(names)) != num_classes:
        raise ValueError(f"need {num_classes} distinct class names, got {list(names)}")
    counts = counts.astype(np.float64)
    tp = np.diag(counts)
    support = counts.sum(axis=1)
    precision = _safe_div(tp, counts.sum(axis=0))
    recall = _safe_div(tp, support)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    weights = support / total
    return {
        "classes": {
            name: {"precision": float(precision[i]), "recall": float(recall[i]),
                   "f1": float(f1[i]), "support": int(support[i])}
            for i, name in enumerate(names)
        },
        "accuracy": float(tp.sum() / total),
        "weighted_precision": float((weights * precision).sum()),
        "weighted_recall": float((weights * recall).sum()),
        "weighted_f1": float((weights * f1).sum()),
        "total": total,
    }


def render_report(rep: dict) -> str:
    """Text table: one row per class, then accuracy and weighted-average lines."""
    classes = rep["classes"]
    width = max(12, max(len(n) for n in classes) + 2)
    lines = [f"{'':<{width}}{'precision':>10}{'recall':>8}{'support':>9}"]
    for name, c in classes.items():
        lines.append(f"{name:<{width}}{c['precision']:>10.2f}{c['recall']:>8.2f}"
                     f"{c['support']:>9d}")
    lines.append("")
    lines.append(f"{'Accuracy':<{width}}{'':>10}{rep['accuracy']:>8.2f}{rep['total']:>9d}")
    lines.append(f"{'W-Avg':<{width}}{rep['weighted_precision']:>10.2f}"
                 f"{rep['weighted_recall']:>8.2f}{rep['total']:>9d}")
    return "\n".join(lines) + "\n"


@dataclass
class RunComparison:
    names: tuple
    weighted_f1: tuple
    delta_vs_no_transfer: float | None   # adapted minus no-transfer
    delta_vs_supervised: float | None    # adapted minus supervised
    sandwich: bool | None                # no-transfer <= adapted <= supervised

    def to_csv(self) -> str:
        lines = ["run,weighted_f1,delta_vs_no_transfer,delta_vs_supervised"]
        for name, wf1 in zip(self.names, self.weighted_f1):
            d_nt = repr(self.delta_vs_no_transfer) \
                if name == "adapted" and self.delta_vs_no_transfer is not None else ""
            d_sup = repr(self.delta_vs_supervised) \
                if name == "adapted" and self.delta_vs_supervised is not None else ""
            lines.append(f"{name},{repr(wf1)},{d_nt},{d_sup}")
        return "\n".join(lines) + "\n"


def compare_runs(named_reports) -> RunComparison:
    """Side-by-side weighted F1 for runs scored on the same test set; the runs named
    no_transfer, adapted and supervised give the deltas and the sandwich."""
    if not named_reports:
        raise ValueError("nothing to compare")
    totals = {rep["total"] for _, rep in named_reports}
    if len(totals) != 1:
        raise ValueError(f"runs scored on different test-set sizes: {sorted(totals)}")
    names = tuple(name for name, _ in named_reports)
    wf1 = tuple(rep["weighted_f1"] for _, rep in named_reports)
    by_name = dict(zip(names, wf1))
    floor, adapted, ceiling = (by_name.get(n) for n in ("no_transfer", "adapted", "supervised"))
    d_nt = None if adapted is None or floor is None else adapted - floor
    d_sup = None if adapted is None or ceiling is None else adapted - ceiling
    sandwich = None if d_nt is None or d_sup is None else bool(floor <= adapted <= ceiling)
    return RunComparison(names, wf1, d_nt, d_sup, sandwich)
