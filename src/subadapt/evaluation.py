"""Confusion matrices, per-class metrics, and run-to-run comparisons.

The headline number everywhere is weighted F1: per-class F1 averaged with
true-support weights. Degenerate ratios (no predictions for a class, no
true members) are defined as 0 rather than NaN.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class ConfusionMatrix:
    counts: np.ndarray   # [C, C], rows = true class, columns = predicted class

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got shape {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("confusion counts must be >= 0")

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(true_labels, predicted_labels, num_classes: int) -> ConfusionMatrix:
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
    return ConfusionMatrix(counts)


@dataclass
class ClassificationReport:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total: int
    class_names: tuple | None = None


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.where(den > 0, num / np.where(den > 0, den, 1), 0.0)


def report(matrix: ConfusionMatrix, class_names=None) -> ClassificationReport:
    counts = matrix.counts.astype(np.float64)
    tp = np.diag(counts)
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    precision = _safe_div(tp, predicted)
    recall = _safe_div(tp, support)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    total = matrix.total
    if total == 0:
        raise ValueError("empty confusion matrix")
    weights = support / total
    if class_names is not None and len(class_names) != matrix.num_classes:
        raise ValueError(f"{len(class_names)} names for {matrix.num_classes} classes")
    return ClassificationReport(
        precision=precision, recall=recall, f1=f1,
        support=support.astype(np.int64),
        accuracy=float(tp.sum() / total),
        weighted_precision=float((weights * precision).sum()),
        weighted_recall=float((weights * recall).sum()),
        weighted_f1=float((weights * f1).sum()),
        total=total,
        class_names=tuple(class_names) if class_names is not None else None,
    )


def render_report(rep: ClassificationReport) -> str:
    """Text table: one row per class, then accuracy and weighted-average lines."""
    names = rep.class_names or tuple(f"class{i}" for i in range(len(rep.support)))
    width = max(12, max(len(n) for n in names) + 2)
    lines = [f"{'':<{width}}{'precision':>10}{'recall':>8}{'support':>9}"]
    for i, name in enumerate(names):
        lines.append(f"{name:<{width}}{rep.precision[i]:>10.2f}{rep.recall[i]:>8.2f}"
                     f"{rep.support[i]:>9d}")
    lines.append("")
    lines.append(f"{'Accuracy':<{width}}{'':>10}{rep.accuracy:>8.2f}{rep.total:>9d}")
    lines.append(f"{'W-Avg':<{width}}{rep.weighted_precision:>10.2f}"
                 f"{rep.weighted_recall:>8.2f}{rep.total:>9d}")
    return "\n".join(lines) + "\n"


def report_to_dict(rep: ClassificationReport) -> dict:
    names = rep.class_names or tuple(f"class{i}" for i in range(len(rep.support)))
    return {
        "classes": {
            name: {"precision": float(rep.precision[i]), "recall": float(rep.recall[i]),
                   "f1": float(rep.f1[i]), "support": int(rep.support[i])}
            for i, name in enumerate(names)
        },
        "accuracy": rep.accuracy,
        "weighted_precision": rep.weighted_precision,
        "weighted_recall": rep.weighted_recall,
        "weighted_f1": rep.weighted_f1,
        "total": rep.total,
    }


def report_from_dict(d: dict) -> ClassificationReport:
    names = tuple(d["classes"])
    get = lambda key: np.array([d["classes"][n][key] for n in names], dtype=np.float64)
    return ClassificationReport(
        precision=get("precision"), recall=get("recall"), f1=get("f1"),
        support=get("support").astype(np.int64),
        accuracy=float(d["accuracy"]),
        weighted_precision=float(d["weighted_precision"]),
        weighted_recall=float(d["weighted_recall"]),
        weighted_f1=float(d["weighted_f1"]),
        total=int(d["total"]), class_names=names)


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
    totals = {rep.total for _, rep in named_reports}
    if len(totals) != 1:
        raise ValueError(f"runs scored on different test-set sizes: {sorted(totals)}")
    names = tuple(name for name, _ in named_reports)
    wf1 = tuple(rep.weighted_f1 for _, rep in named_reports)
    by_name = dict(zip(names, wf1))
    floor, adapted, ceiling = (by_name.get(n) for n in ("no_transfer", "adapted", "supervised"))
    d_nt = None if adapted is None or floor is None else adapted - floor
    d_sup = None if adapted is None or ceiling is None else adapted - ceiling
    sandwich = None if d_nt is None or d_sup is None else bool(floor <= adapted <= ceiling)
    return RunComparison(names, wf1, d_nt, d_sup, sandwich)


def save_report(rep: ClassificationReport, json_path, text_path=None) -> None:
    from pathlib import Path
    Path(json_path).write_text(json.dumps(report_to_dict(rep), sort_keys=True, indent=2) + "\n")
    if text_path is not None:
        Path(text_path).write_text(render_report(rep))
