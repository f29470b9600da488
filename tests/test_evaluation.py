"""Metrics: confusion counts, report math, rendering, run comparisons."""
import hashlib
import json
import re

import numpy as np
import pytest

from subadapt.evaluation import compare_runs, confusion, render_report, report

TRUE = [0, 0, 0, 1, 1, 2]
PRED = [0, 1, 0, 1, 1, 0]


def golden_report(names=None):
    return report(confusion(TRUE, PRED, 3), class_names=names)


def column(rep, key):
    return np.array([c[key] for c in rep["classes"].values()])


def test_confusion_counts_rows_as_true_class():
    counts = confusion(TRUE, PRED, 3)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, [[2, 1, 0], [0, 2, 0], [1, 0, 0]])


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion([0, 1], [0], 2)
    with pytest.raises(ValueError):
        confusion([], [], 2)
    with pytest.raises(ValueError):
        confusion([0, 2], [0, 1], 2)
    with pytest.raises(ValueError):
        confusion([0, 1], [0, -1], 2)


def test_report_math_against_hand_computation():
    rep = golden_report()
    assert list(rep["classes"]) == ["class0", "class1", "class2"]
    assert np.allclose(column(rep, "precision"), [2 / 3, 2 / 3, 0.0], atol=1e-12)
    assert np.allclose(column(rep, "recall"), [2 / 3, 1.0, 0.0], atol=1e-12)
    assert np.allclose(column(rep, "f1"), [2 / 3, 0.8, 0.0], atol=1e-12)
    assert [c["support"] for c in rep["classes"].values()] == [3, 2, 1]
    assert rep["total"] == 6
    assert abs(rep["accuracy"] - 2 / 3) < 1e-12
    assert abs(rep["weighted_f1"] - 0.6) < 1e-12
    assert abs(rep["weighted_precision"] - 5 / 9) < 1e-12
    assert abs(rep["weighted_recall"] - rep["accuracy"]) < 1e-12  # identity of the weighting
    # plain JSON values: what report.json stores is the report itself
    assert json.loads(json.dumps(rep)) == rep
    assert all(type(c["support"]) is int and type(c["f1"]) is float
               for c in rep["classes"].values())


def test_degenerate_ratios_are_zero_not_nan():
    # class 1 never occurs and is never predicted: all its ratios are 0/0
    rep = report(confusion([0, 0], [0, 0], 2))
    empty = rep["classes"]["class1"]
    assert empty["precision"] == empty["recall"] == empty["f1"] == 0.0
    assert np.all(np.isfinite(column(rep, "f1")))
    assert rep["weighted_f1"] == 1.0  # the empty class carries zero weight


def test_perfect_predictions():
    rep = report(confusion([0, 1, 2, 1], [0, 1, 2, 1], 3))
    assert np.allclose(column(rep, "f1"), 1.0)
    assert rep["weighted_f1"] == 1.0 and rep["accuracy"] == 1.0


def test_weighted_f1_is_invariant_to_relabeling():
    rng = np.random.default_rng(31)
    true = rng.integers(0, 4, 200)
    pred = rng.integers(0, 4, 200)
    base = report(confusion(true, pred, 4))["weighted_f1"]
    perm = np.array([2, 0, 3, 1])
    relabeled = report(confusion(perm[true], perm[pred], 4))["weighted_f1"]
    assert abs(base - relabeled) < 1e-12


def test_report_rejects_wrong_name_count():
    with pytest.raises(ValueError):
        golden_report(names=("a", "b"))
    with pytest.raises(ValueError):   # a repeated name would merge two classes' rows
        golden_report(names=("a", "b", "a"))
    with pytest.raises(ValueError, match="empty"):
        report(np.zeros((2, 2), dtype=np.int64))


def test_render_report_layout():
    text = render_report(golden_report(names=("walking", "sitting", "lying")))
    lines = text.splitlines()
    assert re.search(r"precision\s+recall\s+support", lines[0])
    assert re.match(r"^walking\s+0\.67\s+0\.67\s+3$", lines[1])
    assert re.match(r"^sitting\s+0\.67\s+1\.00\s+2$", lines[2])
    assert re.match(r"^lying\s+0\.00\s+0\.00\s+1$", lines[3])
    assert lines[4] == ""
    assert re.match(r"^Accuracy\s+0\.67\s+6$", lines[5])
    assert re.match(r"^W-Avg\s+0\.56\s+0\.67\s+6$", lines[6])


# sha256 over the report.json and report.txt texts of the no_transfer, adapted and
# supervised runs of each case, then their comparison.csv; no BLAS call is involved
REPORT_BYTES = {
    "golden-named": "e549a782c06578485a5ba10f7d5a4ccf7ff479212a297196cbad2c0afeca6f64",
    "absent-class-default-names":
        "e6bb6f187d553bc06d63745fbea2c766facb6dc145c9b1f643580f8c6e5d5c89",
}


@pytest.mark.parametrize("case,true,preds,names", [
    ("golden-named", TRUE, ([0] * 6, PRED, TRUE), ("walking", "sitting", "lying")),
    # class 2 is neither present nor predicted
    ("absent-class-default-names", [0, 1, 0, 1, 1], ([0] * 5, [0, 1, 1, 1, 0], [0, 1, 0, 1, 1]),
     None),
], ids=["golden-named", "absent-class-default-names"])
def test_report_file_bytes_are_pinned(case, true, preds, names):
    runs = [(run, report(confusion(true, p, 3), class_names=names))
            for run, p in zip(("no_transfer", "adapted", "supervised"), preds)]
    digest = hashlib.sha256()
    for _, rep in runs:
        # the texts evaluate writes to report.json and report.txt
        digest.update((json.dumps(rep, sort_keys=True, indent=2) + "\n").encode())
        digest.update(render_report(rep).encode())
    digest.update(compare_runs(runs).to_csv().encode())
    assert digest.hexdigest() == REPORT_BYTES[case]


# ---------------------------------------------------------------------------
# run comparison


def fake_report(wf1, total=50):
    return {"classes": {"class0": {"precision": wf1, "recall": wf1, "f1": wf1,
                                   "support": total}},
            "accuracy": wf1, "weighted_precision": wf1, "weighted_recall": wf1,
            "weighted_f1": wf1, "total": total}


def test_compare_runs_computes_deltas_and_sandwich():
    cmp = compare_runs([("no_transfer", fake_report(0.5)),
                        ("adapted", fake_report(0.7)),
                        ("supervised", fake_report(0.8))])
    assert cmp.names == ("no_transfer", "adapted", "supervised")
    assert abs(cmp.delta_vs_no_transfer - 0.2) < 1e-12
    assert abs(cmp.delta_vs_supervised + 0.1) < 1e-12
    assert cmp.sandwich is True

    broken = compare_runs([("no_transfer", fake_report(0.5)),
                           ("adapted", fake_report(0.9)),
                           ("supervised", fake_report(0.8))])
    assert broken.sandwich is False

    partial = compare_runs([("no_transfer", fake_report(0.4)), ("adapted", fake_report(0.6))])
    assert abs(partial.delta_vs_no_transfer - 0.2) < 1e-12
    assert partial.delta_vs_supervised is None
    assert partial.sandwich is None  # supervised leg missing


def test_compare_runs_requires_matching_test_sets():
    with pytest.raises(ValueError, match="different test-set sizes"):
        compare_runs([("adapted", fake_report(0.7, total=50)),
                      ("supervised", fake_report(0.8, total=60))])
    with pytest.raises(ValueError):
        compare_runs([])


def test_comparison_csv_layout():
    cmp = compare_runs([("no_transfer", fake_report(0.5)),
                        ("adapted", fake_report(0.7)),
                        ("supervised", fake_report(0.8))])
    lines = cmp.to_csv().splitlines()
    assert lines[0] == "run,weighted_f1,delta_vs_no_transfer,delta_vs_supervised"
    assert lines[1] == "no_transfer,0.5,,"
    parts = lines[2].split(",")
    assert parts[0] == "adapted"
    assert float(parts[1]) == 0.7
    assert abs(float(parts[2]) - 0.2) < 1e-12
    assert abs(float(parts[3]) + 0.1) < 1e-12
    assert lines[3] == "supervised,0.8,,"
