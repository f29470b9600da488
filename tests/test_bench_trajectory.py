"""Smoke test of tools/bench_trajectory.py on two hand-written benchmark results."""
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
ENV = {"nproc": 2, "affinity": 2, "blas_threads": 1, "python": "3.11.7", "numpy": "2.4.6",
       "blas": "openblas 0.3.31"}


def write_result(directory, train_s, peak_rss_mb, failed):
    run = directory / "classify-2"
    run.mkdir(parents=True)
    (run / "result.json").write_text(json.dumps({
        "correct": failed == 0, "attempted": 4, "failed": failed,
        "metrics": {"train_s": {"value": train_s, "unit": "s"},
                    "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}},
        "workload": "classify", "seed": 2, "trace": 0, "env": ENV,
        "problems": [], "samples": {}}))


def run_tool(tmp_path):
    out = tmp_path / "BENCH_test.json"
    proc = subprocess.run([sys.executable, str(TOOL), "--parent-dir", str(tmp_path / "parent"),
                           "--change-dir", str(tmp_path / "change"), "--parent-commit", "abc123",
                           "--commit", "def456", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    return proc, out


def test_folds_one_pair_into_medians_quartiles_and_failure_ratio(tmp_path):
    write_result(tmp_path / "parent", train_s=1.0, peak_rss_mb=130.0, failed=0)
    write_result(tmp_path / "change", train_s=0.75, peak_rss_mb=131.0, failed=1)
    proc, out = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert (bench["commit"], bench["parent_commit"]) == ("def456", "abc123")
    assert bench["machine"] == ENV
    classify = bench["workloads"]["classify"]
    assert classify["pairs"] == 1 and classify["parent_seeds"] == [2]
    assert classify["parent"]["metrics"]["train_s"] == {"unit": "s", "median": 1.0, "q1": 1.0,
                                                        "q3": 1.0}
    assert classify["change"]["metrics"]["train_s"]["median"] == 0.75
    assert classify["parent"]["failure_ratio"] == 0.0
    assert classify["change"]["failure_ratio"] == 0.25
    # lower is better for both metrics in BENCHMARK.json
    assert classify["change_better_pairs"] == {"train_s": 1, "peak_rss_mb": 0}


def test_refuses_an_empty_directory(tmp_path):
    write_result(tmp_path / "parent", train_s=1.0, peak_rss_mb=130.0, failed=0)
    (tmp_path / "change").mkdir()
    proc, out = run_tool(tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: no untraced result.json")
    assert not out.exists()
