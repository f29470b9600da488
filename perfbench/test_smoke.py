"""Smoke test of the benchmark itself, at a tiny input size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks that every metric named in
BENCHMARK.json comes out with its unit, that traced spans nest, that the
computed counts repeat exactly, and that the benchmark refuses to run
without the package sources.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "GFLOP", "GB", "MFLOP", "MB")]


def run_bench(workload, trace, work_dir, bench_dir=BENCH, seed=3):
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--work-dir", str(work_dir)],
        capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    proc = run_bench(workload, trace, tmp_path)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = proc.stdout.splitlines()
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
                   for line in printed), metric["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_spans_nest(tmp_path):
    result_of(run_bench("adapt", 1, tmp_path))
    results = [json.loads(p.read_text()) for p in tmp_path.glob("adapt-3/client-*.json")]
    traced = [r for r in results if r["spans"] is not None]
    assert traced, "no traced client left its spans"
    names = set()
    for client in traced:
        assert client["run"]
        spans = client["spans"]
        for sid, parent, name, start, end, _ in spans:
            names.add(name)
            assert spans[sid][0] == sid and end is not None and start <= end
            if parent is not None:
                assert parent < sid
                _, _, _, p_start, p_end, _ = spans[parent]
                assert p_start <= start and end <= p_end, (name, spans[parent][2])
    for expected in ("harness.train", "trainer.step", "tensor.backward", "tensor.conv1d.bwd",
                     "layer.discriminator.conv2.fwd", "pipeline.generate", "optim.step"):
        assert expected in names


def test_counts_repeat_exactly(tmp_path):
    first = result_of(run_bench("adapt", 1, tmp_path / "a"))["metrics"]
    second = result_of(run_bench("adapt", 1, tmp_path / "b"))["metrics"]
    assert COUNTS
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert 0.0 < first["tensor.grad_useful_ratio"]["value"] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("adapt", 0, tmp_path / "work", bench_dir=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
