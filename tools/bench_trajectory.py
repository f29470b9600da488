"""Fold the benchmark results of a parent commit and a change into one BENCH_<n>.json.

    python3 tools/bench_trajectory.py --parent-dir P --change-dir C \\
        --parent-commit SHA --commit LABEL --out BENCH_<n>.json

P and C are `perfbench/run.py --work-dir` directories, one per commit, each
holding one `<workload>-<seed>/result.json` per run. Only untraced runs are
read. For each workload, and for the parent and the change, the file holds
every end-to-end metric's median and quartiles over the seeds and the
failure ratio (failed over attempted output checks); for each metric it also
counts the seeds on which the change read better than the parent, by the
direction `BENCHMARK.json` gives. The machine block (cores, BLAS, numpy)
comes from the runs, which must all agree on it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "affinity", "blas_threads", "python", "numpy", "blas")


def load_runs(directory: Path) -> dict:
    """{workload: {seed: result}} of the untraced result.json files under `directory`."""
    runs: dict = {}
    for path in sorted(directory.glob("*/result.json")):
        result = json.loads(path.read_text())
        if result["trace"] == 0:
            runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def fold_side(results: list[dict]) -> dict:
    metrics: dict = {}
    for result in results:
        for name, entry in result["metrics"].items():
            metrics.setdefault(name, {"unit": entry["unit"], "values": []})["values"].append(
                entry["value"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"runs": len(results),
            "failure_ratio": failed / max(attempted, 1),
            "metrics": {name: {"unit": m["unit"], **summary(m["values"])}
                        for name, m in metrics.items()}}


def fold(parent: dict, change: dict, better: dict) -> dict:
    workloads = {}
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        paired = sorted(set(p_runs) & set(c_runs))
        wins = {}
        for name, direction in better.items():
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in paired
                     if name in p_runs[s]["metrics"] and name in c_runs[s]["metrics"]]
            if pairs:
                sign = 1 if direction == "lower" else -1
                wins[name] = sum(sign * (p - c) > 0 for p, c in pairs)
        workloads[workload] = {
            "parent_seeds": sorted(p_runs), "change_seeds": sorted(c_runs),
            "pairs": len(paired),
            "parent": fold_side([p_runs[s] for s in sorted(p_runs)]),
            "change": fold_side([c_runs[s] for s in sorted(c_runs)]),
            "change_better_pairs": wins}
    return workloads


def machine(*sides: dict) -> dict:
    blocks = [{k: r["env"].get(k) for k in MACHINE_KEYS}
              for runs in sides for by_seed in runs.values() for r in by_seed.values()]
    for block in blocks:
        if block != blocks[0]:
            raise ValueError(f"runs disagree on the machine: {blocks[0]} and {block}")
    return blocks[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-dir", required=True, type=Path)
    parser.add_argument("--change-dir", required=True, type=Path)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--commit", required=True, help="the change's commit, or a label for it")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    if not parent or not change:
        print("error: no untraced result.json under "
              f"{args.parent_dir if not parent else args.change_dir}", file=sys.stderr)
        return 2
    try:
        block = machine(parent, change)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    trajectory = {"commit": args.commit, "parent_commit": args.parent_commit,
                  "machine": block, "workloads": fold(parent, change, better)}
    args.out.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
