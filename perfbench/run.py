"""subadapt benchmark: one workload, closed loop, one client, stages in sequence.

    python3 perfbench/run.py --workload adapt --seed 1 --seconds 30 --trace 0

Each pass through the stage chain runs in a fresh client process
(client.py) that calls the public CLI, `subadapt.cli.main`, once per stage,
with the BLAS thread count pinned. Set-up, the workload's own input work in
a client of its own, runs SETUP_REPEATS times (the median client wall time
is `setup_s`); then the stage chain repeats until `--seconds` would be
exceeded (at least once). With `--trace 1` the timed iterations
alternate untraced and traced, the traced ones give the per-layer metrics,
and the difference of the two medians is the tracing overhead.

Outputs are checked on every iteration; every check and every stage counts
toward `attempted`, and each that goes wrong toward `failed`. The last line
of stdout is the JSON result; the lines before it print every metric with
its unit, the environment and the failure ratio. Metric names, units and
their order come from BENCHMARK.json at the root of the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CLIENT_TIMEOUT_S = 170
RUNS = ("adapted", "no_transfer", "supervised")
BASELINE_DATA = {"no_transfer": "source_train", "supervised": "target_train"}
SPLITS = ("source_train", "source_val", "source_test",
          "target_train", "target_val", "target_test")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class StageFailed(Exception):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, tiny: bool, work: Path):
        self.workload, self.seed, self.trace, self.tiny, self.work = workload, seed, trace, tiny, work
        self.corpus = work / "corpus.csv"
        self.plan = workloads.plan(workload, seed, tiny, str(self.corpus))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        **{v: str(BLAS_THREADS) for v in BLAS_VARIABLES})
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.stage_env: dict = {}
        self.samples: dict = {}

    # -- bookkeeping ------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def client(self, run_id: str, stages: list, traced: bool) -> dict:
        """Run CLI stages in one fresh client process and time it (`wall`, seconds).

        Raises StageFailed after counting a failure.
        """
        result_path = self.work / f"client-{run_id}.json"
        stages_path = _write_json(self.work / f"stages-{run_id}.json", stages)
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "client.py"), str(result_path),
               "1" if traced else "0", run_id, str(stages_path)]
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CLIENT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.check(False, f"{run_id}: no exit within {CLIENT_TIMEOUT_S} s")
            raise StageFailed(run_id) from None
        if not self.check(proc.returncode == 0 and result_path.exists(),
                          f"{run_id}: client exited {proc.returncode}: {proc.stderr[-800:]}"):
            raise StageFailed(run_id)
        wall = time.perf_counter() - started
        result = dict(json.loads(result_path.read_text()), wall=wall)
        self.check(Path(result["package"]).resolve().is_relative_to(ROOT / "src"),
                   f"{run_id}: imported subadapt from {result['package']}, not this checkout")
        for name, _ in stages:
            done = result["stages"].get(name)
            if not self.check(done is not None and done["code"] == 0,
                              f"{run_id}: stage {name} failed: {(done or {}).get('error')}"
                              f" {(done or {}).get('stdout', '')[-300:]}"):
                raise StageFailed(f"{run_id}/{name}")
        self.stage_env = result["env"]
        return result

    def _config(self, directory: Path, name: str, cfg: dict, output: Path) -> str:
        return str(_write_json(directory / name, dict(cfg, output_dir=str(output))))

    # -- set-up -----------------------------------------------------------

    def setup(self, k: int, traced: bool) -> tuple[float, dict, dict]:
        """The workload's own input work; returns the client's wall time, its result and hashes.

        `ingest` writes its corpus to CSV through `synth`; the other workloads
        `prepare` their corpus, whose splits every timed `prepare` must reproduce.
        """
        d = self.work / "setup"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        if self.plan.corpus is not None:
            self.corpus.unlink(missing_ok=True)
            config = self._config(d, "corpus.json", self.plan.corpus, d / "out")
            result = self.client(f"setup{k}", [["synth", ["synth", "--config", config,
                                                          "--out", str(self.corpus)]]], traced)
            if not self.check(self.corpus.is_file(), f"synth left no {self.corpus.name}"):
                raise StageFailed("synth")
            hashes = {self.corpus.name: _sha256(self.corpus)}
        else:
            config = self._config(d, "config.json", self.plan.config, d / "out")
            result = self.client(f"setup{k}", [["prepare", ["prepare", "--config", config]]], traced)
            hashes = self._prepared_hashes(d / "out" / "prepared")
        return result["wall"], result, hashes

    # -- one timed iteration ----------------------------------------------

    def iteration(self, k: int, traced: bool) -> dict:
        d = self.work / "run"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        out = d / "out"
        config = self._config(d, "config.json", self.plan.config, out)
        budget = lambda e: ["--set", f"trainer.epochs={e}", "--set", f"trainer.patience={e}"]
        chain = [("prepare", []), ("train", budget(self.plan.train_epochs)),
                 ("baselines", budget(self.plan.baseline_epochs)),
                 *((f"evaluate-{r}", ["--run", r]) for r in RUNS), ("report", [])]
        stages = [[name, [name.split("-")[0], "--config", config, *extra]] for name, extra in chain]
        result = self.client(f"it{k}", stages, traced)
        return {"wall": result["wall"], "result": result, "traced": traced, **self._outputs(out)}

    def _prepared_hashes(self, prepared: Path) -> dict:
        if not self.check((prepared / "prepare.json").exists()
                          and all((prepared / s / "windows.npy").exists() for s in SPLITS),
                          f"missing prepared splits under {prepared}"):
            raise StageFailed("prepare")
        return {str(p.relative_to(prepared)): _sha256(p)
                for s in SPLITS for p in sorted((prepared / s).iterdir())}

    def _outputs(self, out: Path) -> dict:
        """Check one iteration's artifacts; return the counts and hashes they carry."""
        hashes = self._prepared_hashes(out / "prepared")
        meta = json.loads((out / "prepared" / "prepare.json").read_text())
        artifacts = [out / "adapted" / f for f in ("checkpoint.json", "losses.csv", "record.json")]
        artifacts += [out / r / f for r in BASELINE_DATA for f in ("checkpoint.json", "record.json")]
        artifacts += [out / r / f for r in RUNS for f in ("report.json", "report.txt")]
        artifacts.append(out / "comparison.csv")
        missing = [str(p.relative_to(out)) for p in artifacts if not p.exists()]
        if not self.check(not missing, f"missing artifacts: {missing}"):
            raise StageFailed("artifacts")
        for name in ("adapted/checkpoint.json", "adapted/losses.csv",
                     "no_transfer/checkpoint.json", "supervised/checkpoint.json"):
            hashes[name] = _sha256(out / name)

        rows = (out / "adapted" / "losses.csv").read_text().splitlines()[1:]
        losses = [float(v) for row in rows for v in row.split(",")[2:]]
        self.check(bool(losses) and all(math.isfinite(v) for v in losses),
                   "adapted losses empty or not finite")
        record = json.loads((out / "adapted" / "record.json").read_text())
        self.check(record["stop_reason"] == "epoch budget exhausted",
                   f"train stopped early: {record['stop_reason']}")
        base = {r: json.loads((out / r / "record.json").read_text()) for r in BASELINE_DATA}
        self.check(all(math.isfinite(b["final_loss"]) for b in base.values()),
                   "baseline loss not finite")
        wf1 = {r: json.loads((out / r / "report.json").read_text())["weighted_f1"] for r in RUNS}
        self.check(all(0.0 <= v <= 1.0 for v in wf1.values()), f"weighted F1 outside [0, 1]: {wf1}")

        classes = meta["num_classes"]
        micro = min(min(meta["class_counts"]["source_train"]), self.plan.config["sampler"]["micro_cap"])
        batch = micro * classes
        return {
            "hashes": hashes, "wf1": wf1,
            # source plus target rows per adversarial step
            "train_windows": record["steps"] * batch * 2,
            "baseline_windows": sum(base[r]["steps"] * min(batch, meta["counts"][split])
                                    for r, split in BASELINE_DATA.items()),
            "score_windows": len(RUNS) * meta["counts"]["target_test"],
        }

    # -- the run ----------------------------------------------------------

    def run(self, seconds: float) -> dict:
        setups = []
        for k in range(SETUP_REPEATS):
            setups.append(self.setup(k, self.trace))
        for k, (_, _, hashes) in enumerate(setups[1:], start=1):
            self.check(hashes == setups[0][2], f"set-up {k} produced different bytes than set-up 0")
        if self.plan.corpus is not None:
            workloads.blank_cells(str(self.corpus), self.seed)

        iterations = []
        started = time.perf_counter()
        while True:
            traced = self.trace and len(iterations) % 2 == 1
            it = self.iteration(len(iterations), traced)
            if self.plan.corpus is None:
                self.check(all(it["hashes"].get(n) == h for n, h in setups[0][2].items()),
                           f"iteration {len(iterations)} prepared other splits than set-up")
            if iterations:
                self.check(it["hashes"] == iterations[0]["hashes"],
                           f"iteration {len(iterations)} artifacts differ from iteration 0")
                self.check(it["wf1"] == iterations[0]["wf1"],
                           f"iteration {len(iterations)} weighted F1 differs from iteration 0")
            iterations.append(it)
            elapsed = time.perf_counter() - started
            typical = statistics.median(i["wall"] for i in iterations)
            if not (self.trace and len(iterations) < 2) and elapsed + typical > seconds:
                break
        self.samples = {"setup_s": [s for s, _, _ in setups],
                        "iterations": [{"traced": i["traced"], "wall_s": i["wall"],
                                        **{n: st["seconds"]
                                           for n, st in i["result"]["stages"].items()}}
                                       for i in iterations]}
        return self._metrics(setups, iterations)

    def _metrics(self, setups, iterations) -> dict:
        plain = [i for i in iterations if not i["traced"]]
        med = lambda f, its=plain: statistics.median(f(i) for i in its)
        secs = lambda *names: (lambda i: sum(i["result"]["stages"][n]["seconds"] for n in names))
        first = iterations[0]
        if self.trace:
            traced = [i for i in iterations if i["traced"]]
            overhead = med(lambda i: i["wall"], traced) - med(lambda i: i["wall"])
            values = layers.per_layer([m["name"] for m in SPEC["per_layer"]],
                                      [layers.totals(r["spans"]) for _, r, _ in setups],
                                      [layers.totals(i["result"]["spans"]) for i in traced],
                                      first["wf1"], overhead)
            idle = layers.idle(self.workload, self.tiny)
            for name, value in values.items():
                self.check(value != 0 or name in idle, f"per-layer metric {name} read 0")
            return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["per_layer"]}
        prepare_s, train_s = med(secs("prepare")), med(secs("train"))
        baselines_s = med(secs("baselines"))
        evaluate_s = med(secs(*(f"evaluate-{r}" for r in RUNS)))
        values = {
            "setup_s": statistics.median(s for s, _, _ in setups),
            "total_s": med(lambda i: i["wall"]),
            "prepare_s": prepare_s,
            "train_s": train_s,
            "train_windows_per_s": first["train_windows"] / train_s,
            "baselines_s": baselines_s,
            "baseline_windows_per_s": first["baseline_windows"] / baselines_s,
            "evaluate_s": evaluate_s,
            "score_windows_per_s": first["score_windows"] / evaluate_s,
            "ingest_frames_per_s": self.plan.frames / prepare_s,
            "peak_rss_mb": max(i["result"]["maxrss_kb"] for i in plain) / 1024.0,
            "supervised_wf1": first["wf1"]["supervised"],
        }
        return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs, for the benchmark's own smoke test")
    parser.add_argument("--work-dir", default=str(BENCH_DIR / ".work"),
                        help="where inputs and run directories go (default: perfbench/.work)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subadapt" / "cli.py").is_file():
        print(f"error: no subadapt sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = Path(args.work_dir).resolve() / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, bool(args.trace), args.size == "tiny", work)
    try:
        metrics = bench.run(args.seconds)
    except StageFailed as e:
        metrics = {}
        print(f"stopped after failure in {e}", file=sys.stderr)

    # keep the result and client records, drop the bulky inputs and run directories
    for bulky in (work / "setup", work / "run"):
        shutil.rmtree(bulky, ignore_errors=True)
    bench.corpus.unlink(missing_ok=True)

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS, **bench.stage_env}
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failure_ratio {bench.failed}/{bench.attempted} "
          f"({bench.failed / max(bench.attempted, 1):.3g})")
    for problem in bench.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {"correct": bench.failed == 0 and bool(metrics), "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    _write_json(work / "result.json", {**result, "workload": args.workload, "seed": args.seed,
                                       "trace": args.trace, "env": env,
                                       "problems": bench.problems, "samples": bench.samples})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
