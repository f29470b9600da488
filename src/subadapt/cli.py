"""Command-line entry point.

Exit codes: 0 success, 1 stdout closed before the output was written (as
`| head -1` does; no message), 2 config error (an unreadable config file too),
3 data error (an input or stored file missing, damaged, short of a key or
mismatched, or a path the file system refuses), 4 training divergence; each
error is one line. `evaluate --run` scores a run's own checkpoint and writes its
report, once the run's record names the current splits; `evaluate --checkpoint`
scores any checkpoint file and only prints. `evaluate` and `report` compare only
the runs whose records name the current splits, and `report` prints only their
reports.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .evaluation import render_report
from .harness import ConfigError
from .pipeline import PipelineError
from .trainer import DivergedError

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subadapt",
        description="Adversarial subject-to-subject adaptation for windowed time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value, e.g. trainer.epochs=20")
        return p

    command("prepare", "ingest or generate data, fit transforms, persist splits")
    command("train", "run adversarial adaptation on the prepared splits")
    command("baselines", "train the no-transfer and supervised reference classifiers")
    p = command("evaluate", "score a checkpoint on the labeled target test split")
    p.add_argument("--checkpoint", default=None,
                   help="any checkpoint file to score; its report is printed, not written")
    p.add_argument("--run", default="adapted", choices=list(harness.RUN_NAMES),
                   help="the run whose checkpoint to score and whose report to write when "
                        "--checkpoint is not given")
    p = command("synth", "emit the synthetic corpus as a frame-per-row CSV")
    p.add_argument("--out", required=True, help="destination CSV path")
    command("report", "print the reports of runs on the current splits and rebuild the "
                      "comparison table")
    return parser


def _cmd_prepare(cfg, args) -> int:
    splits = harness.prepare_run(cfg)
    counts = ", ".join(f"{k}={len(v)}" for k, v in splits.items())
    print(f"prepared {cfg.prepared_dir} ({counts}, dim={splits['source_train'].dim})")
    return EXIT_OK


def _cmd_train(cfg, args) -> int:
    record = harness.train_run(cfg)
    final = record["final_losses"]
    print(f"adapted run finished: {record['steps']} steps over "
          f"{record['epochs_run']} epochs ({record['stop_reason']})")
    if final:
        print(f"final losses: critic={final['loss_d']:.4f} "
              f"classifier={final['loss_c']:.4f} generator={final['loss_g']:.4f}")
    print(f"artifacts under {cfg.run_dir('adapted')}")
    return EXIT_OK


def _cmd_baselines(cfg, args) -> int:
    results = harness.baselines_run(cfg)
    for name, record in results.items():
        final = record["final_loss"]
        loss = "" if final is None else f", final loss {final:.4f}"
        print(f"{name}: {record['steps']} steps over {record['epochs_run']} epochs "
              f"({record['stop_reason']}){loss} -> {cfg.run_dir(name)}")
    return EXIT_OK


def _cmd_evaluate(cfg, args) -> int:
    rep = harness.evaluate_run(cfg, args.checkpoint, args.run)
    print(render_report(rep), end="")
    print(f"weighted F1: {rep['weighted_f1']:.4f}")
    comparison = cfg.output_dir / "comparison.csv"
    if args.checkpoint is None and comparison.exists():
        print(f"comparison table: {comparison}")
    return EXIT_OK


def _cmd_synth(cfg, args) -> int:
    path = harness.synth_run(cfg, args.out)
    print(f"wrote synthetic corpus to {path}")
    return EXIT_OK


def _cmd_report(cfg, args) -> int:
    comparison = harness.refresh_comparison(cfg)
    current, stale = harness.scored_runs(cfg)
    for name in current:
        print(f"== {name} ==")
        print((cfg.run_dir(name) / "report.txt").read_text())
    if stale:
        print(f"left out, no record of training on the current splits: {', '.join(stale)}")
    if comparison is not None:
        print((cfg.output_dir / "comparison.csv").read_text(), end="")
        if comparison.sandwich is not None:
            verdict = "holds" if comparison.sandwich else "VIOLATED"
            print(f"sandwich (no_transfer <= adapted <= supervised): {verdict}")
    elif not current:
        print("no reports found; run `subadapt evaluate` first")
    return EXIT_OK


_COMMANDS = {"prepare": _cmd_prepare, "train": _cmd_train, "baselines": _cmd_baselines,
             "evaluate": _cmd_evaluate, "synth": _cmd_synth, "report": _cmd_report}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = harness.load_config(args.config, args.set)
        code = _COMMANDS[args.command](cfg, args)
        sys.stdout.flush()   # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit; that flush goes nowhere now
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (PipelineError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergedError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        if e.checkpoint is not None:
            print(f"last healthy parameters saved to "
                  f"{cfg.run_dir('adapted') / harness.RESCUE_NAME}", file=sys.stderr)
        return EXIT_DIVERGED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
