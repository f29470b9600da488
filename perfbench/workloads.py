"""The three workloads: the subadapt configs they run, built from the seed.

Every workload runs the same user-visible stage chain, one pass per fresh
client process, because every end-to-end metric must be measured on every
workload:

    prepare -> train -> baselines -> evaluate x3 -> report

What differs is the input, and so where the time goes:

- adapt:    the README quick-start corpus and networks; `train` dominates.
- classify: ten times the README class counts, small networks (<= 16
            filters); baselines and scoring dominate, and tape bookkeeping
            rather than conv FLOPs sets the step time.
- ingest:   the README corpus written to CSV with missing cells; `prepare`
            (parse, impute, overlapping windows, PCA) dominates, training
            runs at its smallest budget.

Set-up does the workload's own input work: `ingest` writes its corpus to
CSV through `synth`, the others `prepare` their corpus once, and those
prepared splits are the bytes every timed `prepare` must reproduce.

Train and baseline budgets are fixed epoch counts with the plateau stop
pushed past them (`patience` = epochs), so every commit does the same work.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("adapt", "classify", "ingest")
MISSING_SHARE = 0.02     # share of CSV channel cells the ingest set-up blanks out

README_SYNTH = {"num_classes": 4, "channels": 40, "frames": 25,
                "class_counts": [300, 300, 300, 60], "rotation_degrees": 30.0,
                "offset": 0.5, "shift_noise": 0.05, "sample_noise": 0.3}
TINY_SYNTH = dict(README_SYNTH, channels=4, frames=5, class_counts=[16, 16, 16, 8])
SMALL_NETWORKS = {"generator_filters": 8, "discriminator_filters": 2, "classifier_filters": 16}
TINY_NETWORKS = {"blocks": 1, "generator_filters": 2, "discriminator_filters": 1,
                 "classifier_filters": 4, "noise_dim": 4}


@dataclass
class Plan:
    """What one workload runs: configs, epoch budgets and the CSV its set-up writes."""
    config: dict            # the timed chain's config (output_dir filled in per iteration)
    train_epochs: int
    baseline_epochs: int
    corpus: dict | None     # synthetic config whose corpus set-up writes to CSV, or None
    frames: int             # raw frames that enter one prepare (for ingest_frames_per_s)


def _synthetic(seed: int, synth: dict, networks: dict, pca_dim: int, micro_cap: int) -> dict:
    return {"seed": seed, "data": {"kind": "synthetic", "synthetic": dict(synth)},
            "preprocessing": {"pca_dim": pca_dim}, "networks": dict(networks),
            "sampler": {"micro_cap": micro_cap}}


def _csv(seed: int, path: str, synth: dict, overlap: float, networks: dict,
         pca_dim: int, micro_cap: int) -> dict:
    return {"seed": seed,
            "data": {"kind": "csv", "csv": {
                "path": path, "sample_rate": float(synth["frames"]),
                "source_subject": "source", "target_subject": "target",
                "window_seconds": 1.0, "overlap": overlap, "normalization": "fitted"}},
            "preprocessing": {"pca_dim": pca_dim}, "networks": dict(networks),
            "sampler": {"micro_cap": micro_cap}}


def _frames(synth: dict) -> int:
    return 2 * sum(synth["class_counts"]) * synth["frames"]


def plan(workload: str, seed: int, tiny: bool, corpus_csv: str) -> Plan:
    nets = TINY_NETWORKS if tiny else SMALL_NETWORKS
    pca, cap = (8, 2) if tiny else (50, 8)
    if workload == "adapt":
        synth = TINY_SYNTH if tiny else README_SYNTH
        return Plan(_synthetic(seed, synth, TINY_NETWORKS if tiny else {}, pca, cap),
                    train_epochs=1 if tiny else 4, baseline_epochs=1 if tiny else 6,
                    corpus=None, frames=_frames(synth))
    if workload == "classify":
        synth = TINY_SYNTH if tiny else dict(
            README_SYNTH, channels=8, class_counts=[10 * c for c in README_SYNTH["class_counts"]])
        return Plan(_synthetic(seed, synth, nets, pca, cap),
                    train_epochs=1, baseline_epochs=1,
                    corpus=None, frames=_frames(synth))
    if workload == "ingest":
        synth = TINY_SYNTH if tiny else README_SYNTH
        return Plan(_csv(seed, corpus_csv, synth, 0.5, nets, pca, cap),
                    train_epochs=1, baseline_epochs=1 if tiny else 6,
                    corpus=_synthetic(seed, synth, {}, pca, cap), frames=_frames(synth))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def blank_cells(path: str, seed: int, share: float = MISSING_SHARE) -> None:
    """Swap a seeded share of channel cells in a subadapt CSV for the missing marker."""
    rng = random.Random(seed)
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    out = [header]
    for row in rows:
        subject, label, *cells = row.split(",")
        cells = ["NaN" if rng.random() < share else cell for cell in cells]
        out.append(",".join([subject, label, *cells]))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
