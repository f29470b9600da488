"""Per-layer metrics from the spans of a traced run.

A span is `[id, parent, name, start, end, attrs]`. Most metrics are the
milliseconds spent in spans of one name, totalled per set-up and per timed
iteration; a self time subtracts the time covered by the span's children.
Counts (steps, calls, FLOPs, bytes, tape ops, gradient elements) repeat
exactly for a given commit and seed; FLOPs and bytes are computed from
operand shapes by the tracer, not measured.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

NAMED_LAYERS = (
    "generator.block0.conv0", "generator.block0.conv1", "generator.block1.conv0",
    "generator.block1.conv1", "generator.output",
    "discriminator.conv0", "discriminator.conv1", "discriminator.conv2",
    "discriminator.conv3", "discriminator.conv4", "discriminator.output",
    "classifier.conv0", "classifier.conv1", "classifier.conv2", "classifier.output",
)
LOSSES = ("d", "c", "g")

_OPS = ("tensor.conv1d.fwd", "tensor.conv1d.bwd", "tensor.dense.fwd", "tensor.dense.bwd")


def totals(spans) -> dict:
    """Raw totals over the spans of one set-up or one timed iteration."""
    t = defaultdict(float)
    t["step_ms"] = []
    covered = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            covered[span[1]] += span[4] - span[3]
    for sid, _, name, start, end, attrs in spans:
        ms = (end - start) * 1e3
        attrs = attrs or {}
        self_ms = ms - covered[sid] * 1e3
        if name.startswith("harness."):
            t[f"{name}.self_ms"] += self_ms
        elif name == "trainer.step":
            t["step_ms"].append(ms)
            t["trainer.steps"] += 1
        elif name == "tensor.backward":
            t["tensor.backward.self_ms"] += self_ms
            if attrs["loss"] in LOSSES:
                t[f"tensor.backward_ms.{attrs['loss']}"] += ms
                t["tensor.grad_elems_returned"] += attrs["elems"]
            elif attrs["loss"] == "baseline":
                t["baseline_steps"] += 1
            t["tape_ops"] += attrs["tape_ops"]
        elif name == "optim.step":
            t["optim.step_ms"] += ms
            if attrs["loss"] in LOSSES:
                t["tensor.grad_elems_used"] += attrs["elems"]
        elif name in _OPS:
            t[f"{name}_ms"] += ms
            if name == "tensor.conv1d.fwd":
                t["tensor.conv1d.calls"] += 1
            if name.startswith("tensor.conv1d"):
                t["conv_flop"] += attrs["flop"]
                t["conv_bytes"] += attrs["bytes"]
            if attrs["layer"]:
                t[f"{attrs['layer']}.mflop"] += attrs["flop"] / 1e6
                t[f"{attrs['layer']}.mbyte"] += attrs["bytes"] / 1e6
                if name.endswith(".bwd"):
                    t[f"{attrs['layer']}.bwd_ms"] += ms
        elif name == "checkpoint.save":
            t["checkpoint.save_ms"] += ms
            t["checkpoint.bytes"] += attrs["bytes"]
        elif name != "trainer.train_classifier":
            t[f"{name}_ms"] += ms
    return t


def _median_totals(units) -> dict:
    keys = {k for u in units for k in u if k != "step_ms"}
    return {k: statistics.median(u.get(k, 0.0) for u in units) for k in keys}


def idle(workload: str, tiny: bool) -> set:
    """Per-layer metrics that read 0 on a workload because it never runs that layer."""
    names = {"pipeline.load_recordings_ms", "pipeline.impute_ms", "pipeline.segment_ms",
             "pipeline.csv_write_ms", "harness.synth.self_ms"}
    if workload == "ingest":
        names = set()
    if tiny:
        names |= {f"layer.generator.block1.{n}.{k}" for n in ("conv0", "conv1")
                  for k in ("fwd_ms", "bwd_ms", "mflop", "mbyte")}
    return names


def per_layer(names, setups, iterations, quality: dict, overhead_s: float) -> dict:
    """Values of the named metrics: the median set-up total plus the median timed-iteration
    total, then ratios. A name no span produced reads 0; `idle` says where that is expected."""
    raw = defaultdict(float)
    for units in (setups, iterations):
        if units:
            for k, v in _median_totals(units).items():
                raw[k] += v
    steps = [ms for u in iterations for ms in u["step_ms"]]
    per_step = raw["trainer.steps"] or 1.0
    conv_s = (raw["tensor.conv1d.fwd_ms"] + raw["tensor.conv1d.bwd_ms"]) / 1e3
    derived = {
        "trainer.step_ms.p50": statistics.median(steps) if steps else 0.0,
        "trainer.step_ms.p90": statistics.quantiles(steps, n=10)[8] if len(steps) > 1 else 0.0,
        "tensor.conv1d.gflop": raw["conv_flop"] / 1e9,
        "tensor.conv1d.gbyte": raw["conv_bytes"] / 1e9,
        "tensor.conv1d.gflops_per_s": raw["conv_flop"] / 1e9 / conv_s if conv_s else 0.0,
        "tensor.grad_useful_ratio": (raw["tensor.grad_elems_used"] / raw["tensor.grad_elems_returned"]
                                     if raw["tensor.grad_elems_returned"] else 0.0),
        "tensor.grad_elems_used": raw["tensor.grad_elems_used"] / per_step,
        "tensor.grad_elems_returned": raw["tensor.grad_elems_returned"] / per_step,
        # adversarial steps record three tapes (d, c, g), baseline steps one
        "tensor.tape_ops_per_step": (raw["tape_ops"] / (raw["trainer.steps"] + raw["baseline_steps"])
                                     if raw["tape_ops"] else 0.0),
        "evaluation.adapted_wf1": quality["adapted"],
        "evaluation.no_transfer_wf1": quality["no_transfer"],
        "bench.trace_overhead_s": overhead_s,
    }
    return {name: derived[name] if name in derived else raw.get(name, 0.0) for name in names}
