"""Bit-exact JSON checkpoints: each network's spec + flat parameter arrays.

Values are written as Python floats, whose repr-based JSON encoding
round-trips float64 exactly, so save followed by load reproduces every
parameter bit for bit.
"""
from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .networks import (Classifier, ClassifierSpec, Discriminator, DiscriminatorSpec,
                       Generator, GeneratorSpec, ModelBundle)
from .pipeline import PipelineError, read_json

FORMAT_NAME = "subadapt-checkpoint"
FORMAT_VERSION = 1

_BUILDERS = {net_cls.kind: (spec_cls, net_cls) for spec_cls, net_cls in (
    (GeneratorSpec, Generator), (DiscriminatorSpec, Discriminator), (ClassifierSpec, Classifier))}
_SPEC_FIELDS = {kind: tuple(f.name for f in fields(spec)) for kind, (spec, _) in _BUILDERS.items()}


def save_checkpoint(models: dict, path, seed: int = 0, step_count: int = 0) -> None:
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "seed": int(seed),
        "step_count": int(step_count),
        "models": {},
    }
    for name, net in models.items():
        spec = {f: getattr(net.spec, f) for f in _SPEC_FIELDS[net.kind]}
        params = {pname: {"shape": list(p.data.shape), "values": p.data.ravel().tolist()}
                  for pname, p in net.parameters().items()}
        payload["models"][name] = {"kind": net.kind, "spec": spec, "parameters": params}
    Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_checkpoint(path) -> tuple[dict, dict]:
    """Returns ({name: rebuilt network}, {"seed": ..., "step_count": ...}); PipelineError
    for a file that is not a JSON object, not this format, or does not fit its architecture."""
    payload = read_json(path)
    if payload.get("format") != FORMAT_NAME:
        raise PipelineError(f"{path}: not a {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise PipelineError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    meta = {"seed": payload.get("seed"), "step_count": payload.get("step_count")}
    if not isinstance(payload.get("models"), dict) or not all(type(v) is int for v in meta.values()):
        raise PipelineError(f"{path}: damaged checkpoint header")
    return {name: _rebuild(entry, f"{path}: model {name!r}")
            for name, entry in payload["models"].items()}, meta


def _rebuild(entry, where: str):
    kind = entry.get("kind") if isinstance(entry, dict) else None
    spec = entry.get("spec") if kind in _BUILDERS else None
    if not (isinstance(spec, dict) and set(spec) == set(_SPEC_FIELDS[kind])
            and all(type(v) is int for v in spec.values())):
        raise PipelineError(f"{where} has an unknown kind or a damaged spec")
    spec_cls, net_cls = _BUILDERS[kind]
    try:
        net = net_cls(spec_cls(**spec))
    except ValueError as e:  # the spec's own range checks
        raise PipelineError(f"{where}: {e}") from e
    params, stored = net.parameters(), entry.get("parameters")
    if not isinstance(stored, dict) or set(stored) != set(params):
        raise PipelineError(f"{where}: parameter names do not match architecture")
    for pname, p in params.items():
        rec = stored[pname]
        if not (isinstance(rec, dict) and rec.get("shape") == list(p.data.shape)
                and isinstance(rec.get("values"), list) and len(rec["values"]) == p.data.size
                and set(map(type, rec["values"])) <= {int, float}):
            raise PipelineError(f"{where}: parameter {pname!r} does not fit shape {p.data.shape}")
        try:
            values = np.asarray(rec["values"], dtype=np.float64)
        except OverflowError:   # an integer beyond float64's range
            values = None
        if values is None or not np.isfinite(values).all():
            raise PipelineError(f"{where}: parameter {pname!r} holds a NaN or infinite value")
        p.data = values.reshape(p.data.shape)
    return net


def save_bundle(bundle: ModelBundle, path, seed: int = 0, step_count: int = 0) -> None:
    save_checkpoint({net.kind: net for net in (bundle.generator, bundle.discriminator,
                                               bundle.classifier)}, path, seed, step_count)
