"""Experiment orchestration: resolved configs, prepared data layout, runs.

One JSON config drives everything. Every command writes into
config["output_dir"]:

    prepared/        six dataset directories + fitted models + prepare.json,
                     which holds one sha256 over the six splits' files
    adapted/         checkpoint.json, losses.csv, record.json (+ report.*)
    no_transfer/     checkpoint.json, record.json (+ report.*)
    supervised/      checkpoint.json, record.json (+ report.*)
    comparison.csv   once at least two runs have reports

Reruns with the same config and seed are byte-identical for datasets,
checkpoints and loss CSVs (records carry wall-clock durations and differ).
Each run record keeps the splits' sha256 it was trained on, and `evaluate`
refuses a run whose splits were prepared anew since.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation as ev
from .checkpoint import load_checkpoint, save_bundle, save_checkpoint
from .networks import (Classifier, ClassifierSpec, DiscriminatorSpec, GeneratorSpec,
                       build_bundle)
from .pipeline import (CsvSchema, DomainDataset, PipelineError, RawRecording, SplitSpec,
                       SynthSpec, apply_minmax, apply_pca, declared_minmax, fit_minmax,
                       fit_pca, generate_synthetic_pair, impute_missing, load_recordings,
                       rotation_mixing, save_recordings_csv, segment_windows, split_domain)
from .sampler import compute_micro_size
from .trainer import TrainerConfig, train, train_classifier

SPLIT_NAMES = ("source_train", "source_val", "source_test",
               "target_train", "target_val", "target_test")
RUN_NAMES = ("no_transfer", "adapted", "supervised")


class ConfigError(ValueError):
    pass


_REQUIRED = object()


def _take(section: dict, key: str, default=_REQUIRED, where: str = ""):
    if key in section:
        return section.pop(key)
    if default is _REQUIRED:
        raise ConfigError(f"missing required key {key!r} in {where or 'config'}")
    return default


def _no_extras(section: dict, where: str) -> None:
    if section:
        raise ConfigError(f"unknown keys in {where}: {sorted(section)}")


@dataclass
class CsvDataConfig:
    path: str
    sample_rate: float
    source_subject: str
    target_subject: str
    schema: CsvSchema
    window_seconds: float
    overlap: float
    normalization: str          # "declared" or "fitted"
    declared_low: float
    declared_high: float


@dataclass
class NetworkConfig:
    blocks: int = 2
    generator_filters: int = 32
    classifier_filters: int = 16
    discriminator_filters: int = 8
    noise_dim: int = 16


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    data_kind: str              # "synthetic" or "csv"
    synth: SynthSpec | None
    csv: CsvDataConfig | None
    pca_dim: int | None
    pca_fraction: float | None
    split: SplitSpec
    networks: NetworkConfig
    trainer: TrainerConfig
    raw: dict                   # resolved snapshot for records

    @property
    def prepared_dir(self) -> Path:
        return self.output_dir / "prepared"

    def run_dir(self, name: str) -> Path:
        return self.output_dir / name


def _resolve_synth(section: dict, default_seed: int) -> SynthSpec:
    where = "data.synthetic"
    num_classes = int(_take(section, "num_classes", where=where))
    channels = int(_take(section, "channels", where=where))
    frames = int(_take(section, "frames", where=where))
    counts = tuple(int(c) for c in _take(section, "class_counts", where=where))
    rotation = _take(section, "rotation_degrees", None, where)
    mixing = _take(section, "mixing", None, where)
    if rotation is not None and mixing is not None:
        raise ConfigError("give rotation_degrees or mixing, not both")
    if rotation is not None:
        mixing = rotation_mixing(channels, float(rotation))
    elif mixing is not None:
        mixing = np.asarray(mixing, dtype=np.float64)
    offset = _take(section, "offset", 0.0, where)
    offset = np.asarray(offset, dtype=np.float64) if isinstance(offset, list) else float(offset)
    spec = SynthSpec(
        num_classes=num_classes, channels=channels, frames=frames, class_counts=counts,
        mixing=mixing, offset=offset,
        shift_noise=float(_take(section, "shift_noise", 0.0, where)),
        sample_noise=float(_take(section, "sample_noise", 0.05, where)),
        seed=int(_take(section, "seed", default_seed, where)),
    )
    _no_extras(section, where)
    return spec


def _resolve_csv(section: dict) -> CsvDataConfig:
    where = "data.csv"
    schema_d = dict(_take(section, "schema", {}, where))
    schema = CsvSchema(
        subject_column=str(schema_d.pop("subject_column", "subject")),
        label_column=str(schema_d.pop("label_column", "label")),
        channel_columns=tuple(schema_d.pop("channel_columns")) if "channel_columns" in schema_d else None,
        missing_marker=str(schema_d.pop("missing_marker", "NaN")),
        allowed_labels=tuple(schema_d.pop("allowed_labels")) if "allowed_labels" in schema_d else None,
    )
    _no_extras(schema_d, "data.csv.schema")
    cfg = CsvDataConfig(
        path=str(_take(section, "path", where=where)),
        sample_rate=float(_take(section, "sample_rate", where=where)),
        source_subject=str(_take(section, "source_subject", where=where)),
        target_subject=str(_take(section, "target_subject", where=where)),
        schema=schema,
        window_seconds=float(_take(section, "window_seconds", where=where)),
        overlap=float(_take(section, "overlap", 0.7, where)),
        normalization=str(_take(section, "normalization", "declared", where)),
        declared_low=float(_take(section, "declared_low", 0.0, where)),
        declared_high=float(_take(section, "declared_high", 1.0, where)),
    )
    _no_extras(section, where)
    if cfg.normalization not in ("declared", "fitted"):
        raise ConfigError(f"normalization must be 'declared' or 'fitted', got {cfg.normalization!r}")
    return cfg


def resolve_config(raw: dict) -> RunConfig:
    """Validate a config dict; unknown keys anywhere are an error."""
    snapshot = json.loads(json.dumps(raw))   # defensive copy, proves JSON-serializable
    d = dict(raw)
    seed = int(_take(d, "seed", 0))
    output_dir = Path(str(_take(d, "output_dir")))

    data = dict(_take(d, "data"))
    kind = str(_take(data, "kind", where="data"))
    synth = csv_cfg = None
    if kind == "synthetic":
        synth = _resolve_synth(dict(_take(data, "synthetic", where="data")), seed)
    elif kind == "csv":
        csv_cfg = _resolve_csv(dict(_take(data, "csv", where="data")))
    else:
        raise ConfigError(f"data.kind must be 'synthetic' or 'csv', got {kind!r}")
    _no_extras(data, "data")

    prep = dict(_take(d, "preprocessing", {}))
    pca_dim = _take(prep, "pca_dim", None, "preprocessing")
    pca_fraction = _take(prep, "pca_fraction", None, "preprocessing")
    if pca_dim is not None and pca_fraction is not None:
        raise ConfigError("give pca_dim or pca_fraction, not both")
    split_d = dict(_take(prep, "split", {}, "preprocessing"))
    split = SplitSpec(train=float(split_d.pop("train", 0.6)),
                      val=float(split_d.pop("val", 0.1)),
                      test=float(split_d.pop("test", 0.3)))
    _no_extras(split_d, "preprocessing.split")
    _no_extras(prep, "preprocessing")

    nets = dict(_take(d, "networks", {}))
    networks = NetworkConfig(
        blocks=int(_take(nets, "blocks", 2, "networks")),
        generator_filters=int(_take(nets, "generator_filters", 32, "networks")),
        classifier_filters=int(_take(nets, "classifier_filters", 16, "networks")),
        discriminator_filters=int(_take(nets, "discriminator_filters", 8, "networks")),
        noise_dim=int(_take(nets, "noise_dim", 16, "networks")),
    )
    _no_extras(nets, "networks")

    samp = dict(_take(d, "sampler", {}))
    micro_size = _take(samp, "micro_size", None, "sampler")
    micro_cap = int(_take(samp, "micro_cap", 32, "sampler"))
    with_replacement = bool(_take(samp, "with_replacement", False, "sampler"))
    mode = str(_take(samp, "mode", "micro", "sampler"))
    _no_extras(samp, "sampler")

    tr = dict(_take(d, "trainer", {}))
    try:
        trainer_cfg = TrainerConfig(
            adversary_weight=float(_take(tr, "adversary_weight", 1.0, "trainer")),
            classification_weight=float(_take(tr, "classification_weight", 1.0, "trainer")),
            epochs=int(_take(tr, "epochs", 150, "trainer")),
            micro_size=None if micro_size is None else int(micro_size),
            micro_cap=micro_cap,
            with_replacement=with_replacement,
            sampler=mode,
            smoothing_pos=float(_take(tr, "smoothing_pos", 0.9, "trainer")),
            smoothing_neg=float(_take(tr, "smoothing_neg", 0.0, "trainer")),
            noise_amplitude=float(_take(tr, "noise_amplitude", 0.1, "trainer")),
            lr_generator=float(_take(tr, "lr_generator", 1e-3, "trainer")),
            lr_discriminator=float(_take(tr, "lr_discriminator", 1e-3, "trainer")),
            lr_classifier=float(_take(tr, "lr_classifier", 1e-3, "trainer")),
            seed=seed,
            patience=int(_take(tr, "patience", 25, "trainer")),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None
    _no_extras(tr, "trainer")
    _no_extras(d, "config")

    return RunConfig(seed=seed, output_dir=output_dir, data_kind=kind, synth=synth,
                     csv=csv_cfg, pca_dim=None if pca_dim is None else int(pca_dim),
                     pca_fraction=None if pca_fraction is None else float(pca_fraction),
                     split=split, networks=networks, trainer=trainer_cfg, raw=snapshot)


def apply_overrides(raw: dict, assignments) -> dict:
    """Apply 'a.b.c=value' overrides; values parse as JSON, else stay strings."""
    out = json.loads(json.dumps(raw))
    for item in assignments or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-section {part!r} in {item!r}")
        node[parts[-1]] = parsed
    return out


def load_config(path, assignments=None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return resolve_config(apply_overrides(raw, assignments))


# ---------------------------------------------------------------------------
# prepare


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hash_splits(prepared: Path) -> str:
    """One digest over every file of the six saved splits."""
    digest = hashlib.sha256()
    for name in SPLIT_NAMES:
        for path in sorted((prepared / name).iterdir()):
            digest.update(f"{name}/{path.name} {_sha256(path)}\n".encode())
    return digest.hexdigest()


def _write_record(directory: Path, payload: dict) -> None:
    (directory / "record.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _prepare_synthetic(cfg: RunConfig):
    source, target = generate_synthetic_pair(cfg.synth)
    return split_domain(source, cfg.split) + split_domain(target, cfg.split)


def _prepare_csv(cfg: RunConfig):
    c = cfg.csv
    recordings = load_recordings(c.path, c.schema, c.sample_rate)
    by_subject = {r.subject_id: r for r in recordings}
    datasets = []
    for role, subject in (("source", c.source_subject), ("target", c.target_subject)):
        if subject not in by_subject:
            raise PipelineError(f"{role} subject {subject!r} not present in {c.path} "
                                f"(found: {sorted(by_subject)})")
        rec = impute_missing(by_subject[subject])
        if c.normalization == "declared":
            norm = declared_minmax(c.declared_low, c.declared_high, rec.num_channels)
        else:
            norm = fit_minmax(rec.frames)
        rec = apply_minmax(norm, rec)
        ds = segment_windows(rec, c.window_seconds, c.overlap)
        if len(ds) < 3:
            raise PipelineError(f"subject {subject!r} yields only {len(ds)} windows")
        datasets.extend(split_domain(ds, cfg.split))
    return tuple(datasets)


def prepare_run(cfg: RunConfig) -> dict:
    """Generate or ingest, split, normalize, reduce; persist everything."""
    started = time.time()
    splits = dict(zip(SPLIT_NAMES, _prepare_synthetic(cfg) if cfg.data_kind == "synthetic"
                      else _prepare_csv(cfg)))

    pooled_train = np.vstack([splits["source_train"].windows, splits["target_train"].windows])
    out = cfg.prepared_dir
    out.mkdir(parents=True, exist_ok=True)
    # written last: until then the directory reads as not prepared
    (out / "prepare.json").unlink(missing_ok=True)

    if cfg.data_kind == "synthetic":
        # synthetic windows arrive unscaled; pin each dimension to [0, 1] on pooled train
        norm = fit_minmax(pooled_train)
        splits = {k: ds.with_windows(norm.apply(ds.windows)) for k, ds in splits.items()}
        pooled_train = norm.apply(pooled_train)
        norm.to_json(out / "normalization.json")

    pca = None
    if cfg.pca_dim is not None or cfg.pca_fraction is not None:
        pca = fit_pca(pooled_train, output_dim=cfg.pca_dim, fraction=cfg.pca_fraction)
        splits = {k: apply_pca(pca, ds) for k, ds in splits.items()}
        pca.to_json(out / "pca.json")

    for name, ds in splits.items():
        ds.save(out / name)

    meta = {
        "config": cfg.raw,
        "dim": int(splits["source_train"].dim),
        "num_classes": int(splits["source_train"].num_classes),
        "counts": {k: len(v) for k, v in splits.items()},
        "class_counts": {k: v.class_counts().tolist() for k, v in splits.items()
                         if v.labels is not None},
        "pca": None if pca is None else {
            "output_dim": pca.output_dim,
            "explained_variance": float(pca.explained_variance_ratio.sum())},
        "splits_sha256": _hash_splits(out),
        "duration_seconds": time.time() - started,
    }
    (out / "prepare.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return splits


def load_prepared(cfg: RunConfig) -> dict:
    out = cfg.prepared_dir
    if not (out / "prepare.json").exists():
        raise PipelineError(f"no prepared data under {out}; run `subadapt prepare` first")
    return {name: DomainDataset.load(out / name) for name in SPLIT_NAMES}


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise PipelineError(f"{path} is damaged: {e}") from None


def _splits_sha256(cfg: RunConfig) -> str | None:
    """The splits' sha256 that prepare.json recorded."""
    return _read_json(cfg.prepared_dir / "prepare.json").get("splits_sha256")


# ---------------------------------------------------------------------------
# training commands


def _build_bundle(cfg: RunConfig, dim: int, num_classes: int):
    n = cfg.networks
    return build_bundle(
        GeneratorSpec(dim, blocks=n.blocks, filters=n.generator_filters,
                      noise_dim=n.noise_dim, seed=cfg.seed),
        DiscriminatorSpec(dim, base_filters=n.discriminator_filters, seed=cfg.seed),
        ClassifierSpec(dim, num_classes=num_classes, base_filters=n.classifier_filters,
                       seed=cfg.seed),
    )


def _losses_csv(history) -> str:
    lines = ["step,epoch,loss_d,loss_c,loss_g"]
    for r in history:
        lines.append(f"{r.step},{r.epoch},{repr(r.loss_d)},{repr(r.loss_c)},{repr(r.loss_g)}")
    return "\n".join(lines) + "\n"


def train_run(cfg: RunConfig) -> dict:
    """Adversarial adaptation; writes adapted/{checkpoint.json,losses.csv,record.json}."""
    started = time.time()
    splits = load_prepared(cfg)
    source = splits["source_train"]
    target = splits["target_train"].unlabeled()   # evaluation labels never reach training
    bundle = _build_bundle(cfg, source.dim, source.num_classes)
    _, state = train(bundle, source, target, cfg.trainer)

    run_dir = cfg.run_dir("adapted")
    run_dir.mkdir(parents=True, exist_ok=True)
    ckpt = run_dir / "checkpoint.json"
    save_bundle(bundle, ckpt, seed=cfg.seed, step_count=state.step)
    (run_dir / "losses.csv").write_text(_losses_csv(state.history))
    record = {
        "run": "adapted",
        "config": cfg.raw,
        "steps": state.step,
        "epochs_run": state.epoch + 1 if state.step else 0,
        "stop_reason": state.stop_reason,
        "mean_discrepancy": state.mean_discrepancy,
        "final_losses": None if not state.history else {
            "loss_d": state.history[-1].loss_d,
            "loss_c": state.history[-1].loss_c,
            "loss_g": state.history[-1].loss_g},
        "artifacts": {"checkpoint.json": _sha256(ckpt),
                      "losses.csv": _sha256(run_dir / "losses.csv")},
        "splits_sha256": _splits_sha256(cfg),
        "duration_seconds": time.time() - started,
    }
    _write_record(run_dir, record)
    return record


def baselines_run(cfg: RunConfig) -> dict:
    """The transfer sandwich bounds: source-only and target-supervised classifiers."""
    splits = load_prepared(cfg)
    results = {}
    jobs = {"no_transfer": splits["source_train"], "supervised": splits["target_train"]}
    if jobs["supervised"].labels is None:
        raise PipelineError("supervised baseline needs a labeled target train split")
    micro = cfg.trainer.micro_size if cfg.trainer.micro_size is not None else \
        compute_micro_size(splits["source_train"], cfg.trainer.micro_cap)
    batch_size = micro * splits["source_train"].num_classes
    for name, data in jobs.items():
        started = time.time()
        cls = Classifier(ClassifierSpec(data.dim, num_classes=data.num_classes,
                                        base_filters=cfg.networks.classifier_filters,
                                        seed=cfg.seed))
        _, history = train_classifier(cls, data, cfg.trainer, batch_size, label=name)
        run_dir = cfg.run_dir(name)
        run_dir.mkdir(parents=True, exist_ok=True)
        ckpt = run_dir / "checkpoint.json"
        save_checkpoint({"classifier": cls}, ckpt, seed=cfg.seed, step_count=len(history))
        record = {
            "run": name,
            "config": cfg.raw,
            "steps": len(history),
            "final_loss": history[-1].loss_c if history else None,
            "artifacts": {"checkpoint.json": _sha256(ckpt)},
            "splits_sha256": _splits_sha256(cfg),
            "duration_seconds": time.time() - started,
        }
        _write_record(run_dir, record)
        results[name] = record
    return results


def evaluate_run(cfg: RunConfig, checkpoint_path=None, run_name: str = "adapted") -> dict:
    """Score a checkpoint's classifier on the labeled target test split."""
    splits = load_prepared(cfg)
    test = splits["target_test"]
    if test.labels is None:
        raise PipelineError("target test split is unlabeled; nothing to score")
    if checkpoint_path is None:
        checkpoint_path = cfg.run_dir(run_name) / "checkpoint.json"
    checkpoint_path = Path(checkpoint_path)
    if not checkpoint_path.exists():
        raise PipelineError(f"checkpoint not found: {checkpoint_path}")
    record = checkpoint_path.parent / "record.json"
    if record.exists():
        trained_on = _read_json(record).get("splits_sha256")
        if trained_on is not None and trained_on != _splits_sha256(cfg):
            raise PipelineError(f"{checkpoint_path} was trained on other prepared splits than "
                                f"those under {cfg.prepared_dir}; train it again")
    models, _ = load_checkpoint(checkpoint_path)
    if "classifier" not in models:
        raise PipelineError(f"{checkpoint_path} holds no classifier")
    classifier = models["classifier"]
    if classifier.spec.input_dim != test.dim:
        raise PipelineError(f"{checkpoint_path} takes {classifier.spec.input_dim}-dimensional "
                            f"windows, but the prepared splits have dimension {test.dim}")
    preds = classifier.predict(test.windows)
    rep = ev.report(ev.confusion(test.labels, preds, test.num_classes),
                    class_names=test.label_names)
    run_dir = checkpoint_path.parent
    ev.save_report(rep, run_dir / "report.json", run_dir / "report.txt")
    refresh_comparison(cfg)
    return ev.report_to_dict(rep)


def refresh_comparison(cfg: RunConfig):
    """Rebuild comparison.csv from whichever standard runs have reports."""
    named = []
    for name in RUN_NAMES:
        path = cfg.run_dir(name) / "report.json"
        if path.exists():
            named.append((name, ev.report_from_dict(json.loads(path.read_text()))))
    if len(named) < 2:
        return None
    comparison = ev.compare_runs(named)
    (cfg.output_dir / "comparison.csv").write_text(comparison.to_csv())
    return comparison


def synth_run(cfg: RunConfig, out_path) -> Path:
    """Emit the synthetic corpus as a frame-per-row CSV in the ingestion schema.

    Each window becomes `frames` consecutive rows; re-ingest with
    sample_rate=frames, window_seconds=1.0, overlap=0.0 to reconstruct it.
    """
    if cfg.data_kind != "synthetic":
        raise ConfigError("synth requires data.kind = 'synthetic'")
    source, target = generate_synthetic_pair(cfg.synth)
    spec = cfg.synth
    raws = []
    for ds in (source, target):
        frames = ds.windows.reshape(len(ds) * spec.frames, spec.channels)
        labels = np.repeat(ds.labels, spec.frames)
        raws.append(RawRecording(ds.subject_id, frames, labels, float(spec.frames),
                                 ds.label_names))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_recordings_csv(raws, out_path)
    return out_path
