"""Experiment orchestration: resolved configs, prepared data layout, runs.

One JSON config drives everything. Every command writes into
config["output_dir"]:

    prepared/        six dataset directories + fitted models + prepare.json,
                     which holds one sha256 over the six splits' files
    adapted/         checkpoint.json, losses.csv, record.json (+ report.*)
    no_transfer/     checkpoint.json, record.json (+ report.*)
    supervised/      checkpoint.json, record.json (+ report.*)
    comparison.csv   once at least two runs whose records name the current splits
                     have reports

Reruns with the same config and seed are byte-identical for datasets,
checkpoints and loss CSVs (records carry wall-clock durations and differ).
Each run record keeps the splits' sha256 it was trained on, and `evaluate`
refuses a run whose record is gone or whose splits were prepared anew since.
Only a run's own checkpoint has its report written; a checkpoint given by
path, whatever its name or place, is checked by its shapes alone, and nothing
is written.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import evaluation as ev
from .checkpoint import load_checkpoint, save_bundle, save_checkpoint
from .networks import (Classifier, ClassifierSpec, DiscriminatorSpec, GeneratorSpec,
                       build_bundle)
from .pipeline import (CsvSchema, DomainDataset, PipelineError, RawRecording,
                       SplitSpec, SynthSpec, SyntheticStream, Windowing, apply_minmax,
                       apply_pca, declared_minmax, fit_minmax, fit_pca,
                       generate_synthetic_pair, impute_missing, load_recordings, read_json,
                       rotation_mixing, save_recordings_csv, segment_windows, split_domain,
                       split_sizes)
from .sampler import compute_micro_size
from .trainer import DivergedError, TrainerConfig, train, train_classifier

SPLIT_NAMES = ("source_train", "source_val", "source_test",
               "target_train", "target_val", "target_test")
RUN_NAMES = ("no_transfer", "adapted", "supervised")
RESCUE_NAME = "diverged_parameters.json"   # bundle checkpoint of the last healthy parameters


class ConfigError(ValueError):
    pass


@dataclass
class CsvDataConfig:
    path: str
    sample_rate: float
    source_subject: str
    target_subject: str
    window_seconds: float
    schema: CsvSchema = CsvSchema()
    overlap: float = 0.7
    normalization: str = "declared"     # or "fitted"
    declared_low: float = 0.0
    declared_high: float = 1.0

    def __post_init__(self):
        if self.normalization not in ("declared", "fitted"):
            raise ValueError(f"normalization must be 'declared' or 'fitted', "
                             f"got {self.normalization!r}")
        Windowing(self.sample_rate, self.window_seconds, self.overlap)
        if self.normalization == "declared":
            declared_minmax(self.declared_low, self.declared_high, channels=1)


@dataclass
class PreprocessingConfig:
    pca_dim: int | None = None          # None skips PCA
    split: SplitSpec = SplitSpec()

    def __post_init__(self):
        if self.pca_dim is not None and self.pca_dim < 1:
            raise ValueError(f"pca_dim must be >= 1, got {self.pca_dim}")


@dataclass
class NetworkConfig:
    blocks: int = GeneratorSpec.blocks
    generator_filters: int = GeneratorSpec.filters
    classifier_filters: int = ClassifierSpec.base_filters
    discriminator_filters: int = DiscriminatorSpec.base_filters
    noise_dim: int = GeneratorSpec.noise_dim

    def __post_init__(self):
        self.specs(input_dim=1, num_classes=2, seed=0)   # the specs' own range checks

    def specs(self, input_dim: int, num_classes: int, seed: int):
        return (GeneratorSpec(input_dim, blocks=self.blocks, filters=self.generator_filters,
                              noise_dim=self.noise_dim, seed=seed),
                DiscriminatorSpec(input_dim, base_filters=self.discriminator_filters, seed=seed),
                ClassifierSpec(input_dim, num_classes=num_classes,
                               base_filters=self.classifier_filters, seed=seed))


@dataclass
class _TopLevel:
    """The top level of a config file; resolve_config reads each section in turn."""
    output_dir: str
    data: dict
    seed: int = 0
    preprocessing: PreprocessingConfig = field(default_factory=PreprocessingConfig)
    networks: NetworkConfig = field(default_factory=NetworkConfig)
    sampler: dict = field(default_factory=dict)
    trainer: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    data_kind: str              # "synthetic" or "csv"
    synth: SynthSpec | None
    csv: CsvDataConfig | None
    preprocessing: PreprocessingConfig
    networks: NetworkConfig
    trainer: TrainerConfig
    raw: dict                   # resolved snapshot for records

    @property
    def prepared_dir(self) -> Path:
        return self.output_dir / "prepared"

    def run_dir(self, name: str) -> Path:
        return self.output_dir / name


def _number(value):
    """A numeric key's value: a finite JSON number; a string or a boolean is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(value)
    return value


def _whole(value) -> int:
    """An integer key's value: a number with a fractional part is refused too."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _numbers(value) -> np.ndarray:
    """A (nested) list of finite JSON numbers as a float64 array."""
    def check(v):
        for c in v:
            check(c) if isinstance(c, list) else _number(c)
    check(value)
    return np.asarray(value, dtype=np.float64)


def _strings(value) -> tuple:
    """A list of JSON strings as a tuple."""
    if not all(isinstance(c, str) for c in value):
        raise TypeError(value)
    return tuple(value)


_TYPES = {   # field annotation -> (what a config value must be, its JSON type, converter)
    "int": ("an integer", object, _whole),
    "float": ("a finite number", object, lambda v: float(_number(v))),
    "str": ("a string", str, str),
    "dict": ("an object", dict, dict),
    "tuple[str, ...]": ("a list of strings", list, _strings),
    "tuple[int, ...]": ("a list of integers", list, lambda v: tuple(_whole(c) for c in v)),
    "np.ndarray": ("a list of finite numbers", list, _numbers),
    "float | np.ndarray": ("a finite number or a list of finite numbers", object,
                           lambda v: _numbers(v) if isinstance(v, list) else float(_number(v))),
}
_NESTED = {cls.__name__: cls for cls in (CsvSchema, SplitSpec, PreprocessingConfig,
                                           NetworkConfig)}


def _coerce(value, kind: str, where: str):
    """A config value as the field annotation `kind` says; ConfigError naming `where`."""
    if kind.endswith(" | None"):
        if value is None:
            return None
        kind = kind[:-len(" | None")]
    if kind in _NESTED:
        return _build(_NESTED[kind], value, where)
    what, json_type, convert = _TYPES[kind]
    try:
        if not isinstance(value, json_type):
            raise TypeError(value)
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be {what}, got {json.dumps(value)}") from None


def _build(cls, section, where: str, keys: dict | None = None, **given):
    """Build dataclass `cls` from the config section `where`.

    `keys` maps each accepted key to its field (default: every field not in `given`,
    under its own name). A field's dataclass default is its only default. Values are
    coerced to the field's annotated type; unknown keys, missing required keys and the
    dataclass's own checks end in a ConfigError.
    """
    section = _coerce(section, "dict", where)
    declared = {f.name: f for f in fields(cls)}
    keys = keys or {name: name for name in declared if name not in given}
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    for key, name in keys.items():
        f = declared[name]
        if key in section:
            given[name] = _coerce(section[key], f.type,
                                  key if where == "config" else f"{where}.{key}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {key!r} in {where}")
    try:
        return cls(**given)
    except ValueError as e:   # the dataclass's own checks, PipelineError among them
        raise ConfigError(f"{where}: {e}") from None


def _resolve_synth(section, seed: int) -> SynthSpec:
    """The SynthSpec fields; `seed` defaults to the run seed, and `rotation_degrees`
    stands in for an explicit `mixing` matrix."""
    section = _coerce(section, "dict", "data.synthetic")   # a copy
    rotation = _coerce(section.pop("rotation_degrees", None), "float | None",
                       "data.synthetic.rotation_degrees")
    if rotation is not None and section.get("mixing") is not None:
        raise ConfigError("give rotation_degrees or mixing, not both")
    spec = _build(SynthSpec, {"seed": seed, **section}, "data.synthetic")
    return spec if rotation is None else \
        replace(spec, mixing=rotation_mixing(spec.channels, rotation))


# the sampler section sets these TrainerConfig fields; the trainer section sets the rest
_SAMPLER_KEYS = {"micro_cap": "micro_cap", "mode": "sampler"}


def resolve_config(raw: dict) -> RunConfig:
    """Validate a config dict; unknown keys anywhere are an error."""
    snapshot = json.loads(json.dumps(raw))   # defensive copy, proves JSON-serializable
    top = _build(_TopLevel, raw, "config")
    data = top.data
    kind = data.get("kind")
    if kind not in ("synthetic", "csv"):
        raise ConfigError(f"data.kind must be 'synthetic' or 'csv', got {json.dumps(kind)}")
    unknown = sorted(set(data) - {"kind", kind})
    if unknown:
        raise ConfigError(f"unknown keys in data: {unknown}")
    if kind not in data:
        raise ConfigError(f"missing required key {kind!r} in data")
    synth = _resolve_synth(data[kind], top.seed) if kind == "synthetic" else None
    csv_cfg = _build(CsvDataConfig, data[kind], "data.csv") if kind == "csv" else None

    sampling = _build(TrainerConfig, top.sampler, "sampler", _SAMPLER_KEYS)
    trainer_cfg = _build(TrainerConfig, top.trainer, "trainer", seed=top.seed,
                         **{name: getattr(sampling, name) for name in _SAMPLER_KEYS.values()})
    return RunConfig(seed=top.seed, output_dir=Path(top.output_dir), data_kind=kind,
                     synth=synth, csv=csv_cfg, preprocessing=top.preprocessing,
                     networks=top.networks, trainer=trainer_cfg, raw=snapshot)


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
    except (OSError, ValueError) as e:   # a directory, an unreadable file, bytes not text
        raise ConfigError(f"cannot read config file {path}: {e}") from None
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


_TRAIN_SPLITS = ("source_train", "target_train")


def _synthetic_splits(cfg: RunConfig):
    """The two train splits, the one matrix whose row halves they are, and a function
    that draws the other four afterwards."""
    stream = SyntheticStream(cfg.synth)
    n_train, n_val, _ = split_sizes(len(stream), cfg.preprocessing.split)

    def draw_rest():
        rest = {}
        for role, ds in zip(("source", "target"), generate_synthetic_pair(stream)):
            rest[f"{role}_val"] = ds.take(slice(0, n_val))
            rest[f"{role}_test"] = ds.take(slice(n_val, len(ds)))
        return rest

    pooled = np.empty((2 * n_train, cfg.synth.window_dim))
    train = generate_synthetic_pair(stream, n_train, out=pooled)
    return dict(zip(_TRAIN_SPLITS, train)), pooled, draw_rest


def _csv_splits(cfg: RunConfig):
    """The two train splits, no pooled matrix, and a function that returns the other
    four; all six are views of the scaled windows of each subject."""
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
        datasets.extend(split_domain(ds, cfg.preprocessing.split))
    rest = dict(zip(SPLIT_NAMES, datasets))
    train = {name: rest.pop(name) for name in _TRAIN_SPLITS}
    return train, None, lambda: rest


def _transformed(splits: dict, norm, pca) -> dict:
    """The splits scaled in place by the min-max model `norm`, then reduced by `pca`;
    either may be None. A function of its own, so no loop variable outlives it and
    keeps a raw split alive."""
    if norm is not None:
        for ds in splits.values():
            norm.apply_in_place(ds.windows)
    return splits if pca is None else {name: apply_pca(pca, ds) for name, ds in splits.items()}


def prepare_run(cfg: RunConfig) -> dict:
    """Generate or ingest, split, normalize, reduce; persist everything.

    Everything fit on train is fit before the other splits are needed: the
    train splits, drawn as the row halves of one pooled matrix (a CSV corpus
    copies them into one for PCA), are scaled in place (synthetic only), PCA
    centres that matrix in place and they are reduced from its rows, which
    frees their raw windows. Only then does the synthetic corpus draw its val
    and test windows; a CSV corpus already holds them as views. Those are
    scaled in place and reduced one split at a time.
    """
    started = time.time()
    train, pooled, take_rest = (_synthetic_splits if cfg.data_kind == "synthetic"
                                else _csv_splits)(cfg)

    out = cfg.prepared_dir
    out.mkdir(parents=True, exist_ok=True)
    # written last: until then the directory reads as not prepared; the fitted
    # models are written again only by a run that fits them
    for name in ("prepare.json", "normalization.json", "pca.json"):
        (out / name).unlink(missing_ok=True)

    norm = None
    if cfg.data_kind == "synthetic":
        # synthetic windows arrive unscaled; pin each dimension to [0, 1] on pooled train
        norm = fit_minmax(pooled)
        norm.to_json(out / "normalization.json")
        norm.apply_in_place(pooled)   # scales the two train splits, its row halves

    pca, prep = None, cfg.preprocessing
    if prep.pca_dim is not None:
        if pooled is None:
            pooled = np.concatenate([ds.windows for ds in train.values()])
        pca = fit_pca(pooled, prep.pca_dim)
        pca.to_json(out / "pca.json")
        train = {name: ds.with_windows(pca.project(rows)) for (name, ds), rows
                 in zip(train.items(), np.split(pooled, [len(train["source_train"])]))}
    del pooled   # with PCA, this frees the raw train windows

    splits = {**train, **_transformed(take_rest(), norm, pca)}
    splits = {name: splits[name] for name in SPLIT_NAMES}
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


def load_prepared(cfg: RunConfig, *names: str) -> dict:
    """The prepared splits `names` (all six when none are given), by name."""
    out = cfg.prepared_dir
    if not (out / "prepare.json").exists():
        raise PipelineError(f"no prepared data under {out}; run `subadapt prepare` first")
    return {name: DomainDataset.load(out / name) for name in names or SPLIT_NAMES}


def _splits_sha256(cfg: RunConfig) -> str:
    """The splits' sha256 that prepare.json recorded."""
    return read_json(cfg.prepared_dir / "prepare.json", "splits_sha256")["splits_sha256"]


def _on_current_splits(cfg: RunConfig, name: str) -> bool:
    """Whether run `name`'s record.json names the splits prepare.json holds now; a run
    without a record is not known to be trained on them."""
    record = cfg.run_dir(name) / "record.json"
    return record.exists() and read_json(record).get("splits_sha256") == _splits_sha256(cfg)


# ---------------------------------------------------------------------------
# training commands


def _losses_csv(history) -> str:
    lines = ["step,epoch,loss_d,loss_c,loss_g"]
    for r in history:
        lines.append(f"{r.step},{r.epoch},{repr(r.loss_d)},{repr(r.loss_c)},{repr(r.loss_g)}")
    return "\n".join(lines) + "\n"


def _record_run(cfg: RunConfig, name: str, state, started: float, trained_on: str | None,
                artifacts, **own) -> dict:
    """Write and return run `name`'s record.json (the keys every run shares, the sha256 of
    each file in `artifacts`, the run's `own` keys); drop the replaced checkpoint's report."""
    run_dir = cfg.run_dir(name)
    for stale in ("report.json", "report.txt"):
        (run_dir / stale).unlink(missing_ok=True)
    record = {
        "run": name,
        "config": cfg.raw,
        "steps": state.step,
        "epochs_run": len(state.epoch_means),
        "stop_reason": state.stop_reason,
        **own,
        "artifacts": {f: _sha256(run_dir / f) for f in artifacts},
        "splits_sha256": trained_on,
        "duration_seconds": time.time() - started,
    }
    (run_dir / "record.json").write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return record


def train_run(cfg: RunConfig) -> dict:
    """Adversarial adaptation; writes adapted/{checkpoint.json,losses.csv,record.json}."""
    started = time.time()
    splits = load_prepared(cfg, "source_train", "target_train")
    trained_on = _splits_sha256(cfg)   # read before training: what the run is trained on
    source = splits["source_train"]
    target = splits["target_train"].unlabeled()   # evaluation labels never reach training
    bundle = build_bundle(*cfg.networks.specs(source.dim, source.num_classes, cfg.seed))
    run_dir = cfg.run_dir("adapted")
    try:
        _, state = train(bundle, source, target, cfg.trainer)
    except DivergedError as e:
        if e.checkpoint is not None:
            for name, p in bundle.parameters().items():
                p.data = e.checkpoint[name]
            run_dir.mkdir(parents=True, exist_ok=True)
            save_bundle(bundle, run_dir / RESCUE_NAME, seed=cfg.seed, step_count=e.checkpoint_step)
        raise

    run_dir.mkdir(parents=True, exist_ok=True)
    save_bundle(bundle, run_dir / "checkpoint.json", seed=cfg.seed, step_count=state.step)
    (run_dir / "losses.csv").write_text(_losses_csv(state.history))
    last = state.history[-1] if state.history else None
    return _record_run(
        cfg, "adapted", state, started, trained_on, ("checkpoint.json", "losses.csv"),
        mean_discrepancy=state.mean_discrepancy,
        final_losses=None if last is None else {
            "loss_d": last.loss_d, "loss_c": last.loss_c, "loss_g": last.loss_g})


def baselines_run(cfg: RunConfig) -> dict:
    """The transfer sandwich bounds: source-only and target-supervised classifiers."""
    splits = load_prepared(cfg, "source_train", "target_train")
    trained_on = _splits_sha256(cfg)
    results = {}
    jobs = {"no_transfer": splits["source_train"], "supervised": splits["target_train"]}
    if jobs["supervised"].labels is None:
        raise PipelineError("supervised baseline needs a labeled target train split")
    source = splits["source_train"]
    batch_size = compute_micro_size(source, cfg.trainer.micro_cap) * source.num_classes
    for name, data in jobs.items():
        started = time.time()
        cls = Classifier(cfg.networks.specs(data.dim, data.num_classes, cfg.seed)[2])
        _, state = train_classifier(cls, data, cfg.trainer, batch_size, label=name)
        run_dir = cfg.run_dir(name)
        run_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint({"classifier": cls}, run_dir / "checkpoint.json", seed=cfg.seed,
                        step_count=state.step)
        results[name] = _record_run(
            cfg, name, state, started, trained_on, ("checkpoint.json",),
            final_loss=state.history[-1].loss_c if state.history else None)
    return results


def evaluate_run(cfg: RunConfig, checkpoint_path=None, run_name: str = "adapted") -> dict:
    """Score a checkpoint's classifier on the labeled target test split.

    With no `checkpoint_path`, run `run_name`'s own checkpoint.json is scored once its
    record.json names the current splits, and its report and the comparison are written.
    A given file (a diverged run's rescue, a copy) is checked by its shapes alone and its
    report is only returned."""
    test = load_prepared(cfg, "target_test")["target_test"]
    if test.labels is None:
        raise PipelineError("target test split is unlabeled; nothing to score")
    run_dir = cfg.run_dir(run_name)
    path = run_dir / "checkpoint.json" if checkpoint_path is None else Path(checkpoint_path)
    if not path.exists():
        raise PipelineError(f"checkpoint not found: {path}")
    if checkpoint_path is None and not _on_current_splits(cfg, run_name):
        raise PipelineError(f"{path} was trained on other prepared splits than those under "
                            f"{cfg.prepared_dir}, or has no record.json; train it again")
    models, _ = load_checkpoint(path)
    if "classifier" not in models:
        raise PipelineError(f"{path} holds no classifier")
    classifier = models["classifier"]
    if classifier.spec.input_dim != test.dim:
        raise PipelineError(f"{path} takes {classifier.spec.input_dim}-dimensional "
                            f"windows, but the prepared splits have dimension {test.dim}")
    if classifier.spec.num_classes != test.num_classes:
        raise PipelineError(f"{path} predicts {classifier.spec.num_classes} classes, "
                            f"but the prepared splits have {test.num_classes}")
    preds = classifier.predict(test.windows)
    rep = ev.report(ev.confusion(test.labels, preds, test.num_classes),
                    class_names=test.label_names)
    if checkpoint_path is None:
        (run_dir / "report.json").write_text(json.dumps(rep, sort_keys=True, indent=2) + "\n")
        (run_dir / "report.txt").write_text(ev.render_report(rep))
        refresh_comparison(cfg)
    return rep


def scored_runs(cfg: RunConfig) -> tuple[list, list]:
    """The runs with a report: those whose record names the current splits, and the rest."""
    scored = [name for name in RUN_NAMES if (cfg.run_dir(name) / "report.json").exists()]
    fresh = [name for name in scored if _on_current_splits(cfg, name)]
    return fresh, [name for name in scored if name not in fresh]


def refresh_comparison(cfg: RunConfig):
    """Rebuild comparison.csv from reports of runs on the current splits; drop it under two.
    A report whose total or weighted F1 is not a number, or whose total differs from the
    first report's, is refused."""
    named = []
    for name in scored_runs(cfg)[0]:
        stored = cfg.run_dir(name) / "report.json"
        rep = read_json(stored, "total", "weighted_f1")
        for key, check in (("total", _whole), ("weighted_f1", _number)):
            try:
                check(rep[key])
            except ValueError:
                raise PipelineError(f"{stored} is damaged: {key} is "
                                    f"{json.dumps(rep[key])}") from None
        if named and rep["total"] != named[0][1]["total"]:
            first = cfg.run_dir(named[0][0]) / "report.json"
            raise PipelineError(f"{stored} scores {rep['total']} test windows, {first} "
                                f"{named[0][1]['total']}; evaluate the runs again")
        named.append((name, rep))
    path = cfg.output_dir / "comparison.csv"
    if len(named) < 2:
        path.unlink(missing_ok=True)
        return None
    comparison = ev.compare_runs(named)
    path.write_text(comparison.to_csv())
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
