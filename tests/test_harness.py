"""Run orchestration: config strictness, prepared layout, end-to-end artifacts."""
import hashlib
import json
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from subadapt import harness
from subadapt.checkpoint import save_checkpoint
from subadapt.harness import (ConfigError, apply_overrides, baselines_run, evaluate_run,
                              load_config, load_prepared, prepare_run, resolve_config,
                              synth_run, train_run)
from subadapt.networks import Classifier, ConvLayer
from subadapt.pipeline import (CsvSchema, PipelineError, RawRecording,
                               SynthSpec, apply_pca, fit_minmax, generate_synthetic_pair,
                               impute_missing, load_recordings, save_recordings_csv,
                               segment_windows, split_domain)
from subadapt.trainer import TrainerConfig

from conftest import pca_reference


def base_config(out_dir, **extra):
    cfg = {
        "seed": 3,
        "output_dir": str(out_dir),
        "data": {
            "kind": "synthetic",
            "synthetic": {
                "num_classes": 2, "channels": 2, "frames": 4,
                "class_counts": [12, 12], "rotation_degrees": 20.0,
                "offset": 0.3, "shift_noise": 0.02,
            },
        },
        "networks": {"blocks": 1, "generator_filters": 4, "classifier_filters": 8,
                     "discriminator_filters": 2, "noise_dim": 2},
        "sampler": {"micro_cap": 4},
        "trainer": {"epochs": 2},
    }
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# config resolution


def test_minimal_config_fills_defaults(tmp_path):
    cfg = resolve_config(base_config(tmp_path))
    assert cfg.seed == 3
    assert cfg.trainer.epochs == 2
    assert cfg.trainer.smoothing_pos == 0.9
    assert cfg.trainer.noise_amplitude == 0.1
    assert cfg.trainer.seed == 3          # trainer inherits the run seed
    assert cfg.networks.noise_dim == 2
    assert cfg.preprocessing.split.train == 0.6
    assert cfg.synth.num_classes == 2
    assert cfg.prepared_dir == tmp_path / "prepared"


@pytest.mark.parametrize("mutate,fragment", [
    (lambda c: c.update(bogus=1), "bogus"),
    (lambda c: c["trainer"].update(warmup=5), "warmup"),
    (lambda c: c["trainer"].update(smoothing_neg=0.0),
     r"unknown keys in trainer: \['smoothing_neg'\]"),
    (lambda c: c["networks"].update(depth=2), "depth"),
    (lambda c: c["sampler"].update(shuffle=True), "shuffle"),
    (lambda c: c["data"].update(extra=1), "extra"),
    (lambda c: c["data"]["synthetic"].update(amplitude=2), "amplitude"),
    (lambda c: c["sampler"].update(micro_size=4), r"unknown keys in sampler: \['micro_size'\]"),
    (lambda c: c["sampler"].update(with_replacement=True),
     r"unknown keys in sampler: \['with_replacement'\]"),
    (lambda c: c.update(preprocessing={"pca_fraction": 0.5}),
     r"unknown keys in preprocessing: \['pca_fraction'\]"),
])
def test_unknown_keys_are_rejected_by_name(tmp_path, mutate, fragment):
    cfg = base_config(tmp_path)
    mutate(cfg)
    with pytest.raises(ConfigError, match=fragment):
        resolve_config(cfg)


def test_required_keys_and_kind_are_validated(tmp_path):
    with pytest.raises(ConfigError, match="output_dir"):
        resolve_config({"data": {"kind": "synthetic"}})
    cfg = base_config(tmp_path)
    cfg["data"]["kind"] = "parquet"
    with pytest.raises(ConfigError, match="parquet"):
        resolve_config(cfg)
    cfg = base_config(tmp_path)
    del cfg["data"]["synthetic"]["frames"]
    with pytest.raises(ConfigError, match="frames"):
        resolve_config(cfg)


def test_conflicting_selectors_are_rejected(tmp_path):
    cfg = base_config(tmp_path)
    cfg["data"]["synthetic"]["mixing"] = [[1, 0], [0, 1]]
    with pytest.raises(ConfigError, match="not both"):
        resolve_config(cfg)


def test_trainer_value_errors_become_config_errors(tmp_path):
    cfg = base_config(tmp_path)
    cfg["trainer"]["epochs"] = -1
    with pytest.raises(ConfigError, match="epochs"):
        resolve_config(cfg)
    cfg = base_config(tmp_path)
    cfg["trainer"]["smoothing_pos"] = 1.5
    with pytest.raises(ConfigError, match="smoothing_pos"):
        resolve_config(cfg)


def _keys(cls, prefix, skip=()):
    """Dotted config keys of a dataclass's fields, nested sections walked."""
    for f in fields(cls):
        nested = harness._NESTED.get(f.type.removesuffix(" | None"))
        if f.name in skip:
            continue
        if nested is not None:
            yield from _keys(nested, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def accepted_keys():
    sampler_fields = tuple(harness._SAMPLER_KEYS.values())
    return {*_keys(harness._TopLevel, "", skip=("data", "sampler", "trainer")),
            "data.kind", "data.synthetic.rotation_degrees",
            *_keys(SynthSpec, "data.synthetic."), *_keys(harness.CsvDataConfig, "data.csv."),
            *(f"sampler.{key}" for key in harness._SAMPLER_KEYS),
            *_keys(TrainerConfig, "trainer.", skip=("seed", *sampler_fields))}


def test_readme_configuration_reference_lists_every_accepted_key():
    keys = accepted_keys()
    assert {"seed", "data.synthetic.seed", "data.csv.schema.missing_marker", "sampler.mode",
            "preprocessing.split.train"} <= keys
    assert not {"trainer.seed", "trainer.micro_cap", "sampler.sampler"} & keys
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    missing = sorted(key for key in keys if f"`{key}`" not in section)
    assert not missing, f"README configuration reference omits {missing}"


def test_apply_overrides_parses_json_values():
    raw = {"trainer": {"epochs": 5}}
    out = apply_overrides(raw, ["trainer.epochs=9", "trainer.sampler_note=plain",
                                "data.kind=synthetic", "seed=4"])
    assert out["trainer"]["epochs"] == 9
    assert out["trainer"]["sampler_note"] == "plain"   # non-JSON stays a string
    assert out["data"] == {"kind": "synthetic"}        # sections created on demand
    assert out["seed"] == 4
    assert raw == {"trainer": {"epochs": 5}}           # input untouched


def test_apply_overrides_rejects_malformed_items():
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides({}, ["no_equals_sign"])
    with pytest.raises(ConfigError, match="non-section"):
        apply_overrides({"seed": 3}, ["seed.nested=1"])


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(listy)


def test_load_config_applies_overrides(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config(tmp_path / "out")))
    cfg = load_config(path, ["trainer.epochs=7", "seed=11"])
    assert cfg.trainer.epochs == 7
    assert cfg.seed == 11 and cfg.trainer.seed == 11


# ---------------------------------------------------------------------------
# prepare


def test_prepare_synthetic_layout_and_scaling(tmp_path):
    cfg = resolve_config(base_config(tmp_path / "out",
                                     preprocessing={"pca_dim": 5}))
    splits = prepare_run(cfg)
    prepared = cfg.prepared_dir
    for name in ("source_train", "source_val", "source_test",
                 "target_train", "target_val", "target_test"):
        assert (prepared / name / "windows.npy").exists(), name
    assert (prepared / "normalization.json").exists()
    assert (prepared / "pca.json").exists()
    meta = json.loads((prepared / "prepare.json").read_text())
    assert meta["dim"] == 5
    assert meta["num_classes"] == 2
    assert meta["counts"]["source_train"] == 14  # half_up(0.6 * 24)
    assert meta["pca"]["output_dim"] == 5
    assert 0.0 < meta["pca"]["explained_variance"] <= 1.0 + 1e-12
    assert splits["source_train"].dim == 5
    # target labels are persisted for scoring, but stay out of training paths
    assert splits["target_train"].labels is not None


def test_prepare_without_pca_keeps_unit_interval(tmp_path):
    cfg = resolve_config(base_config(tmp_path / "out"))
    splits = prepare_run(cfg)
    assert splits["source_train"].dim == 8
    for ds in splits.values():
        assert ds.windows.min() >= 0.0 and ds.windows.max() <= 1.0


def test_prepare_reruns_are_byte_identical(tmp_path):
    cfg_a = resolve_config(base_config(tmp_path / "a", preprocessing={"pca_dim": 4}))
    cfg_b = resolve_config(base_config(tmp_path / "b", preprocessing={"pca_dim": 4}))
    prepare_run(cfg_a)
    prepare_run(cfg_b)
    for name in ("source_train", "target_test"):
        a = (cfg_a.prepared_dir / name / "windows.npy").read_bytes()
        b = (cfg_b.prepared_dir / name / "windows.npy").read_bytes()
        assert a == b
    assert (cfg_a.prepared_dir / "pca.json").read_bytes() == \
           (cfg_b.prepared_dir / "pca.json").read_bytes()


def test_prepare_without_pca_removes_the_earlier_pca_model(tmp_path):
    prepare_run(resolve_config(base_config(tmp_path / "out", preprocessing={"pca_dim": 4})))
    cfg = resolve_config(base_config(tmp_path / "out"))
    assert (cfg.prepared_dir / "pca.json").exists()
    prepare_run(cfg)
    assert json.loads((cfg.prepared_dir / "prepare.json").read_text())["pca"] is None
    assert not (cfg.prepared_dir / "pca.json").exists()


def test_load_prepared_requires_prepare_first(tmp_path):
    cfg = resolve_config(base_config(tmp_path / "out"))
    with pytest.raises(PipelineError, match="prepare"):
        load_prepared(cfg)


# ---------------------------------------------------------------------------
# csv ingestion path


def csv_config(out_dir, csv_path, **extra):
    cfg = base_config(out_dir, **extra)
    cfg["data"] = {
        "kind": "csv",
        "csv": {
            "path": str(csv_path), "sample_rate": 4.0,
            "source_subject": "source", "target_subject": "target",
            "window_seconds": 1.0, "overlap": 0.0,
            "normalization": "fitted",
        },
    }
    return cfg


def synthetic_csv(tmp_path):
    """Materialize the synthetic corpus as a CSV with two subjects."""
    gen_cfg = resolve_config(base_config(tmp_path / "gen"))
    path = tmp_path / "corpus.csv"
    synth_run(gen_cfg, path)
    return path


def test_prepare_from_csv(tmp_path):
    path = synthetic_csv(tmp_path)
    cfg = resolve_config(csv_config(tmp_path / "out", path))
    splits = prepare_run(cfg)
    assert splits["source_train"].dim == 8  # 4 frames x 2 channels
    assert splits["source_train"].num_classes == 2
    total = sum(len(v) for k, v in splits.items() if k.startswith("source"))
    assert total == 24
    for ds in splits.values():  # fitted min-max pins everything into [0, 1]
        assert ds.windows.min() >= 0.0 and ds.windows.max() <= 1.0


def test_prepare_from_csv_removes_the_earlier_synthetic_normalization(tmp_path):
    path = synthetic_csv(tmp_path)
    prepare_run(resolve_config(base_config(tmp_path / "out")))
    cfg = resolve_config(csv_config(tmp_path / "out", path))
    assert (cfg.prepared_dir / "normalization.json").exists()
    prepare_run(cfg)
    assert (cfg.prepared_dir / "prepare.json").exists()
    assert not (cfg.prepared_dir / "normalization.json").exists()


def test_prepare_csv_unknown_subject(tmp_path):
    path = synthetic_csv(tmp_path)
    raw = csv_config(tmp_path / "out", path)
    raw["data"]["csv"]["target_subject"] = "nobody"
    cfg = resolve_config(raw)
    with pytest.raises(PipelineError, match="nobody"):
        prepare_run(cfg)


def test_synth_round_trips_through_ingestion(tmp_path):
    gen_cfg = resolve_config(base_config(tmp_path / "gen"))
    path = tmp_path / "corpus.csv"
    synth_run(gen_cfg, path)
    recs = load_recordings(path, CsvSchema(), sample_rate=4.0)
    by_subject = {r.subject_id: r for r in recs}
    assert set(by_subject) == {"source", "target"}
    from subadapt.pipeline import generate_synthetic_pair
    source, _ = generate_synthetic_pair(gen_cfg.synth)
    ds = segment_windows(by_subject["source"], window_seconds=1.0, overlap_fraction=0.0)
    assert np.array_equal(ds.windows, source.windows)  # repr CSV cells are exact
    assert np.array_equal(ds.labels, source.labels)


def test_synth_requires_synthetic_config(tmp_path):
    path = synthetic_csv(tmp_path)
    cfg = resolve_config(csv_config(tmp_path / "out", path))
    with pytest.raises(ConfigError):
        synth_run(cfg, tmp_path / "again.csv")


# ---------------------------------------------------------------------------
# prepare against the copying reference


def _scaled_reference(model, values):
    """Min-max scaling in four out-of-place steps, kept as the reference."""
    span = model.channel_max - model.channel_min
    out = (values - model.channel_min) / np.where(span == 0, 1.0, span)
    return np.clip(np.where(span == 0, 0.5, out), 0.0, 1.0)


def _prepare_reference(cfg, out):
    """The splits, normalization.json and pca.json of `cfg` prepared the copying way:
    index-array split copies, out-of-place scaling, a raw pooled train stack scaled on
    its own, and a PCA fit on a centred copy of it."""
    if cfg.data_kind == "synthetic":
        domains = generate_synthetic_pair(cfg.synth)
    else:
        c = cfg.csv
        by_subject = {r.subject_id: r for r in load_recordings(c.path, c.schema, c.sample_rate)}
        domains = []
        for subject in (c.source_subject, c.target_subject):
            rec = impute_missing(by_subject[subject])
            rec = replace(rec, frames=_scaled_reference(fit_minmax(rec.frames), rec.frames))
            domains.append(segment_windows(rec, c.window_seconds, c.overlap))
    splits = []
    for ds in domains:   # sized as split_domain sizes them
        bounds = np.cumsum([0] + [len(p) for p in split_domain(ds, cfg.preprocessing.split)])
        splits += [ds.take(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    splits = dict(zip(harness.SPLIT_NAMES, splits))
    pooled = np.vstack([splits["source_train"].windows, splits["target_train"].windows])
    out.mkdir(parents=True)
    if cfg.data_kind == "synthetic":
        norm = fit_minmax(pooled)
        splits = {k: ds.with_windows(_scaled_reference(norm, ds.windows))
                  for k, ds in splits.items()}
        pooled = _scaled_reference(norm, pooled)
        norm.to_json(out / "normalization.json")
    pca = pca_reference(pooled, cfg.preprocessing.pca_dim)
    pca.to_json(out / "pca.json")
    for name, ds in splits.items():
        apply_pca(pca, ds).save(out / name)


def _gappy_csv(tmp_path):
    """Two subjects, 3 channels (the last one constant), about 2% of cells missing."""
    rng = np.random.default_rng(31)
    recs = []
    for subject, shift in (("source", 0.0), ("target", 0.4)):
        frames = rng.normal(size=(240, 3)) + shift
        frames[:, 2] = 1.5
        frames[rng.random(frames.shape) < 0.02] = np.nan
        frames[0, 0] = np.nan   # a leading gap, back-filled
        recs.append(RawRecording(subject, frames, (np.arange(240) // 20) % 2, 4.0, ("a", "b")))
    path = tmp_path / "gappy.csv"
    save_recordings_csv(recs, path)
    return path


def _files(root: Path) -> set:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("kind", ["synthetic", "csv"])
def test_prepare_writes_the_bytes_of_the_copying_reference(tmp_path, kind):
    if kind == "synthetic":
        raw = base_config(tmp_path / "out", preprocessing={"pca_dim": 6})
        raw["data"]["synthetic"].update(channels=3, frames=6, class_counts=[30, 20])
    else:
        raw = csv_config(tmp_path / "out", _gappy_csv(tmp_path),
                         preprocessing={"pca_dim": 6})
        raw["data"]["csv"]["overlap"] = 0.5
    cfg = resolve_config(raw)
    prepare_run(cfg)
    reference = tmp_path / "reference"
    _prepare_reference(cfg, reference)
    written = _files(cfg.prepared_dir) - {"prepare.json"}
    assert written == _files(reference)
    for name in sorted(written):
        assert (cfg.prepared_dir / name).read_bytes() == (reference / name).read_bytes(), name


def test_prepare_memory_stays_near_the_train_windows_held_once(tmp_path):
    # the benchmark's classify corpus: 9,600 windows of 8 channels x 25 frames per subject
    raw = base_config(tmp_path / "out", preprocessing={"pca_dim": 50})
    raw["data"]["synthetic"] = {"num_classes": 4, "channels": 8, "frames": 25,
                                "class_counts": [3000, 3000, 3000, 600],
                                "rotation_degrees": 30.0, "offset": 0.5,
                                "shift_noise": 0.05, "sample_noise": 0.3}
    cfg = resolve_config(raw)
    tracemalloc.start()
    try:
        splits = prepare_run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the raw train windows, drawn into the one matrix fit_pca centres in place; the val
    # and test windows are drawn only after the raw train windows are freed
    train = (len(splits["source_train"]) + len(splits["target_train"])) * cfg.synth.window_dim * 8
    assert peak <= train + 8 * 2**20


# ---------------------------------------------------------------------------
# the names the benchmark's tracer wraps


def _count_calls(monkeypatch, owner, names) -> dict:
    """Replace each attribute `names` of `owner` with a stand-in that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["synthetic", "csv"])
def test_prepare_draws_fits_and_reduces_through_the_harness_names(tmp_path, monkeypatch, kind):
    if kind == "synthetic":
        raw, reads = base_config(tmp_path / "out"), ("generate_synthetic_pair",)
    else:
        raw = csv_config(tmp_path / "out", _gappy_csv(tmp_path))
        reads = ("load_recordings", "impute_missing", "segment_windows")
    raw["preprocessing"] = {"pca_dim": 3}
    calls = _count_calls(monkeypatch, harness, reads + ("fit_pca", "apply_pca"))
    prepare_run(resolve_config(raw))
    assert all(calls.values()), calls


def test_evaluate_runs_every_conv_layer_inside_classifier_forward(tmp_path, monkeypatch):
    raw = base_config(tmp_path / "out", preprocessing={"pca_dim": 5})
    raw["data"]["synthetic"]["class_counts"] = [250, 250]   # 150 test windows: two row blocks
    cfg = resolve_config(raw)
    prepare_run(cfg)
    checkpoint = cfg.run_dir("no_transfer") / "checkpoint.json"
    checkpoint.parent.mkdir(parents=True)
    save_checkpoint({"classifier": Classifier(cfg.networks.specs(5, 2, cfg.seed)[2])},
                    checkpoint, seed=cfg.seed)
    inside, conv_calls = [0], []
    forward, call = Classifier.forward, ConvLayer.__call__

    def counted_forward(self, x):
        inside[0] += 1
        try:
            return forward(self, x)
        finally:
            inside[0] -= 1
    monkeypatch.setattr(Classifier, "forward", counted_forward)
    monkeypatch.setattr(ConvLayer, "__call__",
                        lambda self, t: conv_calls.append(inside[0]) or call(self, t))
    evaluate_run(cfg, checkpoint_path=checkpoint)
    assert conv_calls == [1] * 3 * 2   # three conv layers, each once per row block


# ---------------------------------------------------------------------------
# train / baselines / evaluate


def prepared_cfg(tmp_path):
    cfg = resolve_config(base_config(tmp_path / "out", preprocessing={"pca_dim": 5}))
    prepare_run(cfg)
    return cfg


def test_full_run_produces_artifacts_and_checksums(tmp_path):
    cfg = prepared_cfg(tmp_path)
    record = train_run(cfg)
    run_dir = cfg.run_dir("adapted")
    assert (run_dir / "checkpoint.json").exists()
    assert (run_dir / "losses.csv").exists()
    assert record["steps"] > 0
    assert record["stop_reason"]
    assert len(record["mean_discrepancy"]) == record["epochs_run"]
    for name, digest in record["artifacts"].items():
        actual = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        assert actual == digest, name

    lines = (run_dir / "losses.csv").read_text().splitlines()
    assert lines[0] == "step,epoch,loss_d,loss_c,loss_g"
    assert len(lines) == record["steps"] + 1
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert float(first[2]) > 0

    baselines = baselines_run(cfg)
    assert set(baselines) == {"no_transfer", "supervised"}
    for name in baselines:
        assert (cfg.run_dir(name) / "checkpoint.json").exists()

    for name in ("adapted", "no_transfer", "supervised"):
        rep = evaluate_run(cfg, run_name=name)
        assert 0.0 <= rep["weighted_f1"] <= 1.0
        assert (cfg.run_dir(name) / "report.json").exists()
        assert (cfg.run_dir(name) / "report.txt").exists()

    table = (cfg.output_dir / "comparison.csv").read_text().splitlines()
    assert table[0] == "run,weighted_f1,delta_vs_no_transfer,delta_vs_supervised"
    assert len(table) == 4
    assert table[1].startswith("no_transfer,")
    assert table[2].startswith("adapted,")


def test_evaluate_requires_existing_checkpoint(tmp_path):
    cfg = prepared_cfg(tmp_path)
    with pytest.raises(PipelineError, match="checkpoint not found"):
        evaluate_run(cfg)
    with pytest.raises(PipelineError, match="checkpoint not found"):
        evaluate_run(cfg, checkpoint_path=tmp_path / "nope.json")


def test_evaluate_scores_explicit_checkpoint_path(tmp_path):
    cfg = prepared_cfg(tmp_path)
    baselines_run(cfg)
    ckpt = cfg.run_dir("no_transfer") / "checkpoint.json"
    rep = evaluate_run(cfg, checkpoint_path=ckpt, run_name="no_transfer")
    assert rep["total"] == 8  # 24 windows split 14/2/8
    # a path, even to a run's own checkpoint, is scored and printed only
    assert sorted(p.name for p in cfg.run_dir("no_transfer").iterdir()) == [
        "checkpoint.json", "record.json"]
    assert not (cfg.output_dir / "comparison.csv").exists()


def test_each_stage_loads_only_the_splits_it_reads(tmp_path, monkeypatch):
    cfg = prepared_cfg(tmp_path)
    assert list(load_prepared(cfg)) == list(harness.SPLIT_NAMES)
    loaded = []
    load = harness.DomainDataset.load
    monkeypatch.setattr(harness.DomainDataset, "load",
                        staticmethod(lambda directory: loaded.append(Path(directory).name)
                                     or load(directory)))
    train_run(cfg)
    baselines_run(cfg)
    assert loaded == ["source_train", "target_train"] * 2
    loaded.clear()
    evaluate_run(cfg)
    assert loaded == ["target_test"]


def test_train_reruns_write_identical_checkpoints(tmp_path):
    cfg_a = resolve_config(base_config(tmp_path / "a"))
    cfg_b = resolve_config(base_config(tmp_path / "b"))
    prepare_run(cfg_a)
    prepare_run(cfg_b)
    train_run(cfg_a)
    train_run(cfg_b)
    assert (cfg_a.run_dir("adapted") / "checkpoint.json").read_bytes() == \
           (cfg_b.run_dir("adapted") / "checkpoint.json").read_bytes()
    assert (cfg_a.run_dir("adapted") / "losses.csv").read_bytes() == \
           (cfg_b.run_dir("adapted") / "losses.csv").read_bytes()
