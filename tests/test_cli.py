"""Command-line behaviour: exit codes, output files, the full command flow."""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subadapt
from subadapt.checkpoint import load_checkpoint
from subadapt.cli import (EXIT_CLOSED_STDOUT, EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK,
                          main)
from subadapt.harness import RUN_NAMES, load_config, train_run
from subadapt.trainer import DivergedError


@pytest.fixture
def workspace(tmp_path):
    config = {
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
        "data": {
            "kind": "synthetic",
            "synthetic": {
                "num_classes": 2, "channels": 2, "frames": 4,
                "class_counts": [12, 12], "rotation_degrees": 20.0, "offset": 0.3,
            },
        },
        "networks": {"blocks": 1, "generator_filters": 4, "classifier_filters": 8,
                     "discriminator_filters": 2, "noise_dim": 2},
        "sampler": {"micro_cap": 4},
        "trainer": {"epochs": 2},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config, indent=2))
    return path, tmp_path / "out"


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = main(["prepare", "--config", str(tmp_path / "absent.json")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_is_a_config_error(workspace, capsys):
    config_path, _ = workspace
    code = main(["prepare", "--config", str(config_path), "--set", "trainer.bogus=1"])
    assert code == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_malformed_override_is_a_config_error(workspace, capsys):
    config_path, _ = workspace
    code = main(["prepare", "--config", str(config_path), "--set", "oops"])
    assert code == EXIT_CONFIG
    assert "section.key=value" in capsys.readouterr().err


def test_commands_before_prepare_are_data_errors(workspace, capsys):
    config_path, _ = workspace
    assert main(["train", "--config", str(config_path)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert main(["evaluate", "--config", str(config_path)]) == EXIT_DATA


def test_full_command_flow(workspace, capsys):
    config_path, out_dir = workspace

    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    assert "prepared" in capsys.readouterr().out
    assert (out_dir / "prepared" / "prepare.json").exists()

    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "adapted run finished" in out
    assert "final losses" in out
    assert (out_dir / "adapted" / "checkpoint.json").exists()

    assert main(["baselines", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "no_transfer" in out and "supervised" in out

    assert main(["evaluate", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "weighted F1" in out and "W-Avg" in out

    for run in ("no_transfer", "supervised"):
        assert main(["evaluate", "--config", str(config_path), "--run", run]) == EXIT_OK
        capsys.readouterr()

    assert (out_dir / "comparison.csv").exists()
    assert main(["report", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "== adapted ==" in out
    assert "sandwich" in out


def test_baseline_records_explain_their_stop(workspace, capsys):
    config_path, out_dir = workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    assert main(["baselines", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("no_transfer", "supervised"):
        record = json.loads((out_dir / name / "record.json").read_text())
        assert (record["epochs_run"], record["stop_reason"]) == (2, "epoch budget exhausted")
        assert (f"{name}: {record['steps']} steps over 2 epochs (epoch budget exhausted), "
                f"final loss ") in out
    # no epochs leave no final loss to print
    assert main(["baselines", "--config", str(config_path), "--set", "trainer.epochs=0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"no_transfer: 0 steps over 0 epochs (no epochs requested) -> {out_dir}" in out


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_baselines_divergence_is_one_line_on_stderr(workspace, capfd):
    config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    argv = ["baselines", "--config", str(config_path), "--set", "trainer.lr_classifier=1e80"]
    # both jobs diverge; neither numpy's overflow warnings nor the forked job reach stderr
    env = dict(os.environ, PYTHONPATH=str(Path(subadapt.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "subadapt.cli", *argv], capture_output=True,
                          env=env, timeout=60)
    err = done.stderr.decode()
    assert done.returncode == EXIT_DIVERGED
    assert err.startswith("training diverged: ") and len(err.splitlines()) == 1
    capfd.readouterr()
    assert main(argv) == EXIT_DIVERGED
    _no_child_left()
    assert capfd.readouterr().err == err


@pytest.mark.parametrize("blocked", [("supervised",), ("no_transfer",),
                                     ("no_transfer", "supervised")],
                         ids=["child-job", "parent-job", "both-jobs"])
def test_a_failing_baseline_job_is_one_data_error(workspace, capfd, blocked):
    config_path, out_dir = workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    for name in blocked:   # a regular file where the run's directory goes
        (out_dir / name).write_text("")
    capfd.readouterr()
    code = main(["baselines", "--config", str(config_path)])
    _no_child_left()
    assert code == EXIT_DATA
    err = capfd.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    # the no_transfer error is reported when both fail, as the serial order did
    assert str(out_dir / blocked[0]) in err
    for name in {"no_transfer", "supervised"} - set(blocked):   # the other job still ran
        assert {p.name for p in (out_dir / name).iterdir()} == {"checkpoint.json",
                                                                "record.json"}


def test_evaluate_with_explicit_checkpoint(workspace, capsys):
    config_path, out_dir = workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    ckpt = out_dir / "adapted" / "checkpoint.json"
    assert main(["evaluate", "--config", str(config_path),
                 "--checkpoint", str(ckpt)]) == EXIT_OK
    assert "weighted F1" in capsys.readouterr().out


def test_synth_writes_corpus(workspace, tmp_path, capsys):
    config_path, _ = workspace
    dest = tmp_path / "corpus.csv"
    assert main(["synth", "--config", str(config_path), "--out", str(dest)]) == EXIT_OK
    assert dest.exists()
    header = dest.read_text().splitlines()[0]
    assert header == "subject,label,ch0,ch1"


def test_divergence_exit_code_and_rescue_file(workspace, capsys):
    config_path, out_dir = workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    # 20 epochs score above the rescue's parameters, so a rescue report written over the
    # adapted one would change its bytes
    assert main(["train", "--config", str(config_path), "--set", "trainer.epochs=20"]) == EXIT_OK
    assert main(["baselines", "--config", str(config_path)]) == EXIT_OK
    for run in ("adapted", "no_transfer"):
        assert main(["evaluate", "--config", str(config_path), "--run", run]) == EXIT_OK
    scored = [out_dir / "adapted" / "report.json", out_dir / "comparison.csv"]
    before = [path.read_bytes() for path in scored]
    capsys.readouterr()
    overrides = ["trainer.lr_generator=1e80", "trainer.lr_discriminator=1e80",
                 "trainer.lr_classifier=1e80"]
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(config_path),
                     *(arg for item in overrides for arg in ("--set", item))])
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "training diverged" in err
    rescue = out_dir / "adapted" / "diverged_parameters.json"
    models, meta = load_checkpoint(rescue)
    # the same run in-process hands back the snapshot the rescue was written from
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedError) as info:
        train_run(load_config(config_path, overrides))
    snapshot = info.value.checkpoint
    assert meta["step_count"] == info.value.checkpoint_step
    saved = {f"{net_name}.{name}": p.data for net_name, net in models.items()
             for name, p in net.parameters().items()}
    assert saved.keys() == snapshot.keys()
    assert all(saved[name].tobytes() == snapshot[name].tobytes() for name in snapshot)
    # the rescue is scored and printed, but the report and comparison of the run that
    # trained before it stay that run's
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path), "--checkpoint", str(rescue)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "weighted F1" in out and "comparison table:" not in out
    assert [path.read_bytes() for path in scored] == before


def test_report_with_nothing_to_show(workspace, capsys):
    config_path, _ = workspace
    assert main(["report", "--config", str(config_path)]) == EXIT_OK
    assert "no reports found" in capsys.readouterr().out


@pytest.mark.parametrize("damage", ["truncated", "foreign", "nan", "infinity", "overflow"])
def test_damaged_checkpoint_is_a_data_error(workspace, capsys, damage):
    config_path, out_dir = workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    ckpt = out_dir / "adapted" / "checkpoint.json"
    text = ckpt.read_text()
    if damage in ("nan", "infinity", "overflow"):   # one classifier value, not a finite float64
        payload = json.loads(text)
        first = next(iter(payload["models"]["classifier"]["parameters"].values()))
        first["values"][0] = {"nan": float("nan"), "infinity": -float("inf"),
                              "overflow": 10 ** 400}[damage]
        ckpt.write_text(json.dumps(payload))
    else:
        ckpt.write_text(text[:len(text) // 2] if damage == "truncated" else '{"models": []}\n')
    # a copy given by path is refused the same way
    copy = out_dir / "copy.json"
    copy.write_text(ckpt.read_text())
    assert main(["evaluate", "--config", str(config_path), "--checkpoint", str(copy)]) == EXIT_DATA
    assert str(copy) in _one_data_error(capsys)
    assert main(["evaluate", "--config", str(config_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(ckpt) in err
    assert len(err.strip().splitlines()) == 1


def _one_data_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert len(err.strip().splitlines()) == 1
    return err


def test_more_pca_components_than_pooled_windows_is_a_data_error(workspace, capsys):
    config_path, _ = workspace
    # 3 windows per class and subject: 8 pooled training windows of dimension 40
    code = main(["prepare", "--config", str(config_path),
                 "--set", "data.synthetic.frames=20", "--set", "data.synthetic.class_counts=[3,3]",
                 "--set", "preprocessing.pca_dim=20"])
    assert code == EXIT_DATA
    assert "[1, 8]" in _one_data_error(capsys)


def test_evaluate_after_prepare_with_other_pca_dim_is_a_data_error(workspace, capsys):
    config_path, out_dir = workspace
    assert main(["prepare", "--config", str(config_path), "--set", "preprocessing.pca_dim=6"]) == EXIT_OK
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    assert main(["prepare", "--config", str(config_path), "--set", "preprocessing.pca_dim=5"]) == EXIT_OK
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path)]) == EXIT_DATA
    assert "other prepared splits" in _one_data_error(capsys)
    # without a record beside it, the checkpoint's input dimension still gives it away
    lone = out_dir / "elsewhere" / "checkpoint.json"
    lone.parent.mkdir()
    lone.write_bytes((out_dir / "adapted" / "checkpoint.json").read_bytes())
    assert main(["evaluate", "--config", str(config_path), "--checkpoint", str(lone)]) == EXIT_DATA
    assert "dimension 5" in _one_data_error(capsys)


@pytest.mark.parametrize("trained,prepared", [(3, 2), (2, 3)],
                         ids=["more-classes", "fewer-classes"])
def test_checkpoint_with_other_class_count_is_a_data_error(workspace, capsys, trained, prepared):
    config_path, out_dir = workspace

    def classes(n):
        return ["--set", f"data.synthetic.num_classes={n}",
                "--set", f"data.synthetic.class_counts={[12] * n}"]

    assert main(["prepare", "--config", str(config_path), *classes(trained)]) == EXIT_OK
    assert main(["baselines", "--config", str(config_path)]) == EXIT_OK
    # without a record beside it, only the checkpoint's shapes tell what it was trained on
    lone = out_dir / "elsewhere" / "checkpoint.json"
    lone.parent.mkdir()
    lone.write_bytes((out_dir / "supervised" / "checkpoint.json").read_bytes())
    assert main(["prepare", "--config", str(config_path), *classes(prepared)]) == EXIT_OK
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path), "--checkpoint", str(lone)]) == EXIT_DATA
    assert f"predicts {trained} classes, but the prepared splits have {prepared}" in \
        _one_data_error(capsys)


def test_evaluate_after_prepare_with_other_seed_is_a_data_error(workspace, capsys):
    config_path, out_dir = workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    assert main(["baselines", "--config", str(config_path)]) == EXIT_OK
    record = json.loads((out_dir / "supervised" / "record.json").read_text())
    meta = json.loads((out_dir / "prepared" / "prepare.json").read_text())
    assert record["splits_sha256"] == meta["splits_sha256"]
    assert "splits_sha256" not in (out_dir / "supervised" / "checkpoint.json").read_text()
    assert main(["prepare", "--config", str(config_path), "--set", "seed=6"]) == EXIT_OK
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path), "--run", "supervised"]) == EXIT_DATA
    assert "other prepared splits" in _one_data_error(capsys)
    # preparing the original splits again makes the run scorable again
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    assert main(["evaluate", "--config", str(config_path), "--run", "supervised"]) == EXIT_OK


@pytest.mark.parametrize("damaged,content,command", [
    ("adapted/record.json", None, ["evaluate"]),
    ("prepared/prepare.json", None, ["evaluate"]),
    ("adapted/record.json", b"[1]\n", ["evaluate"]),
    ("prepared/prepare.json", b"[1, 2]\n", ["train"]),
    ("prepared/target_train/meta.json", None, ["train"]),
    ("prepared/target_test/windows.npy", "half", ["evaluate"]),
    ("prepared/source_train/labels.npy", None, ["train"]),
    ("no_transfer/report.json", None, ["report"]),
    ("no_transfer/report.json", None, ["evaluate", "--run", "adapted"]),
    ("no_transfer/report.json", b"{}\n", ["report"]),
    ("prepared/target_test/meta.json", b"{}\n", ["evaluate"]),
    ("prepared/prepare.json", b"{}\n", ["train"]),
    ("prepared/target_test/meta.json", {"num_classes": "2"}, ["evaluate"]),
    ("prepared/target_test/meta.json", {"num_classes": True}, ["evaluate"]),
    ("prepared/target_test/meta.json", {"label_names": 7}, ["evaluate"]),
    ("prepared/target_test/meta.json", {"label_names": ["c0"]}, ["evaluate"]),
    ("prepared/target_test/meta.json", {"label_names": ["c0", "c0"]}, ["evaluate"]),
    ("prepared/source_train/meta.json", {"labeled": "yes"}, ["train"]),
    ("prepared/source_train/meta.json", {"subject_id": 3}, ["train"]),
    ("no_transfer/report.json", {"weighted_f1": "x"}, ["report"]),
    ("no_transfer/report.json", {"weighted_f1": True}, ["report"]),
    ("no_transfer/report.json", {"total": "12"}, ["report"]),
    ("no_transfer/report.json", {"total": 5}, ["evaluate", "--run", "adapted"]),
], ids=["adapted/record.json", "prepared/prepare.json", "record-not-an-object",
        "prepare-not-an-object", "meta.json", "windows.npy-data-cut", "labels.npy-header-cut",
        "report.json-report", "report.json-evaluate", "report.json-no-keys", "meta.json-no-keys",
        "prepare.json-no-keys", "meta.json-num_classes-string", "meta.json-num_classes-bool",
        "meta.json-label_names-number", "meta.json-label_names-short",
        "meta.json-label_names-repeated", "meta.json-labeled-string",
        "meta.json-subject_id-number", "report.json-weighted_f1-string",
        "report.json-weighted_f1-bool", "report.json-total-string",
        "report.json-total-differs"])
def test_damaged_run_record_or_prepare_json_is_a_data_error(workspace, capsys, damaged,
                                                            content, command):
    config_path, out_dir = workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    if damaged.startswith("no_transfer/"):
        assert main(["baselines", "--config", str(config_path)]) == EXIT_OK
        assert main(["evaluate", "--config", str(config_path), "--run", "no_transfer"]) == EXIT_OK
    capsys.readouterr()
    path = out_dir / damaged
    data = path.read_bytes()
    # cut to 20 bytes by default; "half" keeps a whole .npy header but half the data; a
    # dict sets those keys of the stored JSON object
    if isinstance(content, dict):
        path.write_text(json.dumps({**json.loads(data), **content}))
    else:
        path.write_bytes(data[:20] if content is None else
                         data[:len(data) // 2] if content == "half" else content)
    assert main([command[0], "--config", str(config_path), *command[1:]]) == EXIT_DATA
    assert str(path) in _one_data_error(capsys)


def _scored_runs(config_path):
    """Every run trained and scored on the workspace's splits, so comparison.csv exists."""
    for command in (["prepare"], ["train"], ["baselines"],
                    *(["evaluate", "--run", run] for run in RUN_NAMES)):
        assert main([*command, "--config", str(config_path)]) == EXIT_OK


def test_comparison_leaves_out_runs_trained_on_other_splits(workspace, capsys):
    config_path, out_dir = workspace
    _scored_runs(config_path)
    assert (out_dir / "comparison.csv").exists()
    config = ["--config", str(config_path)]
    # other splits, with another test-set size: the baselines' reports are stale now
    config += ["--set", "data.synthetic.class_counts=[16,16]"]
    for command in (["prepare"], ["train"], ["evaluate", "--run", "adapted"], ["report"]):
        assert main([*command, *config]) == EXIT_OK
    assert not (out_dir / "comparison.csv").exists()
    # retraining drops a run's report until it is scored again
    assert main(["baselines", *config]) == EXIT_OK
    assert not (out_dir / "supervised" / "report.json").exists()
    assert main(["evaluate", "--run", "no_transfer", *config]) == EXIT_OK
    table = (out_dir / "comparison.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in table[1:]] == ["no_transfer", "adapted"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["train", "baselines", "prepare"])
def test_retraining_or_preparing_drops_the_comparison(workspace, capsys, command):
    config_path, out_dir = workspace
    _scored_runs(config_path)
    comparison = out_dir / "comparison.csv"
    assert comparison.exists()
    # the table ranked the old scores, or runs on the old splits
    assert main([command, "--config", str(config_path)]) == EXIT_OK
    assert not comparison.exists()
    _scored_runs(config_path)
    assert comparison.exists()


def test_a_checkpoint_scored_by_path_writes_nothing_whatever_its_name(workspace, tmp_path,
                                                                      capsys):
    config_path, out_dir = workspace
    _scored_runs(config_path)
    comparison = (out_dir / "comparison.csv").read_bytes()
    # a copy named like a run's own checkpoint, outside the output directory
    lone = tmp_path / "lone" / "checkpoint.json"
    lone.parent.mkdir()
    lone.write_bytes((out_dir / "adapted" / "checkpoint.json").read_bytes())
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path), "--checkpoint", str(lone)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "weighted F1" in out and "comparison table:" not in out
    assert [p.name for p in lone.parent.iterdir()] == ["checkpoint.json"]
    assert (out_dir / "comparison.csv").read_bytes() == comparison


def test_a_run_without_its_record_is_refused_and_left_out(workspace, capsys):
    config_path, out_dir = workspace
    _scored_runs(config_path)
    (out_dir / "adapted" / "record.json").unlink()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path)]) == EXIT_DATA
    assert "has no record.json" in _one_data_error(capsys)
    assert main(["report", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "== adapted ==" not in out
    assert "left out, no record of training on the current splits: adapted\n" in out
    table = (out_dir / "comparison.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in table[1:]] == ["no_transfer", "supervised"]


README_CONFIG = {
    "seed": 7,
    "data": {"kind": "synthetic", "synthetic": {
        "num_classes": 4, "channels": 40, "frames": 25, "class_counts": [300, 300, 300, 60],
        "rotation_degrees": 30.0, "offset": 0.5, "shift_noise": 0.05, "sample_noise": 0.3}},
    "preprocessing": {"pca_dim": 50},
    "sampler": {"micro_cap": 8},
}


def test_report_prints_only_the_runs_on_the_current_splits(tmp_path, capsys):
    out_dir = tmp_path / "out" / "demo"
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(dict(README_CONFIG, output_dir=str(out_dir))))
    config = ["--config", str(config_path), "--set", "trainer.epochs=2"]
    for command in (["prepare"], ["train"], ["baselines"],
                    *(["evaluate", "--run", run] for run in RUN_NAMES)):
        assert main([*command, *config]) == EXIT_OK
    config += ["--set", "data.synthetic.class_counts=[20,20,20,10]"]
    for command in (["prepare"], ["train"], ["evaluate", "--run", "adapted"]):
        assert main([*command, *config]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", *config]) == EXIT_OK
    adapted = out_dir / "adapted"
    assert json.loads((adapted / "report.json").read_text())["total"] == 21
    assert capsys.readouterr().out == (
        f"== adapted ==\n{(adapted / 'report.txt').read_text()}\n"
        "left out, no record of training on the current splits: no_transfer, supervised\n")


def _scored_workspace(workspace, capsys):
    config_path, _ = workspace
    for command in ("prepare", "train", "evaluate"):
        assert main([command, "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    return config_path


def test_a_reader_closing_stdout_after_one_line_ends_report_with_exit_1(workspace, capsys,
                                                                       monkeypatch):
    config_path = _scored_workspace(workspace, capsys)
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end, "rb")
    lines = []

    class Stdout(io.TextIOWrapper):
        """Line-buffered stdout into the pipe, whose reader closes after the first line."""

        def write(self, text):
            written = super().write(text)
            if not reader.closed and "\n" in text:   # line buffering has flushed it
                lines.append(reader.readline())
                reader.close()
            return written

    stdout = Stdout(os.fdopen(write_end, "wb"), line_buffering=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["report", "--config", str(config_path)]) == EXIT_CLOSED_STDOUT
    finally:
        stdout.close()   # what is left in its buffer goes to the null device
    assert lines == [b"== adapted ==\n"]
    assert capsys.readouterr().err == ""


def test_a_closed_stdout_leaves_no_message_at_interpreter_exit(workspace, capsys):
    config_path = _scored_workspace(workspace, capsys)
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(subadapt.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)   # the report waits in stdout's buffer until it is flushed
    try:
        done = subprocess.run([sys.executable, "-m", "subadapt.cli", "report",
                               "--config", str(config_path)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_CLOSED_STDOUT, b"")


@pytest.mark.parametrize("case,code", [
    ("csv-path-a-directory", EXIT_DATA),
    ("output_dir-a-file", EXIT_DATA),
    ("synth-out-under-a-file", EXIT_DATA),
    ("csv-not-utf8", EXIT_DATA),
    ("config-a-directory", EXIT_CONFIG),
    ("config-not-utf8", EXIT_CONFIG),
])
def test_unreadable_paths_are_one_line_errors(workspace, capsys, case, code):
    config_path, _ = workspace
    root = config_path.parent
    binary = root / "binary"
    binary.write_bytes(b"subject,label,a\n\xff\xfe,w,1\n")

    def csv_config(csv_path):
        config = json.loads(config_path.read_text())
        config["data"] = {"kind": "csv", "csv": {
            "path": str(csv_path), "sample_rate": 4.0, "source_subject": "source",
            "target_subject": "target", "window_seconds": 1.0}}
        path = root / "csv.json"
        path.write_text(json.dumps(config))
        return path

    argv = {
        "csv-path-a-directory": lambda: ["prepare", "--config", csv_config(root)],
        "output_dir-a-file": lambda: ["prepare", "--config", config_path,
                                      "--set", f"output_dir={config_path}"],
        "synth-out-under-a-file": lambda: ["synth", "--config", config_path,
                                           "--out", config_path / "corpus.csv"],
        "csv-not-utf8": lambda: ["prepare", "--config", csv_config(binary)],
        "config-a-directory": lambda: ["prepare", "--config", root],
        "config-not-utf8": lambda: ["prepare", "--config", binary],
    }[case]()
    assert main([str(arg) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("data error: " if code == EXIT_DATA else "config error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command,overrides", [
    ("prepare", ['networks.blocks="abc"']),
    ("prepare", ['seed="x"']),
    ("prepare", ['preprocessing.pca_dim="x"']),
    ("prepare", ['preprocessing.split={"train": 0.5, "val": 0.1, "test": 0.1}']),
    ("prepare", ["data.synthetic.num_classes=4", "data.synthetic.class_counts=[1,2]"]),
    ("prepare", ["data.synthetic.sample_noise=-1"]),
    ("prepare", ["data.synthetic.offset=[0.1, 0.2, 0.3]"]),
    ("prepare", ["networks=3"]),
    ("train", ["networks.blocks=0"]),
    ("baselines", ["networks.classifier_filters=2"]),
], ids=["blocks-abc", "seed-x", "pca_dim-x", "split-sum", "class_counts", "sample_noise",
        "offset-shape", "networks-3", "train-blocks-0",
        "baselines-classifier_filters-2"])
def test_malformed_config_values_are_one_line_config_errors(workspace, capsys, command,
                                                            overrides):
    config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    code = main([command, "--config", str(config_path),
                 *(arg for item in overrides for arg in ("--set", item))])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("overrides,key", [
    (["trainer.epochs=1.5"], "trainer.epochs"),
    (["networks.blocks=true"], "networks.blocks"),
    (["seed=2.9"], "seed"),
    (["data.synthetic.num_classes=4", "data.synthetic.class_counts=[300.7,300,300,60]"],
     "data.synthetic.class_counts"),
], ids=["epochs-1.5", "blocks-true", "seed-2.9", "class_counts-300.7"])
def test_integer_keys_refuse_fractions_and_booleans(workspace, capsys, overrides, key):
    config_path, out_dir = workspace
    code = main(["prepare", "--config", str(config_path),
                 *(arg for item in overrides for arg in ("--set", item))])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be ")
    assert len(err.strip().splitlines()) == 1
    assert not (out_dir / "prepared").exists()


@pytest.mark.parametrize("override,key", [
    ('seed="3"', "seed"),
    ('trainer.lr_classifier="1e-2"', "trainer.lr_classifier"),
    ('networks.blocks=" 2 "', "networks.blocks"),
    ("trainer.lr_classifier=NaN", "trainer.lr_classifier"),
    ("data.synthetic.sample_noise=NaN", "data.synthetic.sample_noise"),
    ("trainer.noise_amplitude=Infinity", "trainer.noise_amplitude"),
    ('data.synthetic.offset=[0.3, "0.3"]', "data.synthetic.offset"),
    ("data.synthetic.offset=[0.3, -Infinity]", "data.synthetic.offset"),
    ('data.synthetic.class_counts=[12, "12"]', "data.synthetic.class_counts"),
], ids=["seed-string", "lr-string", "blocks-string", "lr-nan", "sample_noise-nan",
        "noise_amplitude-inf", "offset-string-entry", "offset-inf-entry",
        "class_counts-string-entry"])
def test_numeric_keys_take_only_finite_json_numbers(workspace, capsys, override, key):
    config_path, out_dir = workspace
    code = main(["prepare", "--config", str(config_path), "--set", override])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be ")
    assert len(err.strip().splitlines()) == 1
    assert not (out_dir / "prepared").exists()


def test_integer_keys_take_whole_numbers_written_as_floats(workspace):
    config_path, _ = workspace
    cfg = load_config(config_path, ["trainer.epochs=3.0", "seed=4.0",
                                    "data.synthetic.class_counts=[12.0, 12]"])
    assert (cfg.trainer.epochs, cfg.seed, cfg.synth.class_counts) == (3, 4, (12, 12))
    assert type(cfg.trainer.epochs) is int


@pytest.mark.parametrize("override,key", [
    ("output_dir=null", "output_dir"),
    ("output_dir=true", "output_dir"),
    ("output_dir=3", "output_dir"),
    ("data.csv.source_subject=3", "data.csv.source_subject"),
    ("data.csv.schema.missing_marker=null", "data.csv.schema.missing_marker"),
], ids=["output_dir-null", "output_dir-true", "output_dir-3", "source_subject-3",
        "missing_marker-null"])
def test_string_keys_take_only_json_strings(workspace, capsys, monkeypatch, override, key):
    config_path, out_dir = workspace
    monkeypatch.chdir(out_dir.parent)   # a stringified output_dir would land here
    if override.startswith("data.csv"):
        config = json.loads(config_path.read_text())
        config["data"] = {"kind": "csv", "csv": {
            "path": "absent.csv", "sample_rate": 4.0, "source_subject": "source",
            "target_subject": "target", "window_seconds": 1.0}}
        config_path.write_text(json.dumps(config))
    code = main(["prepare", "--config", str(config_path), "--set", override])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be a string, got ")
    assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in out_dir.parent.iterdir()) == ["run.json"]


@pytest.fixture
def csv_workspace(workspace, capsys):
    """The workspace corpus written through `synth`, configured as a two-subject CSV."""
    config_path, out_dir = workspace
    corpus = config_path.parent / "corpus.csv"
    assert main(["synth", "--config", str(config_path), "--out", str(corpus)]) == EXIT_OK
    config = json.loads(config_path.read_text())
    config["data"] = {"kind": "csv", "csv": {
        "path": str(corpus), "sample_rate": 4.0, "source_subject": "source",
        "target_subject": "target", "window_seconds": 1.0, "normalization": "fitted"}}
    config_path.write_text(json.dumps(config))
    capsys.readouterr()
    return config_path, out_dir


def test_csv_config_prepares(csv_workspace):
    config_path, out_dir = csv_workspace
    assert main(["prepare", "--config", str(config_path)]) == EXIT_OK
    assert (out_dir / "prepared" / "prepare.json").exists()


def test_csv_header_naming_a_column_twice_is_a_data_error(csv_workspace, capsys):
    config_path, out_dir = csv_workspace
    corpus = config_path.parent / "corpus.csv"
    lines = corpus.read_text().splitlines(keepends=True)
    assert lines[0] == "subject,label,ch0,ch1\n"
    corpus.write_text("subject,label,ch0,ch0\n" + "".join(lines[1:]))
    assert main(["prepare", "--config", str(config_path)]) == EXIT_DATA
    assert f"{corpus}: header names column 'ch0' more than once" in _one_data_error(capsys)
    assert not (out_dir / "prepared" / "prepare.json").exists()


@pytest.mark.parametrize("overrides", [
    ["data.csv.overlap=1.5"],
    ["data.csv.sample_rate=0"],
    ["data.csv.window_seconds=-1"],
    ["data.csv.window_seconds=0.1"],            # 0.4 frames: the window spans none
    ["preprocessing.pca_dim=0"],
    ["preprocessing.pca_dim=-3"],
    ["data.csv.normalization=declared", "data.csv.declared_low=2"],
    ['data.csv.schema.missing_marker=" NA "'],    # cells are stripped: it could never match
    ['data.csv.schema.missing_marker="NaN\\t"'],
    ['data.csv.schema.channel_columns=["ch1", "ch0", "ch1"]'],
    ["data.csv.schema.channel_columns=[1, 2]"],
    ["data.csv.schema.allowed_labels=[1]"],
    ['data.csv.schema.allowed_labels=["a", "b", "a"]'],   # labels name classes one to one
], ids=["overlap-1.5", "sample_rate-0", "window_seconds-neg", "window-no-frames",
        "pca_dim-0", "pca_dim-neg", "declared-range-inverted",
        "missing_marker-padded", "missing_marker-trailing-tab", "channel_columns-repeated",
        "channel_columns-numbers", "allowed_labels-numbers", "allowed_labels-repeated"])
def test_csv_and_pca_ranges_are_config_errors_before_data_is_read(csv_workspace, capsys,
                                                                  overrides):
    config_path, out_dir = csv_workspace
    code = main(["prepare", "--config", str(config_path),
                 *(arg for item in overrides for arg in ("--set", item))])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1
    assert not (out_dir / "prepared").exists()
