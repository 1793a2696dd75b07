"""End-to-end tests of the command-line verbs and their file contracts.

Commands run in-process through main(argv); a module-scoped train-base run
is shared by the downstream commands to keep the suite fast.
"""

import json
import os

import numpy as np
import pytest

from anchorinv.cli import (ABLATE_AXES, WORKERS_ENV, ConfigError, apply_seed,
                           load_config, main, resolve_preset, _resolve_workers)
from anchorinv.presets import get_preset, with_synth_classes
from anchorinv.serialization import file_sha256


def _small_config(**extra):
    cfg = {
        "preset": "desk",
        "trials": 3,
        "methods": ["anchorinv", "finetune", "protonet", "realreplay"],
        "synth": {"num_classes": 4, "train_per_class": 12, "test_per_class": 5,
                  "base_frequency": 2.0, "noise_sigma": 0.3},
        "base_train": {"epochs": 60, "learning_rate": 5e-3},
        "finetune": {"iterations": 4},
        "inversion": {"iterations": 6},
        "adaptation": {"anchors_per_class": 3, "real_per_class": 3},
    }
    cfg.update(extra)
    return cfg


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared train-base run: (config path, output dir)."""
    root = tmp_path_factory.mktemp("cli")
    config = _write_config(root / "config.json", _small_config())
    out = root / "base"
    assert main(["train-base", "--config", config, "--out", str(out)]) == 0
    return config, out


# ---------------------------------------------------------------------------
# config loading


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    array_root = tmp_path / "arr.json"
    array_root.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(array_root)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"preset": "desk", "sessions": 3}))
    with pytest.raises(ConfigError) as err:
        load_config(unknown)
    assert "sessions" in str(err.value)


def test_resolve_preset_overrides():
    preset = resolve_preset(_small_config())
    assert preset.trials == 3
    assert preset.base_train.epochs == 60
    assert preset.adaptation.finetune.iterations == 4
    assert preset.adaptation.inversion.iterations == 6
    assert preset.adaptation.anchors_per_class == 3
    assert len(preset.synth.classes) == 4
    assert preset.synth.classes[0].frequency == 2.0


def test_resolve_preset_rejects_unknown_sections():
    with pytest.raises(ConfigError) as err:
        resolve_preset(_small_config(finetune={"momentum": 0.9}))
    assert "momentum" in str(err.value)
    with pytest.raises(ConfigError):
        resolve_preset(_small_config(synth={"amplitude": 2.0}))
    with pytest.raises(ConfigError) as err:
        resolve_preset(_small_config(adaptation={"anchor_count": 5}))
    assert "anchor_count" in str(err.value)
    with pytest.raises(ConfigError) as err:
        resolve_preset(_small_config(methods=["anchorinv", "dreambooth"]))
    assert "dreambooth" in str(err.value) and "protonet" in str(err.value)
    with pytest.raises(ConfigError):
        resolve_preset({})  # no preset key


def test_synth_override_defaults_survive_shared_frequencies():
    # the stock desk classes come in same-frequency pairs; overriding only
    # the class count must still produce a valid frequency ladder
    preset = resolve_preset({"preset": "desk", "synth": {"num_classes": 6}})
    freqs = [c.frequency for c in preset.synth.classes]
    assert len(set(freqs)) == 6


def test_synth_section_is_with_synth_classes():
    for k in (6, 16):
        got = resolve_preset({"preset": "desk", "synth": {"num_classes": k}})
        assert got == with_synth_classes(get_preset("desk"), k)
    with pytest.raises(ConfigError, match="not synthetic"):
        resolve_preset({"preset": "bci", "synth": {"num_classes": 6}})
    with pytest.raises(ConfigError):
        resolve_preset({"preset": "desk", "synth": [6]})


def test_apply_seed_reaches_every_component():
    preset = apply_seed(resolve_preset(_small_config()), 123)
    assert preset.master_seed == 123
    assert preset.base_train.seed == 123
    assert preset.adaptation.finetune.seed == 123
    assert preset.adaptation.inversion.seed == 123


def test_resolve_workers(monkeypatch):
    assert _resolve_workers(3) == 3
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert _resolve_workers(None) == 1
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert _resolve_workers(None) == 4
    with pytest.raises(ConfigError):
        _resolve_workers(0)


# ---------------------------------------------------------------------------
# train-base


def test_train_base_outputs(trained):
    _, out = trained
    assert (out / "checkpoint.bin").exists()
    assert (out / "anchors.bin").exists()
    assert not (out / ".staging").exists()
    log = json.loads((out / "train_log.json").read_text())
    # 2 base classes x anchors_per_class
    assert log["anchor_count"] == 6
    assert log["anchor_strategy"] == "random_sample"
    assert log["train_accuracy"] >= 0.9
    assert len(log["loss"]) == 60
    assert log["final_loss"] == log["loss"][-1]
    from anchorinv.anchors import load_anchor_set
    anchors = load_anchor_set(out / "anchors.bin")
    assert len(anchors) == 6
    assert anchors.classes() == [0, 1]


def test_train_base_rerun_is_byte_identical(trained, tmp_path):
    config, out = trained
    again = tmp_path / "again"
    assert main(["train-base", "--config", config, "--out", str(again)]) == 0
    for name in ("checkpoint.bin", "anchors.bin", "train_log.json"):
        assert file_sha256(out / name) == file_sha256(again / name)


def test_train_base_seed_flag_changes_outputs(trained, tmp_path):
    config, out = trained
    seeded = tmp_path / "seeded"
    assert main(["train-base", "--config", config, "--out", str(seeded),
                 "--seed", "77"]) == 0
    assert file_sha256(out / "checkpoint.bin") != file_sha256(seeded / "checkpoint.bin")


# ---------------------------------------------------------------------------
# run


def test_run_report_contract(trained, tmp_path):
    config_path, base_out = trained
    cfg = _small_config(checkpoint=str(base_out / "checkpoint.bin"),
                        anchors=str(base_out / "anchors.bin"))
    config = _write_config(tmp_path / "run.json", cfg)
    out = tmp_path / "run"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["methods"] == ["anchorinv", "finetune", "protonet", "realreplay"]
    assert report["trials"] == 3
    assert report["num_sessions"] == 2
    for method in report["methods"]:
        for metric in ("all", "base", "incremental"):
            assert [len(row) for row in report["scores"][method][metric]] == [3, 3]
    assert "anchorinv|finetune" in report["p_values"]
    text = (out / "report.txt").read_text()
    assert "anchorinv" in text and "Session 2" in text

    # rerunning the verb reproduces the report byte for byte
    out2 = tmp_path / "run2"
    assert main(["run", "--config", config, "--out", str(out2)]) == 0
    assert file_sha256(out / "report.json") == file_sha256(out2 / "report.json")


def test_run_missing_checkpoint_key(trained, tmp_path, capsys):
    config = _write_config(tmp_path / "run.json", _small_config())
    out = tmp_path / "run"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "checkpoint" in err
    assert (out / "quarantine").exists()
    assert not (out / "report.json").exists()


def test_run_nonexistent_checkpoint(trained, tmp_path, capsys):
    cfg = _small_config(checkpoint=str(tmp_path / "nope.bin"))
    config = _write_config(tmp_path / "run.json", cfg)
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert "train-base" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablate


def test_ablate_shots_axis(trained, tmp_path):
    config_path, base_out = trained
    cfg = _small_config(methods=["protonet"], trials=2,
                        ablate={"shots": [1, 5, 10]})
    config = _write_config(tmp_path / "ablate.json", cfg)
    out = tmp_path / "ablate_out"
    assert main(["ablate", "--config", config, "--out", str(out),
                 "--axis", "shots"]) == 0
    payload = json.loads((out / "ablate.json").read_text())
    assert payload["axis"] == "shots"
    assert [row["value"] for row in payload["rows"]] == [1, 5, 10]
    for row in payload["rows"]:
        assert row["method"] == "protonet"
        assert len(row["per_trial"]) == 2
        assert np.isfinite(row["mean"]) and np.isfinite(row["std"])
    assert "Sweep over shots" in (out / "ablate.txt").read_text()


def test_ablate_strategy_axis(trained, tmp_path):
    cfg = _small_config(methods=["anchorinv"], trials=2,
                        ablate={"strategy": ["random_sample", "closest",
                                             {"name": "kmeans", "k": 2}]})
    config = _write_config(tmp_path / "ablate.json", cfg)
    out = tmp_path / "out"
    assert main(["ablate", "--config", config, "--out", str(out),
                 "--axis", "strategy"]) == 0
    rows = json.loads((out / "ablate.json").read_text())["rows"]
    assert len(rows) == 3
    values = [row["value"] for row in rows]
    assert values[0] == "random_sample" and values[2]["name"] == "kmeans"


def test_ablate_base_classes_axis(trained, tmp_path):
    cfg = _small_config(
        trials=2, shot=5, methods=["protonet"],
        synth={"num_classes": 6, "train_per_class": 10, "test_per_class": 4,
               "base_frequency": 2.0, "frequency_step": 1.0, "noise_sigma": 0.3},
        ablate={"base-classes": [2, 3], "unseen": 2})
    config = _write_config(tmp_path / "ablate.json", cfg)
    out = tmp_path / "out"
    assert main(["ablate", "--config", config, "--out", str(out),
                 "--axis", "base-classes"]) == 0
    rows = json.loads((out / "ablate.json").read_text())["rows"]
    assert [row["value"] for row in rows] == [2, 3]
    for row in rows:
        assert row["metric"] == "incremental"


def test_ablate_axis_validation(trained, tmp_path, capsys):
    cfg = _small_config(ablate={"shots": [1]})
    config = _write_config(tmp_path / "a.json", cfg)
    # axis not present in the ablate section
    assert main(["ablate", "--config", config, "--out", str(tmp_path / "o"),
                 "--axis", "anchors"]) == 1
    assert "ablate.anchors" in capsys.readouterr().err
    cfg = _small_config(ablate={"shots": []})
    config = _write_config(tmp_path / "b.json", cfg)
    assert main(["ablate", "--config", config, "--out", str(tmp_path / "o2"),
                 "--axis", "shots"]) == 1
    # unknown axis is rejected by the argument parser itself
    with pytest.raises(SystemExit):
        main(["ablate", "--config", config, "--out", str(tmp_path / "o3"),
              "--axis", "temperature"])
    assert set(ABLATE_AXES) == {"base-classes", "shots", "anchors", "strategy"}


# ---------------------------------------------------------------------------
# audit-inversion


def test_audit_inversion_contract(trained, tmp_path):
    config_path, base_out = trained
    cfg = _small_config(checkpoint=str(base_out / "checkpoint.bin"),
                        anchors=str(base_out / "anchors.bin"))
    config = _write_config(tmp_path / "audit.json", cfg)
    out = tmp_path / "audit"
    assert main(["audit-inversion", "--config", config, "--out", str(out)]) == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["count"] == 6
    assert len(audit["per_anchor"]) == 6
    assert audit["min"] <= audit["median"] <= audit["max"]
    assert len(audit["histogram"]["counts"]) == 10
    assert sum(audit["histogram"]["counts"]) == 6
    assert sorted(set(audit["labels"])) == [0, 1]
    text = (out / "audit.txt").read_text()
    assert "Inverted 6 anchors" in text and "histogram:" in text
    manifest = json.loads((out / "inverted" / "manifest_inverted.json").read_text())
    assert len(manifest["entries"]) == 6
    assert all(entry["synthetic"] for entry in manifest["entries"])


def test_audit_inversion_requires_anchors(trained, tmp_path, capsys):
    _, base_out = trained
    cfg = _small_config(checkpoint=str(base_out / "checkpoint.bin"))
    config = _write_config(tmp_path / "audit.json", cfg)
    assert main(["audit-inversion", "--config", config,
                 "--out", str(tmp_path / "out")]) == 1
    assert "anchors" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# render-report


def test_render_report_stdout_and_file(trained, tmp_path, capsys):
    config_path, base_out = trained
    cfg = _small_config(checkpoint=str(base_out / "checkpoint.bin"),
                        anchors=str(base_out / "anchors.bin"),
                        methods=["protonet", "finetune"], trials=5)
    config = _write_config(tmp_path / "run.json", cfg)
    out = tmp_path / "run"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert main(["render-report", str(out / "report.json")]) == 0
    stdout = capsys.readouterr().out
    assert "Trials: 5" in stdout
    render_out = tmp_path / "render"
    assert main(["render-report", str(out / "report.json"),
                 "--out", str(render_out)]) == 0
    assert (render_out / "report.txt").read_text() == (out / "report.txt").read_text()
    assert (out / "report.txt").read_text() == stdout


def test_workers_env_variable(trained, tmp_path, monkeypatch, capsys):
    _, base_out = trained
    cfg = _small_config(checkpoint=str(base_out / "checkpoint.bin"),
                        anchors=str(base_out / "anchors.bin"),
                        methods=["protonet"], trials=2)
    config = _write_config(tmp_path / "run.json", cfg)
    monkeypatch.setenv(WORKERS_ENV, "0")
    assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 1
    assert "worker count" in capsys.readouterr().err
    monkeypatch.setenv(WORKERS_ENV, "2")
    assert main(["run", "--config", config, "--out", str(tmp_path / "o2")]) == 0
