"""End-to-end tests of the command-line verbs and their file contracts.

Commands run in-process through main(argv); a module-scoped train-base run
is shared by the downstream commands to keep the suite fast.
"""

import dataclasses
import inspect
import json
import os
import re
import typing

import numpy as np
import pytest

from anchorinv import cli, evaluation
from anchorinv.adaptation import AdaptationConfig, FinetuneConfig
from anchorinv.cli import (ABLATE_AXES, WORKERS_ENV, ConfigError, apply_seed,
                           load_config, main, resolve_preset, _resolve_workers)
from anchorinv.data import desk_synth_spec
from anchorinv.inversion import InversionConfig
from anchorinv.model import BaseTrainConfig
from anchorinv.presets import ExperimentPreset, get_preset, with_synth_classes
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
    with pytest.raises(ConfigError) as err:  # every inversion starts from a normal draw
        resolve_preset(_small_config(inversion={"init": "normal"}))
    assert "init" in str(err.value)
    # the new classes' weights always train, from prototypes or 0.1 x a normal draw
    for key, value in (("train_new_classifier", False), ("new_class_init_scale", 0.2)):
        with pytest.raises(ConfigError) as err:
            resolve_preset(_small_config(finetune={key: value}))
        assert key in str(err.value)
    # one-valued settings are constants: the cosine temperature 16, replay at
    # weight 1, finetuning of the spatial layer, TEEN's tau 32 and alpha 0.5,
    # and label-space inversion at the inversion section's learning rate
    for section, key, value in (("base_train", "temperature", 8.0),
                                ("finetune", "replay_weight", 2.0),
                                ("finetune", "trainable_layers", ["temporal", "spatial"]),
                                ("adaptation", "teen_tau", 16.0),
                                ("adaptation", "teen_alpha", 0.3),
                                ("adaptation", "label_inversion_learning_rate", 1e-3)):
        with pytest.raises(ConfigError) as err:
            resolve_preset(_small_config(**{section: {key: value}}))
        assert key in str(err.value)
    with pytest.raises(ConfigError):
        resolve_preset({})  # no preset key


@pytest.mark.parametrize("adaptation, message", [
    ({"anchor_strategy": "best"}, "bad 'adaptation' config: anchor_strategy must be one of "),
    ({"anchor_strategy": "random_closest", "anchor_fraction": 0.0}, "anchor_fraction")],
    ids=["unknown-strategy", "zero-fraction"])
def test_train_base_rejects_bad_anchor_settings_before_training(tmp_path, capsys, spy_engine,
                                                                adaptation, message):
    cfg = _small_config(adaptation=dict(anchors_per_class=3, real_per_class=3, **adaptation))
    _assert_train_base_refuses(cfg, message, tmp_path, capsys, spy_engine)


def _assert_train_base_refuses(cfg, message, tmp_path, capsys, spy_engine):
    """``train-base`` exits 1 with ``message`` before base training."""
    trainings = spy_engine("train_base", module=cli)
    config = _write_config(tmp_path / "bad.json", cfg)
    out = tmp_path / "o"
    assert main(["train-base", "--config", config, "--out", str(out)]) == 1
    assert trainings == []
    assert not (out / "checkpoint.bin").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# the desk preset takes 25 anchors from each base class of 30 training samples
@pytest.mark.parametrize("adaptation, message", [
    ({"anchor_strategy": "random_closest", "anchor_fraction": 0.5},
     "class 0: cannot take 25 from the 15 closest members"),
    ({"anchors_per_class": 31}, "class 0: cannot take 31 of 30 members")],
    ids=["random-closest-pool", "more-than-members"])
def test_train_base_rejects_impossible_anchor_counts_before_training(tmp_path, capsys,
                                                                     spy_engine, adaptation,
                                                                     message):
    _assert_train_base_refuses({"preset": "desk", "adaptation": adaptation}, message,
                               tmp_path, capsys, spy_engine)


# finetuning always trains the spatial layer, so any trainable_layers is refused
@pytest.mark.parametrize("layers", [["temporl"], "spatial"], ids=["unknown-layer", "string"])
def test_train_base_rejects_bad_trainable_layers_before_training(tmp_path, capsys, spy_engine,
                                                                 layers):
    cfg = _small_config(finetune={"trainable_layers": layers})
    _assert_train_base_refuses(cfg, "bad 'finetune' config: unknown keys ['trainable_layers']",
                               tmp_path, capsys, spy_engine)


@pytest.mark.parametrize("extra, message", [
    ({"base_classes": 5}, "bad 'base_classes' config"),
    ({"inversion": {"iterations": "5"}}, "bad 'inversion' config: iterations"),
    ({"adaptation": {"anchors_per_class": "5"}}, "bad 'adaptation' config: anchors_per_class"),
    ({"base_train": {"epochs": 0}}, "bad 'base_train' config: epochs must be >= 1"),
    ({"finetune": {"iterations": 1.5}}, "bad 'finetune' config: iterations must be an integer"),
    ({"trials": 2.7}, "bad 'trials' config: trials must be an integer, got 2.7"),
    ({"shot": 3.9}, "bad 'shot' config: shot must be an integer, got 3.9"),
    ({"seed": 1.5}, "bad 'seed' config: master_seed must be an integer, got 1.5"),
    ({"way": True}, "bad 'way' config: way must be an integer, got True"),
    ({"base_classes": [0, 1.5]},
     "bad 'base_classes' config: base_classes[1] must be an integer, got 1.5")],
    ids=["base-classes-int", "iterations-string", "anchors-string", "zero-epochs",
         "float-iterations", "float-trials", "float-shot", "float-seed", "bool-way",
         "float-base-class"])
def test_train_base_rejects_bad_value_types_before_training(tmp_path, capsys, spy_engine,
                                                            extra, message):
    _assert_train_base_refuses(_small_config(**extra), message, tmp_path, capsys, spy_engine)


@pytest.mark.parametrize("extra, message", [
    ({"methods": 5}, "bad 'methods' config: methods must be a list, got 5"),
    ({"methods": "anchorinv"}, "bad 'methods' config: methods must be a list, got 'anchorinv'"),
    ({"methods": ["protonet", 3]}, "bad 'methods' config: methods[1] must be one of "),
    ({"adaptation": 5}, "bad 'adaptation' config: not a JSON object, got 5"),
    ({"adaptation": ["anchors_per_class"]}, "bad 'adaptation' config: not a JSON object"),
    ({"finetune": 5}, "bad 'finetune' config: not a JSON object, got 5")],
    ids=["int-methods", "string-methods", "int-method", "int-adaptation", "list-adaptation",
         "int-finetune"])
def test_train_base_rejects_a_malformed_section_before_training(tmp_path, capsys, spy_engine,
                                                                extra, message):
    _assert_train_base_refuses({"preset": "desk", **extra}, message, tmp_path, capsys,
                               spy_engine)


# the wrong-typed values in the config that the parent package let through
@pytest.mark.parametrize("extra, message", [
    ({"base_train": {"weighted_loss": "false"}},
     "bad 'base_train' config: weighted_loss must be true or false, got 'false'"),
    ({"finetune": {"prototype_init": "no"}},
     "bad 'finetune' config: prototype_init must be true or false, got 'no'"),
    ({"finetune": {"prototype_init": 0}},
     "bad 'finetune' config: prototype_init must be true or false, got 0"),
    ({"finetune": {"learning_rate": True}},
     "bad 'finetune' config: learning_rate must be a number, got True"),
    ({"finetune": {"seed": "5"}}, "bad 'finetune' config: seed must be an integer, got '5'"),
    ({"inversion": {"seed": 1.5}}, "bad 'inversion' config: seed must be an integer, got 1.5"),
    ({"base_train": {"seed": [1]}}, "bad 'base_train' config: seed must be an integer, got [1]"),
    ({"inversion": {"learning_rate": True}},
     "bad 'inversion' config: learning_rate must be a number, got True"),
    ({"adaptation": {"anchor_fraction": "x"}},
     "bad 'adaptation' config: anchor_fraction must be a number, got 'x'"),
    ({"synth": {"base_frequency": True}},
     "bad 'synth' config: base_frequency must be a number, got True")],
    ids=["string-weighted-loss", "string-prototype-init", "int-prototype-init",
         "bool-finetune-rate", "string-finetune-seed", "float-inversion-seed",
         "list-base-seed", "bool-inversion-rate", "string-fraction", "bool-base-frequency"])
def test_train_base_rejects_wrong_typed_settings_before_training(tmp_path, capsys, spy_engine,
                                                                 extra, message):
    _assert_train_base_refuses(_small_config(**extra), message, tmp_path, capsys, spy_engine)


# one wrong-typed value of each JSON kind
_WRONG_VALUES = {"bool": True, "float": 2.5, "string": "x", "list": [{}], "object": {}}


def _config_fields():
    """(section or None for the top level, key, annotation) of every key a
    config sets: the fields of the four config dataclasses, each in its own
    section; the top-level keys that set a preset field; and the keys of the
    ``synth`` section, the parameters of ``desk_synth_spec``."""
    sections = {"base_train": BaseTrainConfig, "finetune": FinetuneConfig,
                "inversion": InversionConfig, "adaptation": AdaptationConfig}
    for section, cls in sections.items():
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            yield section, field.name, hints[field.name]
    hints = typing.get_type_hints(ExperimentPreset)
    for key, field in cli._PRESET_KEYS.items():
        yield None, key, hints[field]
    hints = typing.get_type_hints(desk_synth_spec)
    for name in inspect.signature(desk_synth_spec).parameters:
        yield "synth", name, hints[name]


_CONFIG_FIELDS = list(_config_fields())


@pytest.mark.parametrize("section, key, hint", _CONFIG_FIELDS,
                         ids=[f"{section or 'top'}.{key}" for section, key, _ in _CONFIG_FIELDS])
def test_every_config_field_refuses_each_wrong_kind_before_training(tmp_path, capsys,
                                                                    spy_engine, section, key,
                                                                    hint):
    """A field added later is covered by itself: each wrong kind of value
    fails with an error that names the key, before base training."""
    trainings = spy_engine("train_base", module=cli)
    for kind, value in _WRONG_VALUES.items():
        if (kind, hint) in (("float", float), ("bool", bool)):
            continue
        cfg = {"preset": "desk", **({key: value} if section is None
                                    else {section: {key: value}})}
        config = _write_config(tmp_path / "bad.json", cfg)
        out = tmp_path / "out"
        assert main(["train-base", "--config", config, "--out", str(out)]) == 1, (kind, cfg)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, (kind, err)
        assert trainings == [] and not out.exists()


@pytest.mark.parametrize("synth, message", [
    ({"num_classes": 4.7}, "num_classes must be an integer, got 4.7"),
    ({"num_classes": 0}, "num_classes must be >= 1, got 0"),
    ({"train_per_class": 12.5}, "train_per_class must be an integer, got 12.5"),
    ({"test_per_class": -1}, "test_per_class must be >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"channels": 4.0}, "channels must be an integer, got 4.0"),
    ({"timesteps": True}, "timesteps must be an integer, got True"),
    ({"preset": "bci"}, "unknown keys ['preset']"),
    ({"num_classes": None}, "num_classes must be an integer, got None")],
    ids=["float-classes", "zero-classes", "float-train", "negative-test", "float-seed",
         "float-channels", "bool-timesteps", "preset-key", "null-classes"])
def test_synth_section_counts_are_checked(synth, message):
    with pytest.raises(ConfigError, match=re.escape(f"bad 'synth' config: {message}")):
        resolve_preset({"preset": "desk", "synth": synth})


@pytest.mark.parametrize("synth, message", [
    ({"channels": 8}, "bad 'synth' config: channels must be the 'desk' backbone's 4, got 8"),
    ({"timesteps": 32}, "bad 'synth' config: timesteps must be the 'desk' backbone's 64, got 32")],
    ids=["channels", "timesteps"])
def test_synth_geometry_other_than_the_backbone_fails_before_training(tmp_path, capsys,
                                                                       spy_engine, synth, message):
    cfg = _small_config(synth=dict(_small_config()["synth"], **synth))
    _assert_train_base_refuses(cfg, message, tmp_path, capsys, spy_engine)
    assert not (tmp_path / "o").exists()


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
    assert resolve_preset({"preset": "desk", "synth": {"test_per_class": 0}}).synth.test_per_class == 0


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


def test_ablate_shots_axis(trained, tmp_path, spy_engine):
    trainings = spy_engine("train_base", module=evaluation)
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
    assert len(trainings) == 1  # no shot count changes base training


def test_ablate_strategy_axis(trained, tmp_path):
    cfg = _small_config(methods=["anchorinv"], trials=2,
                        ablate={"strategy": ["random_sample", "closest",
                                             {"name": "kmeans"}]})
    config = _write_config(tmp_path / "ablate.json", cfg)
    out = tmp_path / "out"
    assert main(["ablate", "--config", config, "--out", str(out),
                 "--axis", "strategy"]) == 0
    rows = json.loads((out / "ablate.json").read_text())["rows"]
    assert len(rows) == 3
    values = [row["value"] for row in rows]
    assert values[0] == "random_sample" and values[2]["name"] == "kmeans"


def test_ablate_base_classes_axis(trained, tmp_path, spy_engine):
    trainings = spy_engine("train_base", module=evaluation)
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
    assert len(trainings) == 2


def test_ablate_rejects_an_impossible_anchor_count_before_training(tmp_path, capsys,
                                                                   spy_engine):
    """Every strategy value's anchor counts are checked before the first
    value trains: the second value cannot take the desk preset's 25 anchors
    from the 15 closest of 30 members."""
    trainings = spy_engine("train_base", module=evaluation)
    cfg = {"preset": "desk", "ablate": {"strategy": [
        "random_sample", {"name": "random_closest", "fraction": 0.5}]}}
    config = _write_config(tmp_path / "ablate.json", cfg)
    out = tmp_path / "out"
    assert main(["ablate", "--config", config, "--out", str(out), "--axis", "strategy"]) == 1
    assert trainings == []
    assert not (out / "ablate.json").exists()
    assert "class 0: cannot take 25 from the 15 closest members" in capsys.readouterr().err


@pytest.mark.parametrize("unseen", [2.7, True, 0, "3"], ids=["float", "bool", "zero", "string"])
def test_ablate_rejects_a_bad_unseen_count_before_training(tmp_path, capsys, spy_engine,
                                                           unseen):
    trainings = spy_engine("train_base", module=evaluation)
    cfg = _small_config(ablate={"base-classes": [2, 3], "unseen": unseen})
    config = _write_config(tmp_path / "ablate.json", cfg)
    out = tmp_path / "out"
    assert main(["ablate", "--config", config, "--out", str(out),
                 "--axis", "base-classes"]) == 1
    assert trainings == []
    assert not (out / "ablate.json").exists()
    assert "error: bad 'ablate' config: unseen must be" in capsys.readouterr().err


@pytest.mark.parametrize("verb,extra", [
    (["train-base"], {"manifest": ["train", "test"]}),
    (["ablate", "--axis", "shots"], {"ablate": ["shots"]})], ids=["manifest", "ablate"])
def test_sections_that_are_not_objects_are_refused_before_staging(tmp_path, capsys, verb,
                                                                  extra):
    """A ``manifest`` or ``ablate`` section that is not a JSON object fails
    with an error naming it, before any staging directory exists."""
    (key, value), = extra.items()
    config = _write_config(tmp_path / "config.json", _small_config(**extra))
    out = tmp_path / "out"
    assert main([verb[0], "--config", config, "--out", str(out)] + verb[1:]) == 1
    assert capsys.readouterr().err == f"error: bad '{key}' config: not a JSON object, got {value!r}\n"
    assert not (out / "quarantine").exists() and not (out / ".staging").exists()


@pytest.mark.parametrize("verb, extra, message", [
    ("run", {"checkpoint": 5}, "bad 'checkpoint' config: not a string, got 5"),
    ("run", {"checkpoint": "c.bin", "anchors": ["a.bin"]},
     "bad 'anchors' config: not a string, got ['a.bin']"),
    ("train-base", {"manifest": {"train": 1, "test": "t.json"}},
     "bad 'manifest' config: train must be a string, got 1"),
    ("train-base", {"manifest": {"train": "t.json", "test": None}},
     "bad 'manifest' config: test must be a string, got None"),
    ("train-base", {"manifest": {"train": "t.json"}},
     "bad 'manifest' config: missing keys ['test']"),
    ("train-base", {"preset": ["desk"]},
     "bad 'preset' config: not one of ['desk', 'bci', 'nhie', 'grabmyo'], got ['desk']"),
    ("train-base", {"preset": "x"},
     "bad 'preset' config: not one of ['desk', 'bci', 'nhie', 'grabmyo'], got 'x'")],
    ids=["int-checkpoint", "list-anchors", "int-train-manifest", "null-test-manifest",
         "no-test-manifest", "list-preset", "unknown-preset"])
def test_wrong_typed_input_keys_are_refused_before_staging(tmp_path, capsys, verb, extra,
                                                          message):
    """A path key that is not a string fails with an error naming it, before
    any output directory exists."""
    config = _write_config(tmp_path / "config.json", _small_config(**extra))
    out = tmp_path / "out"
    assert main([verb, "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("axis, values, message", [
    ("shots", [5, 2.7], "shot must be an integer, got 2.7"),
    ("shots", [True], "shot must be an integer, got True"),
    ("base-classes", [2.7], "base-class count must be an integer, got 2.7"),
    ("anchors", ["5"], "anchors_per_class must be an integer, got '5'"),
    ("anchors", [3.9], "anchors_per_class must be an integer, got 3.9"),
    ("strategy", [{"name": "random_closest", "fraction": True}], "not a number, got True")],
    ids=["float-shots", "bool-shots", "float-base-classes", "string-anchors", "float-anchors",
         "bool-fraction"])
def test_ablate_refuses_a_wrong_typed_axis_value_before_training(tmp_path, capsys, spy_engine,
                                                                 axis, values, message):
    """No axis value is truncated: each one that is not of its setting's type
    fails before the first value trains."""
    trainings = spy_engine("train_base", module=evaluation)
    cfg = _small_config(ablate={axis: values, "unseen": 2})
    config = _write_config(tmp_path / "ablate.json", cfg)
    out = tmp_path / "out"
    assert main(["ablate", "--config", config, "--out", str(out), "--axis", axis]) == 1
    assert trainings == []
    assert not (out / "ablate.json").exists()
    assert message in capsys.readouterr().err


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


_REPORT = {"methods": ["protonet"], "trials": 1, "master_seed": 5, "num_sessions": 1,
           "base_classes": [0, 1], "session_classes": [[2]],
           "base_session": {"all": 90.0, "base": 90.0},
           "scores": {"protonet": {"all": [[80.0]], "base": [[85.0]], "incremental": [[70.0]]}},
           "p_values": {}}


def test_render_report_reads_a_hand_written_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_REPORT))
    assert main(["render-report", str(path)]) == 0
    assert "protonet" in capsys.readouterr().out


@pytest.mark.parametrize("payload, message", [
    ({"methods": ["a"]}, "bad report: missing keys ['base_classes', "),
    ([1, 2], "bad report: not a JSON object, got [1, 2]"),
    (dict(_REPORT, methods=5), "bad report: methods must be a list, got 5"),
    (dict(_REPORT, num_sessions="2"), "bad report: num_sessions must be an integer, got '2'"),
    (dict(_REPORT, scores=[]), "bad report: scores must be a JSON object, got []"),
    (dict(_REPORT, scores={"protonet": {"all": [80.0]}}),
     "bad report: scores.protonet.all[0] must be a list, got 80.0"),
    (dict(_REPORT, p_values=3), "bad report: p_values must be a JSON object, got 3"),
    (dict(_REPORT, trials=True), "bad report: trials must be an integer, got True"),
    (dict(_REPORT, num_sessions=2), "report field 'session_classes' must have num_sessions"),
    (dict(_REPORT, base_session={"base": 90.0}),
     "report field 'base_session' must have the keys 'all' and 'base'"),
    (dict(_REPORT, scores={}), "report field 'scores' must give method 'protonet' exactly"),
    (dict(_REPORT, scores={"protonet": {"all": [[80.0]], "base": [[85.0]]}}),
     "report field 'scores' must give method 'protonet' exactly"),
    (dict(_REPORT, num_sessions=2, session_classes=[[2], [3]]),
     "report field 'scores' must give 'protonet' 'all' num_sessions = 2 rows"),
    (dict(_REPORT, trials=2), "report field 'scores' must give 'protonet' 'all' num_sessions"),
    (dict(_REPORT, scores={"protonet": {"all": [[80.0]], "base": [[85.0]],
                                        "incremental": [[70.0, 1.0]]}}),
     "report field 'scores' must give 'protonet' 'incremental'"),
    (dict(_REPORT, methods=["protonet", "finetune"], p_values={"protonet|finetune": []}),
     "report field 'scores' must give method 'finetune'"),
    (dict(_REPORT, p_values={"protonet|finetune": [0.5, 0.5]}),
     "report field 'p_values' must give 'protonet|finetune' num_sessions = 1 items"),
    (dict(_REPORT, methods=[]), "report field 'methods' must name at least one method"),
    (dict(_REPORT, methods=["dreambooth"]),
     "bad report: methods[0] must be one of ['anchorinv', "),
    (dict(_REPORT, scores=dict(_REPORT["scores"], ghost={})),
     "report field 'scores' must have exactly the keys ['protonet'], got ['ghost', "),
    (dict(_REPORT, p_values={"x|y": [0.5]}),
     "report field 'p_values' must have exactly the keys [], got ['x|y']")],
    ids=["missing-keys", "list", "int-methods", "string-sessions", "list-scores",
         "flat-scores", "int-p-values", "bool-trials", "short-session-classes",
         "base-session-without-all", "method-without-scores", "scores-without-incremental",
         "too-few-score-rows", "too-few-trials", "too-many-trials", "second-method-missing",
         "long-p-values", "no-methods", "unknown-method", "ghost-method", "unlisted-pair"])
def test_render_report_refuses_a_malformed_report(tmp_path, capsys, payload, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    assert main(["render-report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


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


@pytest.mark.parametrize("value", ["two", "1.5", ""])
def test_workers_env_variable_that_is_not_an_integer_names_it(tmp_path, monkeypatch, capsys,
                                                             value):
    config = _write_config(tmp_path / "run.json", _small_config())
    monkeypatch.setenv(WORKERS_ENV, value)
    assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {WORKERS_ENV} must be an integer, got {value!r}\n"
    assert not (tmp_path / "o").exists()
