"""Structural tests for the named experiment presets."""

import numpy as np
import pytest

from anchorinv.presets import (EXPERIMENT_PRESETS, ExperimentPreset,
                               build_split, get_preset, materialize_synth,
                               with_synth_classes)


def test_preset_registry():
    assert sorted(EXPERIMENT_PRESETS) == ["bci", "desk", "grabmyo", "nhie"]
    for name, preset in EXPERIMENT_PRESETS.items():
        assert preset.name == name
        assert preset.backbone == name
        assert preset.way == 1 and preset.shot == 10
        assert "anchorinv" in preset.methods
        assert "finetune" in preset.methods
        assert "protonet" in preset.methods
        assert preset.adaptation.finetune.trainable_layers == ("spatial",)
    with pytest.raises(KeyError):
        get_preset("emg")


def test_desk_preset_is_self_contained():
    desk = get_preset("desk")
    assert desk.synth is not None
    assert desk.num_classes == 4
    assert desk.base_classes == (0, 1)
    assert desk.trials == 20
    assert len(desk.synth.classes) == 4
    # classes come in same-frequency pairs distinguished by channel gains
    freqs = [c.frequency for c in desk.synth.classes]
    assert freqs[0] == freqs[1] and freqs[2] == freqs[3]
    assert desk.synth.classes[0].channel_gains != desk.synth.classes[1].channel_gains


def test_recording_presets_expect_manifests():
    for name in ("bci", "nhie", "grabmyo"):
        preset = get_preset(name)
        assert preset.synth is None
        with pytest.raises(ValueError):
            materialize_synth(preset)
    assert get_preset("grabmyo").num_classes == 16
    assert get_preset("grabmyo").base_classes == tuple(range(10))
    assert get_preset("nhie").base_train.weighted_loss


def test_preset_validation():
    desk = get_preset("desk")
    with pytest.raises(KeyError):
        ExperimentPreset(name="x", backbone="resnet", num_classes=4,
                         base_classes=(0, 1), way=1, shot=10, trials=1,
                         master_seed=0, methods=("protonet",),
                         base_train=desk.base_train, adaptation=desk.adaptation)
    with pytest.raises(ValueError):
        ExperimentPreset(name="x", backbone="desk", num_classes=4,
                         base_classes=(0, 9), way=1, shot=10, trials=1,
                         master_seed=0, methods=("protonet",),
                         base_train=desk.base_train, adaptation=desk.adaptation)


def test_materialize_and_split_desk():
    desk = get_preset("desk")
    train, test = materialize_synth(desk)
    spec = desk.synth
    assert len(train) == 4 * spec.train_per_class
    assert len(test) == 4 * spec.test_per_class
    split = build_split(desk, train)
    assert split.base_spec.class_ids == (0, 1)
    assert len(split.pools) == 2
    assert [s.class_ids for s in split.pool_specs] == [(2,), (3,)]
    assert len(split.base) == 2 * spec.train_per_class


def test_with_synth_classes():
    desk = get_preset("desk")
    wide = with_synth_classes(desk, 16)
    assert wide.num_classes == 16
    assert len(wide.synth.classes) == 16
    freqs = [c.frequency for c in wide.synth.classes]
    assert len(set(freqs)) == 16  # ladder, all distinct
    assert wide.synth.train_per_class == desk.synth.train_per_class
    with pytest.raises(ValueError):
        with_synth_classes(get_preset("bci"), 8)


def test_with_synth_classes_takes_synth_section_keys():
    desk = get_preset("desk")
    assert with_synth_classes(desk) == with_synth_classes(desk, len(desk.synth.classes))
    tuned = with_synth_classes(desk, 5, base_frequency=2.0, frequency_step=0.5,
                               noise_sigma=0.3, train_per_class=7)
    assert [c.frequency for c in tuned.synth.classes] == [2.0, 2.5, 3.0, 3.5, 4.0]
    assert tuned.synth.classes[0].noise_sigma == 0.3
    assert tuned.synth.train_per_class == 7
    assert tuned.synth.test_per_class == desk.synth.test_per_class
    # the ladder restarts from the tuned preset's own spec
    again = with_synth_classes(tuned, 3)
    assert [c.frequency for c in again.synth.classes] == [2.0, 2.5, 3.0]
    with pytest.raises(ValueError, match="amplitude"):
        with_synth_classes(desk, 4, amplitude=2.0)
