"""Named experiment presets bundling dataset geometry and hyperparameters.

"desk" is the self-contained preset: it carries a synthetic-data spec and
small iteration counts, so the whole pipeline (base training, inversion,
incremental adaptation, multi-trial evaluation) runs in minutes on a laptop.
"bci", "nhie", and "grabmyo" record the full-scale recording configurations
— session geometry and training/inversion/finetuning hyperparameters — and
expect externally supplied data manifests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .adaptation import AdaptationConfig, FinetuneConfig, Method
from .data import (Dataset, SessionSplit, SynthSpec, desk_synth_spec,
                   paired_gain_spec, split_sessions, synth_arrays)
from .inversion import InversionConfig
from .model import (BACKBONE_PRESETS, BaseTrainConfig, ConvBackboneConfig, check_count,
                    check_integer)
from .serialization import read_json

__all__ = [
    "ConfigError",
    "ExperimentPreset",
    "EXPERIMENT_PRESETS",
    "get_preset",
    "materialize_synth",
    "build_split",
    "with_synth_classes",
]

DEFAULT_SEED = 5


class ConfigError(ValueError):
    """A config file is missing a key, has an unknown key, or is malformed."""


@dataclass(frozen=True)
class ExperimentPreset:
    """One experiment: backbone, session geometry, and all hyperparameters."""

    name: str  # also names the backbone, BACKBONE_PRESETS[name]
    num_classes: int
    base_classes: tuple[int, ...]
    way: int
    shot: int
    trials: int
    master_seed: int
    methods: tuple[Method, ...]
    base_train: BaseTrainConfig
    adaptation: AdaptationConfig
    synth: SynthSpec | None = None  # set only for synthetic presets

    def __post_init__(self):
        if self.name not in BACKBONE_PRESETS:
            raise KeyError(f"unknown backbone preset '{self.name}'; "
                           f"valid: {sorted(BACKBONE_PRESETS)}")
        for name in ("trials", "way", "shot"):
            check_count(name, getattr(self, name), 1)
        # any sign: derive_seed reads a seed modulo 2**64
        for name, value in [("master_seed", self.master_seed)] + [
                ("base class", c) for c in self.base_classes]:
            check_integer(name, value)
        if not set(self.base_classes) <= set(range(self.num_classes)):
            raise ValueError("base classes outside the class range")

    @property
    def backbone_config(self) -> ConvBackboneConfig:
        return BACKBONE_PRESETS[self.name]


def _desk_preset() -> ExperimentPreset:
    return ExperimentPreset(
        name="desk",
        num_classes=4,
        base_classes=(0, 1),
        way=1,
        shot=10,
        trials=20,
        master_seed=DEFAULT_SEED,
        methods=("anchorinv", "finetune", "protonet", "realreplay"),
        base_train=BaseTrainConfig(epochs=300, learning_rate=5e-3, seed=DEFAULT_SEED),
        adaptation=AdaptationConfig(
            finetune=FinetuneConfig(learning_rate=5e-4, iterations=300, prototype_init=True),
            inversion=InversionConfig(learning_rate=1e-2, iterations=800, seed=DEFAULT_SEED),
            label_inversion_iterations=300,
            anchors_per_class=25,
            anchor_strategy="random_sample",
        ),
        synth=paired_gain_spec(frequencies=(3.0, 5.0), train_per_class=30,
                               test_per_class=20, seed=DEFAULT_SEED),
    )


def _bci_preset() -> ExperimentPreset:
    # 4 motor-imagery classes: first two form the base session, then two
    # 1-way-10-shot sessions; 100 paired trials
    return ExperimentPreset(
        name="bci",
        num_classes=4,
        base_classes=(0, 1),
        way=1,
        shot=10,
        trials=100,
        master_seed=DEFAULT_SEED,
        methods=("anchorinv", "finetune", "protonet", "teen"),
        base_train=BaseTrainConfig(epochs=1500, learning_rate=2e-4, seed=DEFAULT_SEED),
        adaptation=AdaptationConfig(
            finetune=FinetuneConfig(learning_rate=2e-5, iterations=1550, prototype_init=False),
            inversion=InversionConfig(learning_rate=1e-2, iterations=4000, seed=DEFAULT_SEED),
            anchors_per_class=50,
            anchor_strategy="random_sample",
        ),
    )


def _nhie_preset() -> ExperimentPreset:
    # 4 severity grades; first two are base classes; class imbalance handled
    # by a weighted base loss
    return ExperimentPreset(
        name="nhie",
        num_classes=4,
        base_classes=(0, 1),
        way=1,
        shot=10,
        trials=100,
        master_seed=DEFAULT_SEED,
        methods=("anchorinv", "finetune", "protonet", "teen"),
        base_train=BaseTrainConfig(epochs=2000, learning_rate=1e-5,
                                   weighted_loss=True, seed=DEFAULT_SEED),
        adaptation=AdaptationConfig(
            finetune=FinetuneConfig(learning_rate=1e-5, iterations=1250, prototype_init=False),
            inversion=InversionConfig(learning_rate=1e-2, iterations=4000, seed=DEFAULT_SEED),
            anchors_per_class=50,
            anchor_strategy="random_sample",
        ),
    )


def _grabmyo_preset() -> ExperimentPreset:
    # 16 gestures: 10 base classes, six 1-way-10-shot sessions; new-class
    # weights start from prototypes
    return ExperimentPreset(
        name="grabmyo",
        num_classes=16,
        base_classes=tuple(range(10)),
        way=1,
        shot=10,
        trials=20,
        master_seed=DEFAULT_SEED,
        methods=("anchorinv", "finetune", "protonet", "teen"),
        base_train=BaseTrainConfig(epochs=2000, learning_rate=5e-5, seed=DEFAULT_SEED),
        adaptation=AdaptationConfig(
            finetune=FinetuneConfig(learning_rate=5e-6, iterations=1300, prototype_init=True),
            inversion=InversionConfig(learning_rate=1e-2, iterations=2000, seed=DEFAULT_SEED),
            anchors_per_class=50,
            anchor_strategy="random_sample",
        ),
    )


EXPERIMENT_PRESETS: dict[str, ExperimentPreset] = {
    "desk": _desk_preset(),
    "bci": _bci_preset(),
    "nhie": _nhie_preset(),
    "grabmyo": _grabmyo_preset(),
}


def get_preset(name: str) -> ExperimentPreset:
    if name not in EXPERIMENT_PRESETS:
        raise KeyError(f"unknown preset '{name}'; valid: {sorted(EXPERIMENT_PRESETS)}")
    return EXPERIMENT_PRESETS[name]


def materialize_synth(preset: ExperimentPreset) -> tuple[Dataset, Dataset]:
    """Generate the preset's (train, test) datasets; synthetic presets only."""
    if preset.synth is None:
        raise ValueError(f"preset '{preset.name}' has no synthetic data spec; "
                         f"supply dataset manifests instead")
    return synth_arrays(preset.synth)


def build_split(preset: ExperimentPreset, train: Dataset) -> SessionSplit:
    return split_sessions(train, preset.base_classes, preset.way, preset.shot)


def with_synth_classes(preset: ExperimentPreset, num_classes: int | None = None, /,
                       **overrides) -> ExperimentPreset:
    """Clone a synthetic preset onto a ``desk_synth_spec`` frequency ladder
    at the preset backbone's channels and timesteps.

    Takes the keys of a config's ``synth`` section, the other parameters of
    ``desk_synth_spec``, read by ``read_json``; a key left out (or a
    positional ``num_classes`` of None) keeps the preset's own value.
    ConfigError (a ValueError) for a preset that is not synthetic or a key
    ``read_json`` refuses.  Callers adjust way and base classes as needed.
    """
    if preset.synth is None:
        raise ConfigError(f"preset '{preset.name}' is not synthetic; "
                          f"remove the 'synth' section")
    spec = preset.synth
    backbone = preset.backbone_config

    def ladder(num_classes: int, train_per_class: int, test_per_class: int, seed: int,
               noise_sigma: float, base_frequency: float, frequency_step: float) -> SynthSpec:
        return desk_synth_spec(num_classes, train_per_class, test_per_class, backbone.channels,
                               backbone.timesteps, seed, noise_sigma, base_frequency,
                               frequency_step)

    # presets whose class pairs share a frequency imply a zero step; the
    # ladder needs a positive one, so fall back to 1.0
    step = (spec.classes[1].frequency - spec.classes[0].frequency
            if len(spec.classes) > 1 else 1.0)
    current = {key: getattr(spec, key) for key in ("train_per_class", "test_per_class", "seed")}
    current.update(num_classes=len(spec.classes), noise_sigma=spec.classes[0].noise_sigma,
                   base_frequency=spec.classes[0].frequency,
                   frequency_step=step if step > 0 else 1.0)
    if num_classes is not None:
        overrides["num_classes"] = num_classes
    synth = read_json(overrides, ladder, ConfigError, "'synth' config", current)
    return replace(preset, num_classes=len(synth.classes), synth=synth)
