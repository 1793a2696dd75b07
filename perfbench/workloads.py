"""The three benchmark workloads, each driven through the public anchorinv API.

A workload builds its inputs in ``setup`` and runs one op per ``op`` call;
both see only the inputs generated here.  Per-op seeds come from the
workload seed, so the same seed gives the same inputs and results.  Sizes
are scaled down from the presets so that a run holds enough ops for a
median and a tail (see README.md); ``SMOKE`` shrinks them further for the
smoke test.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import anchorinv as ai

_OP_STREAM = 0xBE7C


@dataclass(frozen=True)
class Sizes:
    """Everything the benchmark scales; ``FULL`` is what a run measures."""

    desk_inversion_iters: int = 50
    desk_finetune_iters: int = 25
    desk_anchors_per_class: int = 10
    desk_base_epochs: int = 300     # the set-up's base model, as in the preset
    desk_train_epochs: int = 100    # one desk-train op
    bci_train_per_class: int = 12
    bci_test_per_class: int = 6
    bci_base_epochs: int = 2
    bci_anchors_per_class: int = 3
    bci_inversion_iters: int = 2
    bci_finetune_iters: int = 2
    # ops 0 .. n-1 give the quality metrics; desk-train trains a new model
    # per op, so its replay MAE needs more of them to settle
    desk_trials_quality_ops: int = 8
    bci_quality_ops: int = 4
    desk_train_quality_ops: int = 32


FULL = Sizes()
SMOKE = Sizes(desk_inversion_iters=4, desk_finetune_iters=3, desk_anchors_per_class=3,
              desk_base_epochs=6, desk_train_epochs=6, bci_train_per_class=10,
              bci_test_per_class=2, bci_base_epochs=1, bci_anchors_per_class=1,
              bci_inversion_iters=1, bci_finetune_iters=1, desk_trials_quality_ops=1,
              bci_quality_ops=1, desk_train_quality_ops=1)


@dataclass
class OpResult:
    """What one op produced, for the output checks and quality metrics."""

    f1_all: float
    f1_base: float
    f1_other: list[float] = field(default_factory=list)  # further scores to range-check
    replays: list = field(default_factory=list)           # ReplaySets made by the op
    fingerprint: bytes = b""                              # compared on the rerun of op 0
    state: object = None                                  # the trained model (desk-train)

    def digest(self) -> str:
        h = hashlib.sha256(self.fingerprint)
        for replay in self.replays:
            h.update(replay.samples.tobytes())
            h.update(replay.feature_mae.tobytes())
        return h.hexdigest()


def _state_bytes(state) -> bytes:
    return b"".join(t.data.tobytes() for t in state.all_parameters().values())


def _checkpoint_round_trip(state, anchors, scratch: Path):
    """Save and reload the base state and anchor memory, as ``train-base``
    followed by ``run`` does; returns the reloaded pair and the checkpoint
    digest."""
    workdir = Path(tempfile.mkdtemp(prefix="ckpt-", dir=scratch))
    try:
        ai.save_checkpoint(workdir / "checkpoint.bin", state)
        ai.save_anchor_set(workdir / "anchors.bin", anchors)
        loaded = ai.load_checkpoint(workdir / "checkpoint.bin")
        loaded_anchors = ai.load_anchor_set(workdir / "anchors.bin",
                                            expected_dim=loaded.feature_dim)
        digest = ai.file_sha256(workdir / "checkpoint.bin")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if _state_bytes(loaded) != _state_bytes(state):
        raise RuntimeError("checkpoint round trip changed the model parameters")
    if loaded_anchors.vectors.tobytes() != anchors.vectors.tobytes():
        raise RuntimeError("anchor-set round trip changed the anchors")
    return loaded, loaded_anchors, digest


class Workload:
    name = ""
    # span labels every traced op must hit; a miss fails the traced run
    required: tuple[str, ...] = ()
    quality_ops = 1

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        self.seed, self.scratch = seed, scratch

    def op_seed(self, index: int) -> int:
        return ai.derive_seed(self.seed, _OP_STREAM, index)

    def setup(self) -> str:
        """Build everything the ops need; returns a digest of the result so
        repeated set-ups can be checked for equality."""
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def check(self, index: int, result: OpResult) -> None:
        """Untimed extra work for the quality ops (default: none)."""


def _desk_adaptation(preset, sizes: Sizes):
    adaptation = preset.adaptation
    return replace(
        adaptation, anchors_per_class=sizes.desk_anchors_per_class,
        inversion=replace(adaptation.inversion, iterations=sizes.desk_inversion_iters),
        finetune=replace(adaptation.finetune, iterations=sizes.desk_finetune_iters))


_ENGINE_SPANS = ("model.embed", "autodiff.conv2d", "autodiff.avg_pool2d",
                 "autodiff.backward", "optim.adam_step")


class DeskTrials(Workload):
    name = "desk-trials"
    methods = ("anchorinv", "finetune", "protonet", "realreplay")
    required = _ENGINE_SPANS + (
        "evaluation.run_trials", "adaptation.run_fscil.anchorinv",
        "adaptation.run_fscil.finetune", "adaptation.run_fscil.protonet",
        "adaptation.run_fscil.realreplay", "inversion.invert_set",
        "adaptation.finetune_session", "adaptation.composite_loss",
        "anchors.project_features", "anchors.select_anchors", "model.predict_batch",
        "model.prototype_of", "autodiff.cosine_similarity_matrix",
        "autodiff.softmax_with_temperature", "autodiff.stack_rows")

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        super().__init__(seed, sizes, scratch)
        preset = ai.get_preset("desk")
        self.preset = replace(preset, base_train=replace(preset.base_train,
                                                         epochs=sizes.desk_base_epochs))
        self.config = _desk_adaptation(preset, sizes)
        self.quality_ops = sizes.desk_trials_quality_ops

    def setup(self) -> str:
        preset = self.preset
        train, self.test = ai.materialize_synth(preset)
        self.split = ai.build_split(preset, train)
        state = ai.train_base(self.split.base.x, self.split.base.y,
                              preset.backbone_config, preset.base_train)
        anchors = ai.base_anchor_memory(state, self.split.base, self.config)
        self.state, self.anchors, digest = _checkpoint_round_trip(state, anchors,
                                                                  self.scratch)
        return digest

    def op(self, index: int) -> OpResult:
        plan = ai.TrialPlan(trials=1, master_seed=self.op_seed(index), methods=self.methods)
        report = ai.run_trials(self.state, self.split, self.test, plan, self.config,
                               base_anchors=self.anchors, workers=1)
        scores = report.scores
        others = [v for method in self.methods for metric in ("all", "base", "incremental")
                  for session in scores[method][metric] for v in session if v is not None]
        return OpResult(f1_all=scores["anchorinv"]["all"][-1][0],
                        f1_base=scores["anchorinv"]["base"][-1][0],
                        f1_other=others,
                        fingerprint=ai.canonical_json(report.to_dict()).encode())


class BciSession(Workload):
    name = "bci-session"
    required = _ENGINE_SPANS + (
        "adaptation.run_fscil.anchorinv", "inversion.invert_set",
        "adaptation.finetune_session", "adaptation.composite_loss",
        "anchors.project_features", "model.predict_batch", "model.prototype_of")

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        super().__init__(seed, sizes, scratch)
        preset = ai.get_preset("bci")
        geometry = ai.BACKBONE_PRESETS["bci"]
        adaptation = preset.adaptation
        # three classes: the two base classes and one 1-way-10-shot session.
        # Class frequencies sit well inside the pooled band so that a briefly
        # trained backbone already separates them.
        self.synth = ai.desk_synth_spec(
            num_classes=3, train_per_class=sizes.bci_train_per_class,
            test_per_class=sizes.bci_test_per_class, channels=geometry.channels,
            timesteps=geometry.timesteps, seed=preset.master_seed, noise_sigma=1.0,
            base_frequency=30.0, frequency_step=15.0)
        self.geometry = geometry
        self.base_train = replace(preset.base_train, epochs=sizes.bci_base_epochs)
        # prototype init: the new class weight cannot be learned in the few
        # finetune iterations a benchmark op can afford
        self.config = replace(
            adaptation, anchors_per_class=sizes.bci_anchors_per_class,
            inversion=replace(adaptation.inversion, iterations=sizes.bci_inversion_iters),
            finetune=replace(adaptation.finetune, iterations=sizes.bci_finetune_iters,
                             prototype_init=True))
        self.shot = preset.shot
        self.quality_ops = sizes.bci_quality_ops

    def setup(self) -> str:
        train, self.test = ai.synth_arrays(self.synth)
        self.split = ai.split_sessions(train, (0, 1), 1, self.shot)
        state = ai.train_base(self.split.base.x, self.split.base.y, self.geometry,
                              self.base_train)
        anchors = ai.base_anchor_memory(state, self.split.base, self.config)
        self.state, self.anchors, digest = _checkpoint_round_trip(state, anchors,
                                                                  self.scratch)
        return digest

    def op(self, index: int) -> OpResult:
        seed = self.op_seed(index)
        shots = ai.sample_trial_sets(self.split, seed)
        chain = ai.run_fscil(None, shots, "anchorinv", self.config,
                             base_state=self.state.clone(), base_anchors=self.anchors,
                             seed=seed)
        preds = ai.predict_batch(chain[-1], self.test.x)
        f1_all = ai.macro_f1(preds, self.test.y, [0, 1, 2])
        f1_base = ai.macro_f1(preds, self.test.y, [0, 1])
        return OpResult(f1_all=f1_all, f1_base=f1_base,
                        fingerprint=preds.tobytes() + _state_bytes(chain[-1]))


class DeskTrain(Workload):
    name = "desk-train"
    required = _ENGINE_SPANS + (
        "model.train_base", "model.predict_batch", "model.prototype_of",
        "autodiff.cosine_similarity_matrix", "autodiff.softmax_with_temperature",
        "autodiff.stack_rows")

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        super().__init__(seed, sizes, scratch)
        preset = ai.get_preset("desk")
        self.preset = replace(preset, base_train=replace(preset.base_train,
                                                         epochs=sizes.desk_train_epochs))
        self.config = _desk_adaptation(preset, sizes)  # for the inversion check
        self.quality_ops = sizes.desk_train_quality_ops

    def setup(self) -> str:
        train, test = ai.materialize_synth(self.preset)
        self.split = ai.build_split(self.preset, train)
        self.base_ids = list(self.preset.base_classes)
        self.test = test.of_classes(self.base_ids)
        return hashlib.sha256(train.x.tobytes() + self.test.x.tobytes()).hexdigest()

    def op(self, index: int) -> OpResult:
        config = replace(self.preset.base_train, seed=self.op_seed(index))
        state = ai.train_base(self.split.base.x, self.split.base.y,
                              self.preset.backbone_config, config)
        preds = ai.predict_batch(state, self.test.x)
        f1 = ai.macro_f1(preds, self.test.y, self.base_ids)
        return OpResult(f1_all=f1, f1_base=f1, fingerprint=_state_bytes(state), state=state)

    def check(self, index: int, result: OpResult) -> None:
        """Invert the trained model's base anchors: replay_mae on this
        workload says how invertible the freshly trained backbone is."""
        anchors = ai.base_anchor_memory(result.state, self.split.base, self.config)
        config = replace(self.config.inversion, seed=self.op_seed(index))
        ai.invert_set(result.state, anchors, config)


WORKLOADS = {w.name: w for w in (DeskTrials, BciSession, DeskTrain)}
