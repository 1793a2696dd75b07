"""Command-line entry point.

Verbs:
    train-base       train the base-session model, save checkpoint + anchors
    run              multi-trial incremental evaluation of configured methods
    ablate           sweep one axis (base-classes | shots | anchors | strategy)
    audit-inversion  invert a stored anchor set and report per-anchor error
    render-report    re-render a structured report as a text table

Every command is a pure function of its config file and input files: rerunning
with identical inputs produces byte-identical outputs.  Outputs are written to
a staging directory first and only moved into place on success; on error the
partial outputs land in ``<out>/quarantine`` and the exit status is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adaptation import METHODS, base_anchor_memory
from .anchors import load_anchor_set, save_anchor_set
from .data import Dataset
from .evaluation import TrialPlan, TrialReport, render_report, run_trials, summarize
from .inversion import invert_set
from .model import accuracy, train_base
from .presets import (ExperimentPreset, build_split, get_preset, materialize_synth,
                      with_synth_classes)
from .serialization import (canonical_json, load_checkpoint, read_manifest_dataset,
                            save_checkpoint, write_manifest_dataset)

__all__ = [
    "ConfigError",
    "load_config",
    "resolve_preset",
    "apply_seed",
    "main",
]

WORKERS_ENV = "ANCHORINV_WORKERS"
ABLATE_AXES = ("base-classes", "shots", "anchors", "strategy")

_TOP_KEYS = {"preset", "trials", "seed", "methods", "way", "shot", "base_classes",
             "synth", "base_train", "finetune", "inversion", "adaptation",
             "checkpoint", "anchors", "manifest", "ablate"}
# finetune/inversion have their own top-level sections
_ADAPTATION_SCALARS = {"label_inversion_iterations", "label_inversion_learning_rate",
                       "anchors_per_class", "anchor_strategy", "anchor_fraction",
                       "anchor_kmeans_k", "teen_tau", "teen_alpha", "real_per_class"}


class ConfigError(ValueError):
    """A config file is missing a key, has an unknown key, or is malformed."""


# ---------------------------------------------------------------------------
# config loading


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file '{path}' does not exist")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config '{path}' is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(cfg) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config missing required key '{key}'")
    return cfg[key]


def _override(obj, overrides: dict, context: str):
    """dataclasses.replace with unknown-key reporting."""
    known = {f.name for f in dataclasses.fields(obj)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ConfigError(f"unknown {context} config keys {unknown}")
    coerced = dict(overrides)
    if "trainable_layers" in coerced:
        coerced["trainable_layers"] = tuple(coerced["trainable_layers"])
    return replace(obj, **coerced)


def resolve_preset(cfg: dict) -> ExperimentPreset:
    """Build the effective preset: named preset + config overrides."""
    preset = get_preset(str(_require(cfg, "preset")))
    if "synth" in cfg:
        if not isinstance(cfg["synth"], dict):
            raise ConfigError("'synth' must be a JSON object")
        try:
            preset = with_synth_classes(preset, **cfg["synth"])
        except ValueError as err:
            raise ConfigError(str(err)) from err
    if "base_train" in cfg:
        preset = replace(preset, base_train=_override(preset.base_train,
                                                      cfg["base_train"], "base_train"))
    adaptation = preset.adaptation
    if "finetune" in cfg:
        adaptation = replace(adaptation,
                             finetune=_override(adaptation.finetune, cfg["finetune"],
                                                "finetune"))
    if "inversion" in cfg:
        adaptation = replace(adaptation,
                             inversion=_override(adaptation.inversion, cfg["inversion"],
                                                 "inversion"))
    if "adaptation" in cfg:
        unknown = sorted(set(cfg["adaptation"]) - _ADAPTATION_SCALARS)
        if unknown:
            raise ConfigError(f"unknown adaptation config keys {unknown} "
                              f"(finetune/inversion have their own sections)")
        adaptation = replace(adaptation, **cfg["adaptation"])
    preset = replace(preset, adaptation=adaptation)

    simple = {}
    if "trials" in cfg:
        simple["trials"] = int(cfg["trials"])
    if "seed" in cfg:
        simple["master_seed"] = int(cfg["seed"])
    if "way" in cfg:
        simple["way"] = int(cfg["way"])
    if "shot" in cfg:
        simple["shot"] = int(cfg["shot"])
    if "base_classes" in cfg:
        simple["base_classes"] = tuple(int(c) for c in cfg["base_classes"])
    if "methods" in cfg:
        methods = tuple(str(m) for m in cfg["methods"])
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; valid methods: {list(METHODS)}")
        simple["methods"] = methods
    if simple:
        preset = replace(preset, **simple)
    return preset


def apply_seed(preset: ExperimentPreset, seed: int) -> ExperimentPreset:
    """Point every seeded component at one global seed."""
    return replace(
        preset,
        master_seed=seed,
        base_train=replace(preset.base_train, seed=seed),
        adaptation=replace(
            preset.adaptation,
            finetune=replace(preset.adaptation.finetune, seed=seed),
            inversion=replace(preset.adaptation.inversion, seed=seed)),
    )


def load_datasets(preset: ExperimentPreset, cfg: dict) -> tuple[Dataset, Dataset]:
    if "manifest" in cfg:
        manifest = cfg["manifest"]
        for key in ("train", "test"):
            if key not in manifest:
                raise ConfigError(f"config missing required key 'manifest.{key}'")
        return (read_manifest_dataset(manifest["train"]),
                read_manifest_dataset(manifest["test"]))
    return materialize_synth(preset)


# ---------------------------------------------------------------------------
# commands (each writes only into the staging directory it is handed)


def cmd_train_base(cfg: dict, preset: ExperimentPreset, staging: Path) -> None:
    train, _ = load_datasets(preset, cfg)
    split = build_split(preset, train)
    state = train_base(split.base.x, split.base.y, preset.backbone_config,
                       preset.base_train)
    anchors = base_anchor_memory(state, split.base, preset.adaptation)
    save_checkpoint(staging / "checkpoint.bin", state)
    save_anchor_set(staging / "anchors.bin", anchors)
    log = {
        "preset": preset.name,
        "seed": preset.base_train.seed,
        "epochs": preset.base_train.epochs,
        "learning_rate": preset.base_train.learning_rate,
        "base_classes": [int(c) for c in preset.base_classes],
        "loss": state.train_losses,
        "final_loss": state.train_losses[-1],
        "train_accuracy": accuracy(state, split.base.x, split.base.y),
        "anchor_count": len(anchors),
        "anchor_strategy": preset.adaptation.anchor_strategy,
    }
    (staging / "train_log.json").write_text(canonical_json(log))


def _load_state_and_anchors(cfg: dict, need_anchors: bool):
    ckpt = _require(cfg, "checkpoint")
    if not Path(ckpt).exists():
        raise ConfigError(f"checkpoint '{ckpt}' does not exist (run train-base first)")
    state = load_checkpoint(ckpt)
    anchors = None
    if "anchors" in cfg:
        anchors = load_anchor_set(cfg["anchors"], expected_dim=state.feature_dim)
    elif need_anchors:
        raise ConfigError("config missing required key 'anchors'")
    return state, anchors


def cmd_run(cfg: dict, preset: ExperimentPreset, staging: Path, workers: int) -> None:
    state, anchors = _load_state_and_anchors(cfg, need_anchors=False)
    train, test = load_datasets(preset, cfg)
    split = build_split(preset, train)
    if anchors is None and "anchorinv" in preset.methods:
        anchors = base_anchor_memory(state, split.base, preset.adaptation)
    plan = TrialPlan(trials=preset.trials, master_seed=preset.master_seed,
                     methods=preset.methods)
    report = run_trials(state, split, test, plan, preset.adaptation,
                        base_anchors=anchors, workers=workers)
    (staging / "report.json").write_text(canonical_json(report.to_dict()))
    (staging / "report.txt").write_text(render_report(report))


def _ablate_row(report: TrialReport, method: str, metric: str, value) -> dict:
    per_trial = [v for v in report.scores[method][metric][-1] if v is not None]
    mean, std = summarize(per_trial)
    return {"value": value, "method": method, "metric": metric,
            "mean": mean, "std": std, "per_trial": per_trial}


def _axis_preset(preset: ExperimentPreset, axis: str, value) -> ExperimentPreset:
    """The preset one value of the shots, anchors or strategy axis runs."""
    if axis == "shots":
        return replace(preset, shot=int(value))
    if axis == "anchors":
        adaptation = replace(preset.adaptation, anchors_per_class=int(value))
    elif isinstance(value, dict):
        if "name" not in value:
            raise ConfigError("strategy axis values need a 'name' key")
        adaptation = replace(
            preset.adaptation,
            anchor_strategy=str(value["name"]),
            anchor_fraction=float(value.get("fraction", preset.adaptation.anchor_fraction)),
            anchor_kmeans_k=int(value.get("k", preset.adaptation.anchor_kmeans_k)))
    else:
        adaptation = replace(preset.adaptation, anchor_strategy=str(value))
    return replace(preset, adaptation=adaptation)


def _base_class_runs(preset: ExperimentPreset, values: list, unseen: int,
                     all_ids: list[int]) -> list[tuple]:
    """Frozen-backbone transfer: each value B retrains the base model on the
    first B classes and scores protonet on a fixed set of held-out classes."""
    if unseen < 1 or unseen >= len(all_ids):
        raise ConfigError(f"'ablate.unseen'={unseen} out of range for "
                          f"{len(all_ids)} classes")
    eval_ids = all_ids[-unseen:]
    runs = []
    for value in values:
        b = int(value)
        base_ids = all_ids[:b]
        if len(base_ids) != b or set(base_ids) & set(eval_ids):
            raise ConfigError(f"base-class count {b} collides with the "
                              f"{unseen} held-out classes")
        run_preset = replace(preset, base_classes=tuple(base_ids), way=unseen,
                             methods=("protonet",))
        runs.append((b, run_preset, base_ids + eval_ids, "incremental"))
    return runs


def cmd_ablate(cfg: dict, preset: ExperimentPreset, axis: str, staging: Path,
               workers: int) -> None:
    ablate_cfg = _require(cfg, "ablate")
    if axis not in ablate_cfg:
        raise ConfigError(f"config missing required key 'ablate.{axis}'")
    values = ablate_cfg[axis]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"'ablate.{axis}' must be a nonempty list of axis values")

    # no axis changes the synthetic spec, so every run shares one data set
    train, test = load_datasets(preset, cfg)
    if axis == "base-classes":
        runs = _base_class_runs(preset, values, int(ablate_cfg.get("unseen", 6)),
                                train.classes())
    else:
        runs = [(value, _axis_preset(preset, axis, value), None, "all") for value in values]

    rows: list[dict] = []
    for value, run_preset, class_ids, metric in runs:
        run_train, run_test = train, test
        if class_ids is not None:
            run_train, run_test = train.of_classes(class_ids), test.of_classes(class_ids)
        split = build_split(run_preset, run_train)
        state = train_base(split.base.x, split.base.y, run_preset.backbone_config,
                           run_preset.base_train)
        plan = TrialPlan(trials=run_preset.trials, master_seed=run_preset.master_seed,
                         methods=run_preset.methods)
        report = run_trials(state, split, run_test, plan, run_preset.adaptation,
                            workers=workers)
        rows.extend(_ablate_row(report, method, metric, value)
                    for method in run_preset.methods)

    payload = {"axis": axis, "trials": preset.trials, "rows": rows}
    (staging / "ablate.json").write_text(canonical_json(payload))
    (staging / "ablate.txt").write_text(_render_ablate(axis, rows))


def _render_ablate(axis: str, rows: list[dict]) -> str:
    lines = [f"Sweep over {axis} (final-session macro-F1, mean +/- std)"]
    for row in rows:
        lines.append(f"  {str(row['value']):>16}  {row['method']:<12} "
                     f"{row['metric']:<12} {row['mean']:8.2f} +/- {row['std']:5.2f}  "
                     f"(n={len(row['per_trial'])})")
    return "\n".join(lines) + "\n"


def cmd_audit_inversion(cfg: dict, preset: ExperimentPreset, staging: Path) -> None:
    state, anchors = _load_state_and_anchors(cfg, need_anchors=True)
    if len(anchors) == 0:
        raise ConfigError("anchor store is empty; nothing to audit")
    replay = invert_set(state, anchors, preset.adaptation.inversion)
    mae = replay.feature_mae
    counts, edges = np.histogram(mae, bins=10)
    audit = {
        "count": len(replay),
        "iterations": preset.adaptation.inversion.iterations,
        "learning_rate": preset.adaptation.inversion.learning_rate,
        "min": float(mae.min()),
        "median": float(np.median(mae)),
        "max": float(mae.max()),
        "mean": float(mae.mean()),
        "histogram": {"edges": [float(e) for e in edges],
                      "counts": [int(c) for c in counts]},
        "per_anchor": [float(v) for v in mae],
        "labels": [int(c) for c in replay.labels],
        "sessions": [int(s) for s in replay.sessions],
    }
    (staging / "audit.json").write_text(canonical_json(audit))
    (staging / "audit.txt").write_text(_render_audit(audit))
    write_manifest_dataset(staging / "inverted", Dataset(replay.samples, replay.labels),
                           split="inverted", synthetic=True)


def _render_audit(audit: dict) -> str:
    lines = [
        f"Inverted {audit['count']} anchors "
        f"({audit['iterations']} iterations @ lr {audit['learning_rate']})",
        f"feature MAE: min {audit['min']:.6f}  median {audit['median']:.6f}  "
        f"mean {audit['mean']:.6f}  max {audit['max']:.6f}",
        "histogram:",
    ]
    edges = audit["histogram"]["edges"]
    counts = audit["histogram"]["counts"]
    top = max(max(counts), 1)
    for i, c in enumerate(counts):
        bar = "#" * int(round(40 * c / top))
        lines.append(f"  [{edges[i]:.4f}, {edges[i + 1]:.4f})  {c:4d} {bar}")
    return "\n".join(lines) + "\n"


def cmd_render_report(report_path, out: Path | None) -> None:
    payload = json.loads(Path(report_path).read_text())
    text = render_report(TrialReport.from_dict(payload))
    if out is None:
        sys.stdout.write(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text)


# ---------------------------------------------------------------------------
# staging / quarantine


def _run_staged(out_dir: Path, work) -> int:
    """Run ``work(staging_dir)``; move outputs into place only on success."""
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = out_dir / ".staging"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        work(staging)
    except Exception as err:  # partial outputs are quarantined, never published
        quarantine = out_dir / "quarantine"
        if quarantine.exists():
            shutil.rmtree(quarantine)
        staging.rename(quarantine)
        print(f"error: {err}", file=sys.stderr)
        return 1
    for item in sorted(staging.iterdir()):
        target = out_dir / item.name
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()
        item.rename(target)
    staging.rmdir()
    return 0


def _resolve_workers(flag: int | None) -> int:
    if flag is not None:
        value = int(flag)
    else:
        value = int(os.environ.get(WORKERS_ENV, "1"))
    if value < 1:
        raise ConfigError(f"worker count must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorinv",
        description="Few-shot class-incremental learning with anchor-guided "
                    "model inversion replay.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, workers: bool = False):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
        if workers:
            p.add_argument("--workers", type=int, default=None,
                           help=f"parallel trial workers (default: ${WORKERS_ENV} or 1)")

    common(sub.add_parser("train-base", help="train the base model, save "
                                             "checkpoint + anchor store"))
    common(sub.add_parser("run", help="multi-trial incremental evaluation"),
           workers=True)
    p = sub.add_parser("ablate", help="sweep one experiment axis")
    common(p, workers=True)
    p.add_argument("--axis", required=True, choices=ABLATE_AXES)
    common(sub.add_parser("audit-inversion", help="invert a stored anchor set "
                                                  "and report per-anchor error"))
    p = sub.add_parser("render-report", help="render a structured report")
    p.add_argument("report", help="path to a report.json")
    p.add_argument("--out", default=None, help="directory for report.txt "
                                               "(default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "render-report":
            cmd_render_report(args.report, None if args.out is None else Path(args.out))
            return 0
        workers = _resolve_workers(getattr(args, "workers", None))
        cfg = load_config(args.config)
        preset = resolve_preset(cfg)
        if args.seed is not None:
            preset = apply_seed(preset, args.seed)
    except (ConfigError, KeyError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    if args.command == "train-base":
        return _run_staged(out_dir, lambda s: cmd_train_base(cfg, preset, s))
    if args.command == "run":
        return _run_staged(out_dir, lambda s: cmd_run(cfg, preset, s, workers))
    if args.command == "ablate":
        return _run_staged(out_dir, lambda s: cmd_ablate(cfg, preset, args.axis, s, workers))
    if args.command == "audit-inversion":
        return _run_staged(out_dir, lambda s: cmd_audit_inversion(cfg, preset, s))
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
