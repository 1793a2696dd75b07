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
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from typing import Literal, NamedTuple

import numpy as np

from .adaptation import base_anchor_memory
from .anchors import check_anchor_counts, load_anchor_set, save_anchor_set
from .data import Dataset
from .evaluation import (SWEEP_AXES as ABLATE_AXES, TrialPlan, TrialReport, render_report,
                         render_sweep, run_trials, sweep)
from .inversion import invert_set
from .model import accuracy, check_count, train_base
from .presets import (EXPERIMENT_PRESETS, ConfigError, ExperimentPreset, build_split,
                      get_preset, materialize_synth, with_synth_classes)
from .serialization import (canonical_json, load_checkpoint, load_json, read_json,
                            read_manifest_dataset, save_checkpoint, write_manifest_dataset)

__all__ = [
    "ConfigError",
    "load_config",
    "resolve_preset",
    "apply_seed",
    "main",
]

WORKERS_ENV = "ANCHORINV_WORKERS"

# top-level keys that set a preset field, and the field each sets
_PRESET_KEYS = {"trials": "trials", "seed": "master_seed", "way": "way", "shot": "shot",
                "base_classes": "base_classes", "methods": "methods"}


class _Manifests(NamedTuple):  # a config's manifest section
    train: str
    test: str


# the type of each top-level key that does not override a preset field; the
# keys of the synth section are read by with_synth_classes
_INPUT_KEYS = {"preset": Literal[tuple(EXPERIMENT_PRESETS)], "checkpoint": str, "anchors": str,
               "manifest": _Manifests, "ablate": dict, "synth": dict}
_TOP_KEYS = {*_PRESET_KEYS, *_INPUT_KEYS, "base_train", "finetune", "inversion", "adaptation"}


# ---------------------------------------------------------------------------
# config loading


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file '{path}' does not exist")
    where = f"config '{path}'"
    cfg = read_json(load_json(path, ConfigError, where), dict, ConfigError, where)
    unknown = sorted(set(cfg) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config missing required key '{key}'")
    return cfg[key]


def resolve_preset(cfg: dict) -> ExperimentPreset:
    """Build the effective preset: named preset + config overrides.  Every
    section and top-level value is read by ``read_json`` against the
    annotation of what it sets, the ``checkpoint``, ``anchors``, ``manifest``
    and ``ablate`` keys too, before any command runs."""
    for key, hint in _INPUT_KEYS.items():
        if key in cfg:
            read_json(cfg[key], hint, ConfigError, f"'{key}' config")
    unknown = sorted(set(cfg.get("ablate", {})) - {*ABLATE_AXES, "unseen"})
    if unknown:
        raise ConfigError(f"bad 'ablate' config: unknown keys {unknown}")
    preset = get_preset(_require(cfg, "preset"))

    def section(key: str, obj):
        """``obj`` with the overrides of config section ``key``."""
        return read_json(cfg.get(key, {}), type(obj), ConfigError, f"'{key}' config", vars(obj))

    if "synth" in cfg:
        preset = with_synth_classes(preset, **cfg["synth"])
    adaptation = section("adaptation", preset.adaptation)
    nested = sorted({"finetune", "inversion"} & set(cfg.get("adaptation", {})))
    if nested:
        raise ConfigError(f"bad 'adaptation' config: unknown keys {nested} "
                          f"(finetune and inversion have their own sections)")
    adaptation = replace(adaptation, finetune=section("finetune", adaptation.finetune),
                         inversion=section("inversion", adaptation.inversion))
    preset = replace(preset, base_train=section("base_train", preset.base_train),
                     adaptation=adaptation)
    for key, field in _PRESET_KEYS.items():
        if key in cfg:
            preset = read_json({field: cfg[key]}, ExperimentPreset, ConfigError,
                               f"'{key}' config", vars(preset))
    return preset


def apply_seed(preset: ExperimentPreset, seed: int) -> ExperimentPreset:
    """Point every seeded component at one global seed."""
    return replace(
        preset,
        master_seed=seed,
        base_train=replace(preset.base_train, seed=seed),
        adaptation=replace(preset.adaptation,
                           inversion=replace(preset.adaptation.inversion, seed=seed)),
    )


def load_datasets(preset: ExperimentPreset, cfg: dict) -> tuple[Dataset, Dataset]:
    if "manifest" in cfg:
        return tuple(read_manifest_dataset(cfg["manifest"][key]) for key in ("train", "test"))
    return materialize_synth(preset)


# ---------------------------------------------------------------------------
# commands (each writes only into the staging directory it is handed)


def cmd_train_base(cfg: dict, preset: ExperimentPreset, staging: Path) -> None:
    train, _ = load_datasets(preset, cfg)
    split = build_split(preset, train)
    adaptation = preset.adaptation
    check_anchor_counts(split.base.y, adaptation.anchor_strategy, adaptation.anchors_per_class,
                        adaptation.anchor_fraction)
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
    plan = TrialPlan(trials=preset.trials, master_seed=preset.master_seed,
                     methods=preset.methods)
    report = run_trials(state, split, test, plan, preset.adaptation,
                        base_anchors=anchors, workers=workers)
    (staging / "report.json").write_text(canonical_json(report.to_dict()))
    (staging / "report.txt").write_text(render_report(report))


def cmd_ablate(cfg: dict, preset: ExperimentPreset, axis: str, staging: Path,
               workers: int) -> None:
    ablate_cfg = _require(cfg, "ablate")
    if axis not in ablate_cfg:
        raise ConfigError(f"config missing required key 'ablate.{axis}'")
    values = read_json(ablate_cfg[axis], list, ConfigError, f"'ablate.{axis}' config")
    if not values:
        raise ConfigError(f"'ablate.{axis}' must be a nonempty list of axis values")
    unseen = ablate_cfg.get("unseen", 6)
    try:
        check_count("unseen", unseen, 1)
    except ValueError as err:
        raise ConfigError(f"bad 'ablate' config: {err}") from None

    # no axis changes the synthetic spec, so every run shares one data set
    train, test = load_datasets(preset, cfg)
    rows = sweep(preset, train, test, axis, values, unseen=unseen, workers=workers)
    payload = {"axis": axis, "trials": preset.trials, "rows": rows}
    (staging / "ablate.json").write_text(canonical_json(payload))
    (staging / "ablate.txt").write_text(render_sweep(axis, rows))


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
    payload = load_json(report_path, ValueError, f"report {report_path}")
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
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
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
