"""Multi-trial evaluation: macro-F1 metrics, the paired trial protocol, and
the two-sided Wilcoxon signed-rank test.

Each trial clones the base model, samples fresh few-shot sets for every
incremental session, runs every configured method on those same draws
(paired design), and evaluates after each session on the test samples of all
classes seen so far.  Aggregation is order-independent, so trials can run in
a process pool without affecting the report.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .adaptation import (METHODS, AdaptationConfig, Method, base_anchor_memory, run_fscil,
                         sample_base_replay_store)
from .anchors import AnchorSet, check_anchor_counts
from .data import Dataset, SessionSplit
from .model import ModelState, check_count, check_integer, predict_batch, train_base
from .presets import ExperimentPreset, build_split
from .seeds import derive_seed, make_rng
from .serialization import read_json

__all__ = [
    "macro_f1",
    "per_class_f1",
    "wilcoxon_signed_rank",
    "TrialPlan",
    "TrialReport",
    "sample_trial_sets",
    "run_trials",
    "summarize",
    "render_report",
    "SWEEP_AXES",
    "sweep",
    "render_sweep",
]

_TRIAL_STREAM = 0x7A1A
_SAMPLE_STREAM = 0x5A
# width of one report cell: len(f"{mean:8.2f} +/- {std:5.2f}")
_CELL = 18
SWEEP_AXES = ("base-classes", "shots", "anchors", "strategy")


# ---------------------------------------------------------------------------
# metrics


def per_class_f1(predictions: np.ndarray, labels: np.ndarray,
                 class_ids: Sequence[int]) -> dict[int, float]:
    """F1 per class from the full confusion counts; a class with no
    predictions and no positives scores 0."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    out: dict[int, float] = {}
    for c in class_ids:
        tp = float(np.sum((predictions == c) & (labels == c)))
        fp = float(np.sum((predictions == c) & (labels != c)))
        fn = float(np.sum((predictions != c) & (labels == c)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        denom = precision + recall
        out[c] = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return out


def macro_f1(predictions: np.ndarray, labels: np.ndarray,
             class_subset: Sequence[int]) -> float:
    """Unweighted mean of per-class F1 over ``class_subset``, as a percentage."""
    subset = sorted(int(c) for c in class_subset)
    if not subset:
        raise ValueError("empty class subset")
    f1s = per_class_f1(predictions, labels, subset)
    return 100.0 * float(np.mean([f1s[c] for c in subset]))


def summarize(values: Sequence[float]) -> tuple[float, float]:
    """(mean, population std) in double precision."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize zero values")
    return float(arr.mean()), float(arr.std(ddof=0))


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_two_sided_p(double_ranks: np.ndarray, w_plus_doubled: int) -> float:
    """Exact null distribution of W+ by the shift-add recurrence.

    Ranks arrive doubled so tied (half-integer) average ranks stay integral.
    counts[s] = number of sign assignments with doubled W+ equal to s; each
    rank contributes either 0 or its value.
    """
    total = int(double_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in double_ranks:
        r = int(r)
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:counts.size - r]
        counts = counts + shifted
    n = double_ranks.size
    w_lo = min(w_plus_doubled, total - w_plus_doubled)
    cdf = counts[:w_lo + 1].sum() / (2.0 ** n)
    return min(1.0, 2.0 * cdf)


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided signed-rank p-value for paired samples.

    Zero differences are dropped (all-zero input returns 1.0 by convention);
    ties get average ranks.  Exact distribution for up to 25 nonzero
    differences, normal approximation with tie correction beyond that.
    """
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return 1.0
    if n < 5:
        raise ValueError(f"need >= 5 nonzero differences, got {n}")
    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())

    if n <= 25:
        double_ranks = np.rint(2.0 * ranks).astype(np.int64)
        return _exact_two_sided_p(double_ranks, int(round(2.0 * w_plus)))

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(diff), return_counts=True)
    var -= float(((tie_counts ** 3 - tie_counts) / 48.0).sum())
    z = (w_plus - mean) / math.sqrt(var)
    return float(min(1.0, math.erfc(abs(z) / math.sqrt(2.0))))


# ---------------------------------------------------------------------------
# trial protocol


@dataclass(frozen=True)
class TrialPlan:
    trials: int
    master_seed: int
    methods: tuple[Method, ...]

    def __post_init__(self):
        check_count("trials", self.trials, 1)
        check_integer("master_seed", self.master_seed)  # any sign, as in ExperimentPreset
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise KeyError(f"unknown methods {unknown}; valid methods: {list(METHODS)}")
        if not self.methods:
            raise ValueError("need at least one method")


def sample_trial_sets(split: SessionSplit, trial_seed: int) -> list[Dataset]:
    """Draw each session's few-shot set from its pool (without replacement),
    deterministically in ``trial_seed``."""
    out = []
    for spec, pool in zip(split.pool_specs, split.pools):
        rng = make_rng(trial_seed, _SAMPLE_STREAM, spec.index)
        parts = []
        for c in spec.class_ids:
            idx = np.flatnonzero(pool.y == c)
            if idx.size < spec.shot:
                raise ValueError(f"session {spec.index} class {c}: pool has {idx.size} "
                                 f"samples < shot {spec.shot}")
            chosen = rng.choice(idx.size, size=spec.shot, replace=False)
            parts.append(idx[np.sort(chosen)])
        out.append(pool.subset(np.concatenate(parts)))
    return out


@dataclass
class TrialReport:
    """Per-trial macro-F1 scores plus paired significance tests.

    ``scores[method][metric][s][m]`` is the metric after incremental session
    ``s+1`` in trial ``m``; metric is one of "all", "base", "incremental".
    ``base_session`` holds the single pre-adaptation evaluation.
    """

    methods: list[Method]
    trials: int
    master_seed: int
    num_sessions: int
    base_classes: list[int]
    session_classes: list[list[int]]
    base_session: dict[str, float]
    scores: dict[str, dict[str, list[list[float | None]]]]
    p_values: dict[str, list[float | None]]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload) -> "TrialReport":
        """The report whose ``to_dict`` is ``payload``; ValueError unless
        ``read_json`` reads it, or naming the first field that does not agree
        in shape with ``methods``, ``trials`` and ``num_sessions``."""
        report = read_json(payload, cls, ValueError, "report")
        sessions, trials = report.num_sessions, report.trials
        if not report.methods:
            raise ValueError("report field 'methods' must name at least one method")
        if len(report.session_classes) != sessions:
            raise ValueError(f"report field 'session_classes' must have num_sessions = "
                             f"{sessions} items, got {len(report.session_classes)}")
        if not {"all", "base"} <= set(report.base_session):
            raise ValueError(f"report field 'base_session' must have the keys 'all' and "
                             f"'base', got {sorted(report.base_session)}")
        for method in report.methods:
            metrics = report.scores.get(method, {})
            if set(metrics) != {"all", "base", "incremental"}:
                raise ValueError(f"report field 'scores' must give method '{method}' exactly "
                                 f"'all', 'base' and 'incremental', got {sorted(metrics)}")
            for metric, rows in metrics.items():
                if len(rows) != sessions or any(len(row) != trials for row in rows):
                    raise ValueError(f"report field 'scores' must give '{method}' '{metric}' "
                                     f"num_sessions = {sessions} rows of trials = {trials} "
                                     f"values, got row lengths {[len(r) for r in rows]}")
        for pair, per_session in report.p_values.items():
            if len(per_session) != sessions:
                raise ValueError(f"report field 'p_values' must give '{pair}' num_sessions = "
                                 f"{sessions} items, got {len(per_session)}")
        pairs = [f"{a}|{b}" for a, b in itertools.combinations(report.methods, 2)]
        for field, keys in (("scores", report.methods), ("p_values", pairs)):
            if sorted(getattr(report, field)) != sorted(keys):
                raise ValueError(f"report field '{field}' must have exactly the keys {keys}, "
                                 f"got {sorted(getattr(report, field))}")
        return report


def _evaluate_session(state: ModelState, test: Dataset, seen: list[int],
                      base_ids: list[int]) -> dict[str, float | None]:
    subset = test.of_classes(seen)
    preds = predict_batch(state, subset.x)
    incr = [c for c in seen if c not in set(base_ids)]
    return {
        "all": macro_f1(preds, subset.y, seen),
        "base": macro_f1(preds, subset.y, base_ids),
        "incremental": macro_f1(preds, subset.y, incr) if incr else None,
    }


def _run_one_trial(base_state: ModelState, base_anchors: AnchorSet | None,
                   base_store: Dataset | None, split: SessionSplit, test: Dataset,
                   methods: Sequence[str], config: AdaptationConfig,
                   trial_seed: int) -> dict[str, list[dict[str, float | None]]]:
    few_shots = sample_trial_sets(split, trial_seed)
    base_ids = list(split.base_spec.class_ids)
    out: dict[str, list[dict[str, float | None]]] = {}
    for method in methods:
        chain = run_fscil(None, few_shots, method, config,
                          base_state=base_state.clone(),
                          base_anchors=base_anchors,
                          base_replay_store=base_store,
                          seed=trial_seed)
        rows = []
        for t in range(1, len(chain)):
            seen = split.classes_through(t)
            rows.append(_evaluate_session(chain[t], test, seen, base_ids))
        out[method] = rows
    return out


def run_trials(base_state: ModelState, split: SessionSplit, test: Dataset,
               plan: TrialPlan, config: AdaptationConfig,
               base_anchors: AnchorSet | None = None,
               workers: int = 1) -> TrialReport:
    """Paired multi-trial evaluation of every configured method.

    The per-trial seed depends only on (master seed, trial index), never on
    the method, so all methods see identical few-shot draws and identical
    inversion initializations — the pairing the signed-rank test assumes.
    """
    base_ids = list(split.base_spec.class_ids)
    num_sessions = len(split.pools)
    if base_anchors is None and "anchorinv" in plan.methods:
        base_anchors = base_anchor_memory(base_state, split.base, config)
    replay_store = None
    if "realreplay" in plan.methods:
        replay_store = sample_base_replay_store(split.base, config.real_per_class,
                                                plan.master_seed)

    base_eval = _evaluate_session(base_state, test, base_ids, base_ids)
    trial_seeds = [derive_seed(plan.master_seed, _TRIAL_STREAM, m)
                   for m in range(plan.trials)]
    run_one = functools.partial(_run_one_trial, base_state, base_anchors,
                                replay_store, split, test, plan.methods, config)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, trial_seeds))
    else:
        results = list(map(run_one, trial_seeds))

    # scores[method][metric][s][m]; _evaluate_session's values are floats or None
    scores: dict[str, dict[str, list[list[float | None]]]] = {
        method: {metric: [[trial[method][s][metric] for trial in results]
                          for s in range(num_sessions)]
                 for metric in ("all", "base", "incremental")}
        for method in plan.methods
    }

    p_values: dict[str, list[float | None]] = {}
    for a, b in itertools.combinations(plan.methods, 2):
        per_session: list[float | None] = []
        for xs, ys in zip(scores[a]["all"], scores[b]["all"]):
            try:
                per_session.append(wilcoxon_signed_rank(xs, ys))
            except ValueError:
                per_session.append(None)
        p_values[f"{a}|{b}"] = per_session

    return TrialReport(
        methods=list(plan.methods),
        trials=plan.trials,
        master_seed=plan.master_seed,
        num_sessions=num_sessions,
        base_classes=base_ids,
        session_classes=[list(spec.class_ids) for spec in split.pool_specs],
        base_session={"all": base_eval["all"], "base": base_eval["base"]},
        scores=scores,
        p_values=p_values,
    )


def _sweep_points(preset: ExperimentPreset, axis: str, values: Sequence, unseen: int,
                  all_ids: list[int]) -> list[tuple]:
    """(value, preset, class ids or None for all, metric) per value, checked up front."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis '{axis}'; valid: {list(SWEEP_AXES)}")
    if axis == "base-classes" and not 1 <= unseen < len(all_ids):
        raise ValueError(f"unseen={unseen} out of range for {len(all_ids)} classes")
    eval_ids, points = all_ids[-unseen:], []
    for value in values:
        if axis == "base-classes":
            check_count("base-class count", value, 1)
            base_ids = all_ids[:value]
            if len(base_ids) != value or set(base_ids) & set(eval_ids):
                raise ValueError(f"base-class count {value} collides with the "
                                 f"{unseen} held-out classes")
            points.append((value, replace(preset, base_classes=tuple(base_ids), way=unseen,
                                      methods=("protonet",)),
                           base_ids + eval_ids, "incremental"))
            continue
        adaptation = preset.adaptation
        if axis == "anchors":
            adaptation = replace(adaptation, anchors_per_class=value)
        elif axis == "strategy":
            spec = value if isinstance(value, dict) else {"name": value}
            if "name" not in spec or not set(spec) <= {"name", "fraction"}:
                raise ValueError(f"strategy axis value {value!r} needs a 'name' key "
                                 f"and takes only 'name' and 'fraction'")
            fraction = read_json(spec.get("fraction", adaptation.anchor_fraction), float,
                                 ValueError, f"strategy axis value {value!r}")
            adaptation = replace(adaptation, anchor_strategy=spec["name"],
                                 anchor_fraction=fraction)
        shot = value if axis == "shots" else preset.shot
        points.append((value, replace(preset, shot=shot, adaptation=adaptation), None, "all"))
    return points


def sweep(preset: ExperimentPreset, train: Dataset, test: Dataset, axis: str,
          values: Sequence, unseen: int = 6, workers: int = 1) -> list[dict]:
    """Run ``preset``'s trials at each value of one of ``SWEEP_AXES``: one row
    per value and method, on the final session.  ``base-classes`` value B
    trains on the first B classes and scores protonet on the last ``unseen``;
    the other axes score every method on all classes.  Only that axis changes
    base training, so each distinct base-class set is trained once.
    """
    points = _sweep_points(preset, axis, values, unseen, train.classes())

    def split_of(run_preset: ExperimentPreset, class_ids) -> SessionSplit:
        run_train = train if class_ids is None else train.of_classes(class_ids)
        return build_split(run_preset, run_train)

    # every value's split and base anchor counts, before any training
    for _, run_preset, class_ids, _ in points:
        base_labels = split_of(run_preset, class_ids).base.y
        if "anchorinv" in run_preset.methods:
            adaptation = run_preset.adaptation
            check_anchor_counts(base_labels, adaptation.anchor_strategy,
                                adaptation.anchors_per_class, adaptation.anchor_fraction)
    states: dict[tuple[int, ...], ModelState] = {}
    rows: list[dict] = []
    for value, run_preset, class_ids, metric in points:
        split = split_of(run_preset, class_ids)
        run_test = test if class_ids is None else test.of_classes(class_ids)
        key = split.base_spec.class_ids
        if key not in states:
            states[key] = train_base(split.base.x, split.base.y,
                                     run_preset.backbone_config, run_preset.base_train)
        plan = TrialPlan(trials=run_preset.trials, master_seed=run_preset.master_seed,
                         methods=run_preset.methods)
        report = run_trials(states[key], split, run_test, plan, run_preset.adaptation,
                            workers=workers)
        for method in run_preset.methods:
            per_trial = [v for v in report.scores[method][metric][-1] if v is not None]
            mean, std = summarize(per_trial)
            rows.append({"value": value, "method": method, "metric": metric,
                         "mean": mean, "std": std, "per_trial": per_trial})
    return rows


# ---------------------------------------------------------------------------
# rendering


def render_report(report: TrialReport) -> str:
    """Text table: one block per metric, methods as rows, sessions as columns."""
    lines: list[str] = []
    header_sessions = [f"Session {s}" for s in range(1, report.num_sessions + 1)]
    lines.append(f"Trials: {report.trials}   master seed: {report.master_seed}")
    lines.append(f"Base classes: {report.base_classes}   "
                 f"incremental sessions: {report.session_classes}")
    lines.append(f"Base session macro-F1 (all): {report.base_session['all']:.2f}")
    for metric in ("all", "base", "incremental"):
        lines.append("")
        lines.append(f"Macro-F1 ({metric} classes), mean +/- std over trials")
        width = max(len(m) for m in report.methods) + 2
        lines.append(" " * width + " | ".join(f"{h:>{_CELL}}" for h in header_sessions))
        for method in report.methods:
            cells = []
            for s in range(report.num_sessions):
                values = [v for v in report.scores[method][metric][s] if v is not None]
                if not values:
                    cells.append(f"{'-':>{_CELL}}")
                else:
                    mean, std = summarize(values)
                    cells.append(f"{mean:8.2f} +/- {std:5.2f}".rjust(_CELL))
            lines.append(method.ljust(width) + " | ".join(cells))
    if report.p_values:
        lines.append("")
        lines.append("Two-sided Wilcoxon signed-rank p-values (all-classes scores)")
        for key, per_session in sorted(report.p_values.items()):
            cells = ["      -" if p is None else f"{p:7.4f}" for p in per_session]
            lines.append(f"  {key}: " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def render_sweep(axis: str, rows: list[dict]) -> str:
    """Text table of ``sweep``'s rows, one line per row."""
    lines = [f"Sweep over {axis} (final-session macro-F1, mean +/- std)"]
    for row in rows:
        lines.append(f"  {str(row['value']):>16}  {row['method']:<12} "
                     f"{row['metric']:<12} {row['mean']:8.2f} +/- {row['std']:5.2f}  "
                     f"(n={len(row['per_trial'])})")
    return "\n".join(lines) + "\n"
