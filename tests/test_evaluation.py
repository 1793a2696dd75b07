"""Tests for macro-F1, the signed-rank test, and the paired trial protocol.

The signed-rank p-value is checked against a brute-force enumeration of all
sign assignments; F1 values against hand-built confusion counts; the trial
protocol against determinism, pairing, and worker-count invariance.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest

from anchorinv import evaluation
from anchorinv.adaptation import AdaptationConfig, FinetuneConfig
from anchorinv.data import Dataset, split_sessions
from anchorinv.evaluation import (TrialPlan, TrialReport, macro_f1, per_class_f1,
                                  render_report, run_trials, sample_trial_sets,
                                  summarize, sweep, wilcoxon_signed_rank)
from anchorinv.inversion import InversionConfig
from anchorinv.model import ModelState
from anchorinv.presets import get_preset
from oracles import IdentityBackbone, random_chance_f1


# ---------------------------------------------------------------------------
# F1 metrics


def test_per_class_f1_hand_confusion():
    # class 0: TP=3, FN=2, FP=1 -> precision 3/4, recall 3/5, f1 = 2/3
    labels = np.array([0, 0, 0, 0, 0, 1])
    preds = np.array([0, 0, 0, 1, 1, 0])
    f1s = per_class_f1(preds, labels, [0, 1])
    assert f1s[0] == pytest.approx(2.0 / 3.0)
    # class 1: TP=0 -> f1 is 0 by convention
    assert f1s[1] == 0.0
    assert macro_f1(preds, labels, [0, 1]) == pytest.approx(100.0 / 3.0)


def test_macro_f1_perfect_and_absent_class():
    labels = np.array([0, 1, 1, 2])
    preds = labels.copy()
    assert macro_f1(preds, labels, [0, 1, 2]) == 100.0
    # a class with no samples and no predictions contributes zero
    assert macro_f1(preds, labels, [0, 1, 2, 7]) == pytest.approx(75.0)


def test_macro_f1_validation():
    with pytest.raises(ValueError):
        macro_f1(np.zeros(3), np.zeros(2), [0])
    with pytest.raises(ValueError):
        macro_f1(np.zeros(3), np.zeros(3), [])


def test_random_chance_f1_values():
    assert random_chance_f1(10) == pytest.approx(10.0)
    assert random_chance_f1(14) == pytest.approx(100.0 / 14.0)
    assert random_chance_f1(16) == pytest.approx(6.25)
    with pytest.raises(ValueError):
        random_chance_f1(0)


def test_random_chance_f1_matches_simulation():
    rng = np.random.default_rng(150)
    k, n = 4, 40000
    labels = rng.integers(0, k, size=n)
    preds = rng.integers(0, k, size=n)
    got = macro_f1(preds, labels, list(range(k)))
    assert got == pytest.approx(random_chance_f1(k), abs=1.0)


def test_summarize_two_pass_oracle():
    rng = np.random.default_rng(151)
    values = rng.standard_normal(17) * 3 + 50
    mean, std = summarize(values)
    assert mean == pytest.approx(sum(values) / 17, rel=1e-12)
    assert std == pytest.approx(math.sqrt(sum((v - mean) ** 2 for v in values) / 17),
                                rel=1e-12)
    with pytest.raises(ValueError):
        summarize([])


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank


def test_wilcoxon_five_positive_differences():
    # all five differences positive: the most extreme table, p = 2/2^5
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [0.0, 0.0, 0.0, 0.0, 0.0]
    assert wilcoxon_signed_rank(a, b) == pytest.approx(0.0625)
    assert wilcoxon_signed_rank(b, a) == pytest.approx(0.0625)


def test_wilcoxon_zero_and_small_inputs():
    assert wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1, 2, 3, 4], [0, 0, 0, 0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1, 2], [0])


def _enumerate_two_sided_p(diff):
    """All 2^n sign assignments of the observed |differences|."""
    diff = np.asarray(diff, dtype=np.float64)
    diff = diff[diff != 0.0]
    n = diff.size
    mags = np.abs(diff)
    order = np.argsort(mags, kind="stable")
    ranks = np.empty(n)
    i = 0
    sorted_mags = mags[order]
    while i < n:
        j = i
        while j + 1 < n and sorted_mags[j + 1] == sorted_mags[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_obs = ranks[diff > 0].sum()
    total = ranks.sum()
    w_lo = min(w_obs, total - w_obs)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if min(w, total - w) <= w_lo + 1e-9:
            count += 1
    return min(1.0, count / 2.0 ** n)


def test_wilcoxon_matches_enumeration():
    rng = np.random.default_rng(152)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(5, 12))
        # integer draws half the time -> frequent ties in |difference|
        if rng.random() < 0.5:
            diff = rng.integers(-4, 5, size=n).astype(np.float64)
        else:
            diff = rng.standard_normal(n)
        if (diff != 0).sum() < 5:
            continue
        # pass the differences directly so the tie pattern survives
        # floating-point subtraction exactly
        got = wilcoxon_signed_rank(diff, np.zeros(n))
        want = _enumerate_two_sided_p(diff)
        assert got == pytest.approx(want, rel=1e-9), f"diff={diff}"
        checked += 1
    assert checked >= 40


def test_wilcoxon_large_sample_normal_path():
    rng = np.random.default_rng(153)
    n = 40  # beyond the exact-enumeration cutoff
    base = rng.standard_normal(n)
    weak = base + rng.standard_normal(n) * 0.2 + 0.05
    strong = base + rng.standard_normal(n) * 0.2 + 0.6
    p_weak = wilcoxon_signed_rank(weak, base)
    p_strong = wilcoxon_signed_rank(strong, base)
    assert 0.0 <= p_strong < p_weak <= 1.0
    assert p_strong < 1e-4


def test_wilcoxon_large_sample_tie_corrected_formula():
    # discrete values force ties; replicate the tie-corrected z transcription
    rng = np.random.default_rng(154)
    a = rng.integers(0, 4, size=48).astype(np.float64)
    b = rng.integers(0, 4, size=48).astype(np.float64)
    diff = a - b
    diff = diff[diff != 0]
    n = diff.size
    assert n > 25
    mags = np.abs(diff)
    order = np.argsort(mags, kind="stable")
    ranks = np.empty(n)
    i = 0
    sm = mags[order]
    while i < n:
        j = i
        while j + 1 < n and sm[j + 1] == sm[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_plus = ranks[diff > 0].sum()
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(mags, return_counts=True)
    var -= ((counts.astype(np.float64) ** 3 - counts) / 48.0).sum()
    z = (w_plus - mean) / math.sqrt(var)
    expect = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    assert wilcoxon_signed_rank(a, b) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# trial protocol fixtures


def _four_direction_data(rng, per_class):
    angles = {0: 0.0, 1: np.pi / 2, 2: np.pi, 3: -np.pi / 2}
    xs, ys = [], []
    for c, a0 in angles.items():
        a = a0 + 0.3 * rng.standard_normal(per_class)
        xs.append(np.stack([np.cos(a), np.sin(a)], axis=1).reshape(per_class, 1, 2))
        ys.extend([c] * per_class)
    return Dataset(np.concatenate(xs).astype(np.float32), np.asarray(ys))


def _base_state(train):
    state = ModelState(IdentityBackbone(1, 2))
    for c in (0, 1):
        idx = np.flatnonzero(train.y == c)
        state.register_class(c, train.x[idx].reshape(len(idx), 2).mean(axis=0))
    return state


def _tiny_adaptation():
    return AdaptationConfig(
        finetune=FinetuneConfig(learning_rate=1e-2, iterations=3),
        inversion=InversionConfig(iterations=5, seed=1),
        anchors_per_class=4, real_per_class=4)


# ---------------------------------------------------------------------------
# TrialPlan and sampling


def test_trial_plan_validation():
    TrialPlan(trials=1, master_seed=0, methods=("protonet",))
    with pytest.raises(ValueError):
        TrialPlan(trials=0, master_seed=0, methods=("protonet",))
    with pytest.raises(ValueError):
        TrialPlan(trials=1, master_seed=0, methods=())
    with pytest.raises(KeyError) as err:
        TrialPlan(trials=1, master_seed=0, methods=("protonet", "magic"))
    assert "magic" in str(err.value)
    assert "anchorinv" in str(err.value)


@pytest.mark.parametrize("field,value", [("trials", 2.5), ("trials", True), ("trials", "2"),
                                         ("master_seed", 1.5), ("master_seed", True),
                                         ("master_seed", "1"), ("master_seed", None)])
def test_trial_plan_refuses_what_is_not_an_integer(field, value):
    plan = dict(trials=1, master_seed=0, methods=("protonet",))
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrialPlan(**{**plan, field: value})
    # a seed of any sign, as a numpy integer too
    TrialPlan(**{**plan, "master_seed": -3})
    TrialPlan(**{**plan, "trials": np.int64(2), "master_seed": np.int64(7)})


def test_sample_trial_sets_counts_and_membership():
    rng = np.random.default_rng(155)
    train = _four_direction_data(rng, per_class=12)
    split = split_sessions(train, base_classes=(0, 1), way=1, shot=3)
    sets = sample_trial_sets(split, trial_seed=77)
    assert len(sets) == 2
    for few, spec, pool in zip(sets, split.pool_specs, split.pools):
        assert len(few) == len(spec.class_ids) * spec.shot
        for c in spec.class_ids:
            assert int(np.sum(few.y == c)) == spec.shot
        for i in range(len(few)):
            assert any(np.array_equal(few.x[i], px) for px in pool.x)


def test_sample_trial_sets_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(156)
    train = _four_direction_data(rng, per_class=12)
    split = split_sessions(train, base_classes=(0, 1), way=1, shot=4)
    a = sample_trial_sets(split, trial_seed=5)
    b = sample_trial_sets(split, trial_seed=5)
    c = sample_trial_sets(split, trial_seed=6)
    assert all(x.x.tobytes() == y.x.tobytes() for x, y in zip(a, b))
    assert any(x.x.tobytes() != y.x.tobytes() for x, y in zip(a, c))


def test_sample_trial_sets_pool_too_small():
    rng = np.random.default_rng(157)
    train = _four_direction_data(rng, per_class=6)
    split = split_sessions(train, base_classes=(0, 1), way=1, shot=5)
    split.pools[0] = split.pools[0].subset(np.arange(4))  # starve one pool
    with pytest.raises(ValueError):
        sample_trial_sets(split, trial_seed=1)


# ---------------------------------------------------------------------------
# run_trials


def _run_small(workers=1, trials=6, methods=("protonet", "finetune")):
    rng = np.random.default_rng(158)
    train = _four_direction_data(rng, per_class=12)
    test = _four_direction_data(np.random.default_rng(159), per_class=8)
    split = split_sessions(train, base_classes=(0, 1), way=1, shot=5)
    state = _base_state(split.base)
    plan = TrialPlan(trials=trials, master_seed=9, methods=tuple(methods))
    return run_trials(state, split, test, plan, _tiny_adaptation(), workers=workers)


def test_run_trials_report_shape():
    report = _run_small()
    assert report.methods == ["protonet", "finetune"]
    assert report.num_sessions == 2
    assert report.base_classes == [0, 1]
    assert report.session_classes == [[2], [3]]
    assert set(report.base_session) == {"all", "base"}
    for method in report.methods:
        for metric in ("all", "base", "incremental"):
            rows = report.scores[method][metric]
            assert len(rows) == 2
            assert all(len(r) == 6 for r in rows)
    assert list(report.p_values) == ["protonet|finetune"]
    assert len(report.p_values["protonet|finetune"]) == 2


def test_run_trials_deterministic():
    a = _run_small()
    b = _run_small()
    assert a.to_dict() == b.to_dict()


def test_run_trials_worker_invariance():
    a = _run_small(workers=1, trials=4)
    b = _run_small(workers=2, trials=4)
    assert a.to_dict() == b.to_dict()


def test_run_trials_anchor_methods_cover_memory():
    report = _run_small(trials=5, methods=("anchorinv", "realreplay"))
    for method in ("anchorinv", "realreplay"):
        for row in report.scores[method]["all"]:
            assert all(np.isfinite(v) for v in row)
    # paired design: every method saw the same sampled sessions, so the
    # protonet-free report still recorded per-session incremental scores
    incr = report.scores["anchorinv"]["incremental"]
    assert all(v is not None for v in incr[0])


def test_trial_report_round_trip():
    report = _run_small(trials=5)
    payload = json.loads(json.dumps(report.to_dict()))
    again = TrialReport.from_dict(payload)
    assert again.to_dict() == report.to_dict()
    assert summarize(again.scores["finetune"]["all"][0]) \
        == summarize(report.scores["finetune"]["all"][0])
    missing = {k: v for k, v in payload.items() if k != "p_values"}
    for bad in (missing, dict(payload, extra=1)):
        with pytest.raises(ValueError, match="bad report: (missing|unknown) keys"):
            TrialReport.from_dict(bad)


def test_render_report_layout():
    report = _run_small(trials=5)
    text = render_report(report)
    assert "Trials: 5" in text
    assert "Session 1" in text and "Session 2" in text
    assert "protonet" in text and "finetune" in text
    assert "Macro-F1 (all classes)" in text
    assert "protonet|finetune" in text
    assert text.endswith("\n")


def test_render_report_keeps_both_std_decimals():
    # means 98.12 and 85.98 with population stds 1.20 and 12.50
    all_rows = [[96.92, 99.32], [73.48, 98.48]]
    report = TrialReport(
        methods=["anchorinv", "protonet"], trials=2, master_seed=1, num_sessions=2,
        base_classes=[0, 1], session_classes=[[2], [3]],
        base_session={"all": 99.0, "base": 99.0},
        scores={m: {"all": all_rows, "base": all_rows, "incremental": [[None, None]] * 2}
                for m in ("anchorinv", "protonet")},
        p_values={})
    lines = render_report(report).splitlines()
    assert sum("98.12 +/-  1.20" in line for line in lines) == 4
    assert sum("85.98 +/- 12.50" in line for line in lines) == 4
    # every header and row of a block is as wide as the block's widest line
    for start in (i for i, line in enumerate(lines) if line.startswith("Macro-F1")):
        block = lines[start + 1:start + 4]
        assert len({len(line) for line in block}) == 1, block


# ---------------------------------------------------------------------------
# sweep (tests/test_cli.py runs each axis through the ablate verb)


@pytest.mark.parametrize("axis, values, unseen, match", [
    ("base-classes", [2], 0, "unseen"), ("base-classes", [2], 4, "unseen"),
    ("base-classes", [2, 3], 2, "collides"), ("temperature", [1.0], 2, "axis"),
    ("strategy", [{"k": 2}], 2, "name"),
    # these two ids name the rule each value breaks
    pytest.param("strategy", [{"name": "closest", "fracton": 0.3}], 2,
                 re.escape("unknown keys ['fracton']"), id="strategy-values5-2-takes only"),
    pytest.param("strategy", ["random_sample", "best"], 2, "name must be one of",
                 id="strategy-values6-2-unknown strategy"),
    ("strategy", ["closest", {"name": "random_closest", "fraction": 0.0}], 2,
     "anchor_fraction")])
def test_sweep_rejects_bad_axis_values(axis, values, unseen, match, spy_engine):
    trainings = spy_engine("train_base", module=evaluation)
    data = _four_direction_data(np.random.default_rng(160), per_class=4)
    with pytest.raises(ValueError, match=match):
        sweep(get_preset("desk"), data, data, axis, values, unseen=unseen)
    assert trainings == []  # every value is checked before any training
