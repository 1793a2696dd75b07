"""Acceptance suite: one test per package-level guarantee, end to end.

Ordered from primitives to full pipeline: gradient soundness, classifier
arithmetic, inversion fidelity, the finetune freezing contract, the 20-trial
forgetting comparison, replay-quality proximity, chance-level oracles, the
base-class transfer trend, segmentation arithmetic, exact rank statistics,
and byte-identical report generation.  Wall-clock budgets are asserted where
a check is expected to stay cheap.
"""

import ast
import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import anchorinv.autodiff as ad
from anchorinv import (AnchorSet, InversionConfig, ModelState, Tensor, TrialPlan,
                       finetune_session, get_preset, invert_set, macro_f1, materialize_synth,
                       predict_batch, run_trials, sample_trial_sets, segment, sweep,
                       train_base, wilcoxon_signed_rank, with_synth_classes)
from anchorinv.model import scores_batch
from anchorinv.adaptation import base_anchor_memory
from anchorinv.cli import main
from anchorinv.presets import build_split
from anchorinv.serialization import file_sha256
from oracles import (IdentityBackbone, LinearBackbone, finite_difference_check,
                     random_chance_f1)

_ELAPSED: dict[str, float] = {}


def _t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def _sha(t: Tensor) -> str:
    return hashlib.sha256(t.data.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# shared desk-scale pipeline (built once; consumed by several tests below)


@pytest.fixture(scope="module")
def desk():
    preset = get_preset("desk")
    train, test = materialize_synth(preset)
    split = build_split(preset, train)
    state = train_base(split.base.x, split.base.y, preset.backbone_config,
                       preset.base_train)
    return preset, train, test, split, state


@pytest.fixture(scope="module")
def desk_report(desk):
    preset, _, test, split, state = desk
    plan = TrialPlan(trials=preset.trials, master_seed=preset.master_seed,
                     methods=preset.methods)
    t0 = time.monotonic()
    report = run_trials(state, split, test, plan, preset.adaptation, workers=1)
    _ELAPSED["trials"] = time.monotonic() - t0
    return report


# ---------------------------------------------------------------------------
# 1. reverse-mode gradients agree with central finite differences


def _graph_templates():
    """(covered-op-names, builder) pairs; builders return (fn, inputs).

    Inputs feeding kinked ops (relu, abs) are sampled away from zero so the
    central difference stays on one side of the kink.
    """

    def arith(rng):
        a = _t64(rng.uniform(-1.0, 1.0, (3, 4)))
        b = _t64(rng.uniform(-1.0, 1.0, (3, 4)))
        return lambda ts: ad.sub(ad.add(ad.mul(ts[0], ts[1]), ts[0]), ts[1]).sum(), [a, b]

    def scalars(rng):
        a = _t64(rng.uniform(-1.0, 1.0, (2, 5)))
        return lambda ts: ad.tensor_mean(ad.mul_scalar(
            ad.add_scalar(ad.neg(ad.mul_scalar(ts[0], 2.5)), 1.25), 1.0 / 2.0)), [a]

    def kinked_relu(rng):
        vals = rng.uniform(0.2, 1.0, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3))
        return lambda ts: ad.relu(ts[0]).sum(), [_t64(vals)]

    def exp_log(rng):
        a = _t64(rng.uniform(-1.0, 1.0, (3, 3)))
        return lambda ts: ad.log(ad.add_scalar(ad.exp(ts[0]), 0.5)).sum(), [a]

    def kinked_abs(rng):
        vals = rng.uniform(0.2, 1.0, (2, 6)) * rng.choice([-1.0, 1.0], (2, 6))
        return lambda ts: ad.tensor_mean(ad.absolute(ts[0])), [_t64(vals)]

    def linear_algebra(rng):
        a = _t64(rng.uniform(-1.0, 1.0, (3, 4)))
        b = _t64(rng.uniform(-1.0, 1.0, (6, 2)))
        return lambda ts: ad.transpose(ad.matmul(ts[0].reshape((2, 6)), ts[1])).sum(), [a, b]

    def rowwise(rng):
        x = _t64(rng.uniform(-1.0, 1.0, (4, 5)))
        v = _t64(rng.uniform(-1.0, 1.0, (5,)))
        return lambda ts: ad.l2_norm(ad.subtract_rowwise(ts[0], ts[1]).sum(axis=0)), [x, v]

    def conv(rng):
        x = _t64(rng.uniform(-1.0, 1.0, (2, 2, 3, 6)))
        w = _t64(rng.uniform(-0.5, 0.5, (3, 2, 2, 3)))
        b = _t64(rng.uniform(-0.2, 0.2, 3))
        return (lambda ts: ad.tensor_mean(ad.conv2d(ts[0], ts[1], ts[2], stride=(1, 2))),
                [x, w, b])

    def pool(rng):
        x = _t64(rng.uniform(-1.0, 1.0, (2, 3, 4, 6)))
        return lambda ts: ad.avg_pool2d(ts[0], kernel=(2, 3), stride=(2, 3)).sum(), [x]

    def softmax_pick(rng):
        logits = _t64(rng.uniform(-2.0, 2.0, (3, 5)))
        idx = rng.integers(0, 5, 3)
        return (lambda ts: ad.log(ad.take_per_row(
            ad.softmax_with_temperature(ts[0], 4.0), idx)).sum(),
            [logits])

    def cosine(rng):
        def rows(n):
            out = rng.uniform(-1.0, 1.0, (n, 4))
            while True:
                bad = np.linalg.norm(out, axis=1) < 0.5
                if not bad.any():
                    return out
                out[bad] = rng.uniform(-1.0, 1.0, (int(bad.sum()), 4))
        a, b = _t64(rows(3)), _t64(rows(2))
        return lambda ts: ad.cosine_similarity_matrix(ts[0], ts[1]).sum(), [a, b]

    def stacked(rng):
        parts = [_t64(rng.uniform(-1.0, 1.0, 4)) for _ in range(3)]
        return lambda ts: ad.l2_norm(ad.tensor_mean(ad.stack_rows(list(ts)), axis=1)), parts

    def negated_axis(rng):
        a = _t64(rng.uniform(-1.0, 1.0, (3, 4)))
        return lambda ts: ad.l2_norm(ad.neg(ts[0]).sum(axis=1)), [a]

    def conv_pool(rng):
        # resampled until no conv output sits near the ReLU's kink
        while True:
            x = rng.uniform(-1.0, 1.0, (2, 3, 9))
            w = rng.uniform(-0.5, 0.5, (2, 3, 3))
            b = rng.uniform(-0.2, 0.2, 2)
            z = w.reshape(2, 9) @ ad._im2col(x.reshape(2, 1, 3, 9), 3, 3, 1, 2) + b[:, None]
            if np.abs(z).min() > 0.05:
                break
        return lambda ts: ad.l2_norm(ad.conv_pool(ts[0], w, b, 2, 2, 1)), [_t64(x)]

    def composed_conv(rng):
        params = [_t64(rng.uniform(-0.5, 0.5, shape))
                  for shape in [(2, 1, 1, 3), (2,), (3, 2, 4, 1), (3,)]]
        x = _t64(rng.uniform(-1.0, 1.0, (2, 1, 4, 7)))

        def fn(ts):
            weight, bias = ad.compose_conv(*ts[1:])
            return ad.l2_norm(ad.conv2d(ts[0], weight.reshape((3, 1, 4, 3)), bias,
                                        stride=(1, 2)))
        return fn, [x] + params

    def cosine_nll(weighted):
        def build(rng):
            feats = _t64(rng.uniform(-1.0, 1.0, (4, 3)))
            rows = [_t64(rng.uniform(0.5, 1.0, 3) * rng.choice([-1.0, 1.0], 3))
                    for _ in range(3)]
            cols = rng.integers(0, 3, 4)
            w = rng.uniform(-1.0, 1.0, 4) if weighted else None
            return lambda ts: ad.cosine_nll(ts[0], ts[1:], cols, w, 2.0), [feats] + rows
        return build

    def scaled_l1(rng):
        a = rng.uniform(-1.0, 1.0, (3, 4))
        # the target sits away from a, off the kink of |a - target|
        gap = rng.uniform(0.2, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
        return lambda ts: ad.scaled_l1(ts[0], ts[1], 0.7), [_t64(a), _t64(a + gap)]

    return [
        ({"add", "sub", "mul", "sum"}, arith),
        ({"neg", "mul_scalar", "add_scalar", "mean"}, scalars),
        ({"relu", "sum"}, kinked_relu),
        ({"exp", "log", "add_scalar", "sum"}, exp_log),
        ({"absolute", "mean"}, kinked_abs),
        ({"reshape", "matmul", "transpose", "sum"}, linear_algebra),
        ({"subtract_rowwise", "sum_axis", "l2_norm"}, rowwise),
        ({"conv2d", "mean"}, conv),
        ({"avg_pool2d", "sum"}, pool),
        ({"softmax_with_temperature", "take_per_row", "log", "sum"}, softmax_pick),
        ({"cosine_similarity_matrix", "sum"}, cosine),
        ({"stack_rows", "mean_axis", "l2_norm"}, stacked),
        ({"neg", "sum_axis", "l2_norm"}, negated_axis),
        ({"conv_pool", "l2_norm"}, conv_pool),
        ({"compose_conv", "reshape", "conv2d", "l2_norm"}, composed_conv),
        ({"cosine_nll"}, cosine_nll(weighted=False)),
        ({"cosine_nll", "cosine_nll_weighted"}, cosine_nll(weighted=True)),
        ({"scaled_l1"}, scaled_l1),
    ]


def _node_kinds() -> set[str]:
    """Every op name ``autodiff.py`` passes to ``_node``, read from its source."""
    tree = ast.parse(Path(ad.__file__).read_text())
    calls = [c for c in ast.walk(tree)
             if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_node"]
    assert calls and all(isinstance(c.args[3], ast.Constant) for c in calls)
    return {c.args[3].value for c in calls}


def test_01_gradients_match_finite_differences_on_200_random_graphs(monkeypatch):
    """The graphs make a node of every kind the engine can make; the labels
    also name the forms one kind can take: ``sum`` and ``mean`` over an axis,
    ``cosine_nll`` with weights."""
    made: set[str] = set()
    real_node = ad._node

    def spy(data, parents, backward_fn, op):
        made.add(op)
        return real_node(data, parents, backward_fn, op)

    monkeypatch.setattr(ad, "_node", spy)
    t0 = time.monotonic()
    templates = _graph_templates()
    covered: set[str] = set()
    worst = 0.0
    for g in range(200):
        names, build = templates[g % len(templates)]
        fn, inputs = build(np.random.default_rng(1000 + g))
        err = finite_difference_check(fn, inputs)
        worst = max(worst, err)
        assert err <= 1e-4, f"graph {g} ({sorted(names)}): rel error {err:.3e}"
        covered |= names
    kinds = _node_kinds()
    assert made == kinds, made ^ kinds
    assert {"sum_axis", "mean_axis", "cosine_nll_weighted"} <= covered
    assert worst <= 1e-4
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. classifier arithmetic


def test_02_classifier_probabilities_scale_invariance_and_closed_form():
    rng = np.random.default_rng(41)
    state = ModelState(IdentityBackbone(1, 8))
    for c in range(5):
        state.register_class(c, rng.standard_normal(8).astype(np.float32))
    for h in rng.standard_normal((50, 8)):
        scores = scores_batch(state, h.reshape(1, 8))[0]
        assert abs(scores.sum() - 1.0) <= 1e-6
        label = predict_batch(state, h.reshape(1, 1, 8))[0]
        for scale in (0.05, 3.7, 120.0):
            assert predict_batch(state, scale * h.reshape(1, 1, 8))[0] == label

    # two registered classes, query aligned with the first and orthogonal to
    # the second: cosine similarities (1, 0), so p0 = 1 / (1 + exp(-1/T))
    two = ModelState(IdentityBackbone(1, 2))
    two.register_class(0, np.array([1.0, 0.0], dtype=np.float32))
    two.register_class(1, np.array([0.0, 1.0], dtype=np.float32))
    scores = scores_batch(two, np.array([[1.0, 0.0]]))[0]
    np.testing.assert_allclose(scores, [0.5156, 0.4844], atol=1e-4)


# ---------------------------------------------------------------------------
# 3. inversion fidelity against analytic oracles and the trained backbone


def _invert_one(state, target, cfg) -> float:
    """Final feature MAE of one inverted anchor."""
    anchors = AnchorSet(target.reshape(1, -1), np.zeros(1), np.zeros(1))
    return float(invert_set(state, anchors, cfg).feature_mae[0])


def test_03_inversion_fidelity_identity_linear_and_conv(desk):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)

    # identity backbone: the embedding space is the input space, so the
    # optimizer can drive the error to its oscillation floor
    state_id = ModelState(IdentityBackbone(2, 4))
    target = rng.standard_normal(8).astype(np.float32)
    cfg = InversionConfig(learning_rate=2e-4, iterations=25000, seed=3)
    mae_id = _invert_one(state_id, target, cfg)
    assert mae_id < 1e-4

    # linear backbone with a reachable target: compare against the
    # least-squares solution's own feature error
    w = rng.standard_normal((12, 5)).astype(np.float32)
    state_lin = ModelState(LinearBackbone(3, 4, Tensor(w)))
    x_true = rng.standard_normal((3, 4)).astype(np.float32)
    target = (x_true.reshape(-1) @ w).astype(np.float32)
    w64 = w.astype(np.float64)
    sol = np.linalg.lstsq(w64.T, target.astype(np.float64), rcond=None)[0]
    oracle_mae = float(np.mean(np.abs(sol @ w64 - target)))
    cfg = InversionConfig(learning_rate=5e-4, iterations=12000, seed=3)
    mae_lin = _invert_one(state_lin, target, cfg)
    assert mae_lin - oracle_mae < 1e-3

    # trained conv backbone: invert the full desk anchor memory with the
    # preset's own schedule and check the median feature error
    preset, _, _, split, state = desk
    anchors = base_anchor_memory(state, split.base, preset.adaptation)
    inverted = invert_set(state, anchors, preset.adaptation.inversion)
    assert float(np.median(inverted.feature_mae)) <= 0.1
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 4. finetuning never touches frozen parameters


def test_04_frozen_tensors_unchanged_across_20_seeded_finetunes(desk):
    preset, _, _, split, state = desk
    frozen_params = ["temporal_w", "temporal_b"]
    before_params = {n: _sha(state.backbone.params[n]) for n in frozen_params}
    before_weights = {c: _sha(state.class_weights[c])
                      for c in state.seen_classes()}
    base = split.base
    replay = base.subset(np.arange(20))
    for i in range(20):
        few = sample_trial_sets(split, 9000 + i)[0]
        out = finetune_session(state, replay if i % 2 == 0 else None, few,
                               preset.adaptation.finetune, seed=9000 + i)
        for n in frozen_params:
            assert _sha(out.backbone.params[n]) == before_params[n]
        for c, digest in before_weights.items():
            assert _sha(out.class_weights[c]) == digest
        # the trainable layer must actually have moved
        assert _sha(out.backbone.params["spatial_w"]) != \
            _sha(state.backbone.params["spatial_w"])
    # and the input state itself came through untouched
    for n in frozen_params:
        assert _sha(state.backbone.params[n]) == before_params[n]


# ---------------------------------------------------------------------------
# 5 + 6. the 20-trial paired comparison on the desk scenario


def test_05_replay_protected_finetuning_beats_plain_and_matches_prototypes(desk_report):
    report = desk_report
    final = report.num_sessions - 1
    ai_base = np.asarray(report.scores["anchorinv"]["base"][final], dtype=float)
    ft_base = np.asarray(report.scores["finetune"]["base"][final], dtype=float)
    ai_all = np.asarray(report.scores["anchorinv"]["all"][final], dtype=float)
    pn_all = np.asarray(report.scores["protonet"]["all"][final], dtype=float)

    gap = float(np.median(ai_base)) - float(np.median(ft_base))
    assert gap >= 10.0, f"median final base macro-F1 gap {gap:.2f} < 10"
    # "matches" prototype insertion: anchor replay's median is at least
    # protonet's, or the paired difference is not significant at 0.05
    ai_med, pn_med = float(np.median(ai_all)), float(np.median(pn_all))
    p_pn = report.p_values["anchorinv|protonet"][final]
    assert ai_med >= pn_med or p_pn is None or p_pn >= 0.05, \
        (f"median final all macro-F1 anchorinv {ai_med:.2f} < protonet "
         f"{pn_med:.2f} with paired signed-rank p {p_pn:.2e}")
    p = wilcoxon_signed_rank(ai_base, ft_base)
    assert p < 0.05, f"paired signed-rank p {p:.2e}"
    assert _ELAPSED["trials"] < 900.0


def test_06_inverted_replay_tracks_real_replay_within_3_points(desk_report):
    report = desk_report
    final = report.num_sessions - 1
    ai_all = np.asarray(report.scores["anchorinv"]["all"][final], dtype=float)
    rr_all = np.asarray(report.scores["realreplay"]["all"][final], dtype=float)
    gap = abs(float(np.median(ai_all)) - float(np.median(rr_all)))
    assert gap <= 3.0, f"median final all macro-F1 gap to real replay {gap:.2f}"


# ---------------------------------------------------------------------------
# 7. uniform-guess macro-F1 converges to the closed-form chance level


def test_07_random_predictor_converges_to_chance_f1():
    for c, expected in ((10, 10.00), (14, 7.14), (16, 6.25)):
        assert round(random_chance_f1(c), 2) == expected
        per_class = round(10000 / c)
        labels = np.repeat(np.arange(c), per_class)
        rng = np.random.default_rng(30 * 1000 + c)
        preds = rng.integers(0, c, size=labels.size)
        observed = macro_f1(preds, labels, range(c))
        assert abs(observed - random_chance_f1(c)) <= 0.5, \
            f"C={c}: {observed:.3f} vs {random_chance_f1(c):.3f}"


# ---------------------------------------------------------------------------
# 8. prototype transfer onto unseen classes degrades as the base set shrinks


def test_08_transfer_to_unseen_classes_degrades_with_fewer_base_classes():
    preset = with_synth_classes(get_preset("desk"), 16)
    train, test = materialize_synth(preset)
    rows = sweep(replace(preset, trials=20), train, test, "base-classes", [10, 8, 6, 4],
                 unseen=6)
    means = [row["mean"] for row in rows]
    stds = [row["std"] for row in rows]

    rises = [d for d in np.diff(means) if d > 0]
    assert len(rises) <= 1, f"means {means} rise more than once"
    if rises:
        # a single wobble must stay inside the trial-to-trial spread
        assert rises[0] < max(stds), f"rise {rises[0]:.2f} vs spread {max(stds):.2f}"
    assert means[0] - means[-1] >= 10.0, f"no clear overall decrease: {means}"


# ---------------------------------------------------------------------------
# 9. segmentation arithmetic


def test_09_segment_counts_match_enumeration():
    rec = np.random.default_rng(9).standard_normal((2, 3600))
    assert segment(rec, 60, 0.5).shape == (119, 2, 60)

    rng = np.random.default_rng(10)
    for _ in range(100):
        h = int(rng.integers(1, 4))
        length = int(rng.integers(5, 400))
        window = int(rng.integers(1, length + 1))
        overlap = float(rng.uniform(0.0, 0.95))
        rec = rng.standard_normal((h, length))
        out = segment(rec, window, overlap)
        hop = max(int(window * (1.0 - overlap)), 1)
        starts = list(range(0, length - window + 1, hop))
        assert out.shape == (len(starts), h, window)
        for i in (0, len(starts) // 2, len(starts) - 1):
            np.testing.assert_array_equal(out[i],
                                          rec[:, starts[i]:starts[i] + window])


# ---------------------------------------------------------------------------
# 10. exact signed-rank p-values against exhaustive sign enumeration


def _exhaustive_two_sided_p(diff: np.ndarray) -> float:
    """Walk all 2^n sign assignments of the |difference| ranks directly."""
    mag = np.abs(diff)
    order = np.argsort(mag, kind="stable")
    ranks = np.empty(mag.size)
    i = 0
    while i < mag.size:
        j = i
        while j + 1 < mag.size and mag[order[j + 1]] == mag[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_pos = float(ranks[diff > 0].sum())
    w_min = min(w_pos, float(ranks.sum()) - w_pos)
    n = mag.size
    masks = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    ws = masks @ ranks
    return min(1.0, 2.0 * float(np.sum(ws <= w_min)) / (1 << n))


def test_10_exact_signed_rank_matches_exhaustive_enumeration():
    rng = np.random.default_rng(77)
    for case in range(100):
        n = int(rng.integers(5, 13))
        while True:
            if case % 2 == 0:
                diff = rng.integers(-4, 5, n).astype(float)  # forces rank ties
            else:
                diff = rng.normal(0.0, 1.0, n)
            if np.count_nonzero(diff) >= 5:
                break
        p_lib = wilcoxon_signed_rank(diff, np.zeros(n))
        p_ref = _exhaustive_two_sided_p(diff[diff != 0.0])
        assert p_lib == pytest.approx(p_ref, rel=1e-12, abs=0), \
            f"case {case}: {p_lib} vs {p_ref} on {diff}"
    same = np.full(8, 2.5)
    assert wilcoxon_signed_rank(same, same) == 1.0


# ---------------------------------------------------------------------------
# 11. the run verb is reproducible byte for byte


def test_11_run_reports_are_byte_identical(tmp_path):
    cfg = {
        "preset": "desk",
        "trials": 3,
        "methods": ["anchorinv", "finetune", "protonet", "realreplay"],
        "synth": {"num_classes": 4, "train_per_class": 12, "test_per_class": 5,
                  "base_frequency": 2.0, "noise_sigma": 0.3},
        "base_train": {"epochs": 60, "learning_rate": 5e-3},
        "finetune": {"iterations": 4},
        "inversion": {"iterations": 6},
        "adaptation": {"anchors_per_class": 3},
    }
    base_out = tmp_path / "base"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["train-base", "--config", str(config), "--out", str(base_out)]) == 0

    cfg["checkpoint"] = str(base_out / "checkpoint.bin")
    cfg["anchors"] = str(base_out / "anchors.bin")
    config.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
    assert file_sha256(out1 / "report.json") == file_sha256(out2 / "report.json")
    assert file_sha256(out1 / "report.txt") == file_sha256(out2 / "report.txt")
