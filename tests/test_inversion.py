"""Tests for feature-space and label-space input inversion.

Oracles: identity/linear backbones make the feature map analytically
invertible (least-squares gives reachability and a quality bound); the
regularizers are checked against double-loop reimplementations.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import anchorinv
import anchorinv.autodiff as ad
import anchorinv.inversion as inversion
from anchorinv.anchors import AnchorSet
from anchorinv.autodiff import Tensor
from anchorinv.inversion import (InversionConfig, LabelInversionConfig,
                                 ReplaySet, deepdream_config, deepinv_config,
                                 feature_stat_penalty, invert_anchor,
                                 invert_set, label_space_invert,
                                 label_space_invert_batch, total_variation)
from anchorinv.model import (BACKBONE_PRESETS, ConvBackbone, FeatureStats, IdentityBackbone,
                             LinearBackbone, ModelState, embed_batch, predict, scores_graph)
from anchorinv.optim import FreezingViolation
from anchorinv.seeds import make_rng


def _identity_state(channels=2, timesteps=3):
    return ModelState(IdentityBackbone(channels, timesteps))


def _linear_state(rng, channels=2, timesteps=3, out_dim=4):
    weight = Tensor(rng.standard_normal((channels * timesteps, out_dim)).astype(np.float32),
                    requires_grad=True)
    return ModelState(LinearBackbone(channels, timesteps, weight))


# ---------------------------------------------------------------------------
# configs


def test_inversion_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(init="ones")
    with pytest.raises(ValueError):
        InversionConfig(iterations=0)
    with pytest.raises(ValueError):
        InversionConfig(learning_rate=0.0)


def test_label_config_validation():
    with pytest.raises(ValueError):
        LabelInversionConfig(l2_weight=-0.1)
    with pytest.raises(ValueError):
        LabelInversionConfig(init="mean")
    cfg = deepdream_config(iterations=10)
    assert cfg.l2_weight == cfg.tv_weight == cfg.feature_stat_weight == 0.0
    cfg = deepinv_config(iterations=10)
    assert cfg.auto_balance and cfg.l2_weight == 1.0


def test_replay_set_validation():
    with pytest.raises(ValueError):
        ReplaySet(np.zeros((3, 2, 4)), np.zeros(2), np.zeros(3), np.zeros(3))
    empty = ReplaySet.empty(2, 4)
    assert len(empty) == 0
    assert empty.samples.shape == (0, 2, 4)


# ---------------------------------------------------------------------------
# anchor-mode inversion


def test_identity_backbone_recovers_target():
    # identity features: inversion should match the anchor almost exactly
    # (final error is set by the optimizer's oscillation floor, which scales
    # with the learning rate, hence the smaller-than-default rate here)
    rng = np.random.default_rng(110)
    state = _identity_state()
    target = rng.standard_normal(6).astype(np.float32)
    # budget note: each coordinate moves at most ~learning_rate per step
    # under the mean-absolute objective, so iterations * rate must exceed
    # the largest coordinate distance
    config = InversionConfig(learning_rate=1e-3, iterations=6000, seed=7)
    sample, mae = invert_anchor(state, target, config)
    assert sample.shape == (2, 3)
    assert mae < 1e-3
    np.testing.assert_allclose(sample.reshape(-1), target, atol=5e-3)


def test_coarser_rate_gives_coarser_fit():
    rng = np.random.default_rng(111)
    state = _identity_state()
    target = rng.standard_normal(6).astype(np.float32)
    _, fine = invert_anchor(state, target,
                            InversionConfig(learning_rate=1e-3, iterations=6000, seed=7))
    _, coarse = invert_anchor(state, target,
                              InversionConfig(learning_rate=5e-2, iterations=6000, seed=7))
    assert fine < coarse


def test_linear_backbone_reachable_target():
    rng = np.random.default_rng(112)
    state = _linear_state(rng)  # 6 inputs -> 4 features: targets are reachable
    x_true = rng.standard_normal((2, 3)).astype(np.float32)
    target = x_true.reshape(-1) @ state.backbone.params["weight"].data
    _, mae = invert_anchor(state, target,
                           InversionConfig(learning_rate=2e-3, iterations=4000, seed=3))
    assert mae < 1e-2


def test_linear_backbone_unreachable_target_bounded_by_least_squares():
    rng = np.random.default_rng(113)
    state = _linear_state(rng, out_dim=8)  # rank 6 map into 8 dims
    target = (rng.standard_normal(8) * 3).astype(np.float32)
    _, mae = invert_anchor(state, target,
                           InversionConfig(learning_rate=1e-2, iterations=3000, seed=3))
    w = state.backbone.params["weight"].data.astype(np.float64)
    x_ls, *_ = np.linalg.lstsq(w.T, target.astype(np.float64), rcond=None)
    lstsq_l1 = np.abs(w.T @ x_ls - target).mean()
    # honest nonzero error for an unreachable target, and at least as good
    # (in mean absolute error) as the least-squares solution
    assert mae > 0.05
    assert mae <= lstsq_l1 + 5e-3


def test_invert_anchor_dimension_mismatch():
    state = _identity_state()
    with pytest.raises(ad.ShapeError):
        invert_anchor(state, np.zeros(4, dtype=np.float32), InversionConfig(iterations=1))


def test_loss_trajectory_recorded_and_decreasing():
    rng = np.random.default_rng(114)
    state = _identity_state()
    target = rng.standard_normal(6).astype(np.float32)
    traj = []
    invert_anchor(state, target,
                  InversionConfig(learning_rate=1e-3, iterations=500, seed=2), traj)
    assert len(traj) == 500
    assert traj[-1] < traj[0]


def test_invert_set_counts_and_metadata():
    rng = np.random.default_rng(115)
    state = _identity_state()
    anchors = AnchorSet(rng.standard_normal((3, 6)).astype(np.float32),
                        np.array([0, 0, 1]), np.array([0, 0, 2]))
    replay = invert_set(state, anchors, InversionConfig(learning_rate=1e-3,
                                                        iterations=300, seed=1))
    assert len(replay) == 3
    assert replay.samples.shape == (3, 2, 3)
    np.testing.assert_array_equal(replay.labels, [0, 0, 1])
    np.testing.assert_array_equal(replay.sessions, [0, 0, 2])
    assert replay.feature_mae.shape == (3,)


def test_invert_set_empty():
    state = _identity_state()
    empty = AnchorSet(np.zeros((0, 6), dtype=np.float32),
                      np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    replay = invert_set(state, empty, InversionConfig(iterations=1))
    assert len(replay) == 0
    assert replay.samples.shape == (0, 2, 3)


def test_invert_set_deterministic():
    rng = np.random.default_rng(116)
    state = _identity_state()
    anchors = AnchorSet(rng.standard_normal((2, 6)).astype(np.float32),
                        np.array([0, 1]), np.zeros(2))
    config = InversionConfig(learning_rate=1e-3, iterations=200, seed=9)
    a = invert_set(state, anchors, config)
    b = invert_set(state, anchors, config)
    assert a.samples.tobytes() == b.samples.tobytes()


def test_invert_set_leaves_model_untouched():
    rng = np.random.default_rng(117)
    state = _linear_state(rng)
    state.register_class(0, rng.standard_normal(4))
    before = {n: t.data.tobytes() for n, t in state.backbone.params.items()}
    before_flags = {n: t.requires_grad for n, t in state.backbone.params.items()}
    anchors = AnchorSet(rng.standard_normal((2, 4)).astype(np.float32),
                        np.array([0, 1]), np.zeros(2))
    invert_set(state, anchors, InversionConfig(iterations=50))
    for name, tensor in state.backbone.params.items():
        assert tensor.data.tobytes() == before[name]
        assert tensor.requires_grad == before_flags[name]
    assert state.class_weights[0].requires_grad


def _drifting_embed(monkeypatch, state):
    """Make every embed during inversion nudge a backbone weight, as a
    faulty optimisation step would."""
    real_embed = inversion.embed_batch

    def drifting(st, x):
        state.backbone.params["weight"].data += 1e-3
        return real_embed(st, x)

    monkeypatch.setattr(inversion, "embed_batch", drifting)


def test_invert_set_detects_parameter_drift(monkeypatch):
    rng = np.random.default_rng(118)
    state = _linear_state(rng)
    anchors = AnchorSet(rng.standard_normal((2, 4)).astype(np.float32),
                        np.array([0, 1]), np.zeros(2))
    _drifting_embed(monkeypatch, state)
    with pytest.raises(FreezingViolation):
        invert_set(state, anchors, InversionConfig(iterations=3))
    assert state.backbone.params["weight"].requires_grad  # flags restored


def test_label_inversion_detects_parameter_drift(monkeypatch):
    rng = np.random.default_rng(119)
    state = _linear_state(rng)
    state.register_class(0, rng.standard_normal(4))
    state.register_class(1, rng.standard_normal(4))
    _drifting_embed(monkeypatch, state)
    with pytest.raises(FreezingViolation):
        label_space_invert_batch(state, [0, 1], deepdream_config(iterations=3))


_DRIFT_UNDER_O = textwrap.dedent("""
    import numpy as np
    import anchorinv.inversion as inversion
    from anchorinv import AnchorSet, FreezingViolation, InversionConfig, invert_set
    from anchorinv.autodiff import Tensor
    from anchorinv.model import LinearBackbone, ModelState

    assert False, "assert statements must be stripped in this interpreter"
    weight = Tensor(np.ones((6, 4), dtype=np.float32), requires_grad=True)
    state = ModelState(LinearBackbone(2, 3, weight))
    real_embed = inversion.embed_batch

    def drifting(st, x):
        weight.data += 1e-3
        return real_embed(st, x)

    inversion.embed_batch = drifting
    anchors = AnchorSet(np.ones((1, 4), dtype=np.float32), np.array([0]), np.zeros(1))
    try:
        invert_set(state, anchors, InversionConfig(iterations=2))
    except FreezingViolation:
        print("FreezingViolation")
""")


def test_drift_guard_survives_python_optimize_flag():
    # python -O strips assert statements; the freezing guard must not be one
    src = str(Path(anchorinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", _DRIFT_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "FreezingViolation"


def test_joint_inversion_is_factorized_per_sample():
    # the batched objective is a sum of per-sample terms, so sample 0's
    # result cannot depend on what else is in the batch
    rng = np.random.default_rng(118)
    state = _identity_state()
    a = rng.standard_normal(6).astype(np.float32)
    b = rng.standard_normal(6).astype(np.float32)
    c = rng.standard_normal(6).astype(np.float32) * 5
    config = InversionConfig(learning_rate=1e-3, iterations=150, seed=4)

    def first_sample(other):
        anchors = AnchorSet(np.stack([a, other]), np.array([0, 1]), np.zeros(2))
        return invert_set(state, anchors, config).samples[0]

    np.testing.assert_array_equal(first_sample(b), first_sample(c))


def test_single_anchor_call_matches_set_leader():
    rng = np.random.default_rng(119)
    state = _identity_state()
    a = rng.standard_normal(6).astype(np.float32)
    b = rng.standard_normal(6).astype(np.float32)
    config = InversionConfig(learning_rate=1e-3, iterations=150, seed=4)
    single, _ = invert_anchor(state, a, config)
    anchors = AnchorSet(np.stack([a, b]), np.array([0, 1]), np.zeros(2))
    joint = invert_set(state, anchors, config)
    np.testing.assert_array_equal(single, joint.samples[0])


def test_zeros_init_differs_from_normal_init():
    rng = np.random.default_rng(120)
    state = _identity_state()
    target = rng.standard_normal(6).astype(np.float32)
    s_norm, _ = invert_anchor(state, target,
                              InversionConfig(init="normal", learning_rate=1e-3,
                                              iterations=50, seed=3))
    s_zero, _ = invert_anchor(state, target,
                              InversionConfig(init="zeros", learning_rate=1e-3,
                                              iterations=50, seed=3))
    assert s_norm.tobytes() != s_zero.tobytes()


def test_inversion_iteration_builds_one_loss_node(spy_engine):
    """Each anchor-inversion iteration builds its objective as one
    ``scaled_l1`` node, not the sub / absolute / sum / mul_scalar chain."""
    calls = spy_engine("scaled_l1", "absolute", "sub", "tensor_sum", "mul_scalar")
    cfg = BACKBONE_PRESETS["desk"]
    state = ModelState(ConvBackbone.initialize(cfg, seed=3))
    anchors = np.random.default_rng(4).standard_normal((2, cfg.feature_dim)).astype(np.float32)
    invert_set(state, AnchorSet(anchors, np.array([0, 1]), np.zeros(2, dtype=np.int64)),
               InversionConfig(iterations=3))
    assert calls == ["scaled_l1"] * 3


def test_zeros_init_on_desk_backbone_raises_stalled():
    # at x = 0 no pre-ReLU activation of the desk base model is positive, so
    # the ReLU passes no gradient and Adam never moves a sample off zero
    preset = anchorinv.get_preset("desk")
    train, _ = anchorinv.materialize_synth(preset)
    split = anchorinv.build_split(preset, train)
    state = anchorinv.train_base(split.base.x, split.base.y, preset.backbone_config,
                                 preset.base_train)
    target = state.class_weights[state.seen_classes()[0]].data
    with pytest.raises(anchorinv.InversionStalledError, match=r"samples \[0\]"):
        invert_anchor(state, target, InversionConfig(init="zeros", iterations=5))
    with pytest.raises(anchorinv.InversionStalledError, match=r"samples \[0, 1\]"):
        label_space_invert_batch(state, [0, 1], LabelInversionConfig(init="zeros",
                                                                     iterations=5))
    _, mae = invert_anchor(state, target, InversionConfig(init="normal", iterations=5))
    assert np.isfinite(mae)


# ---------------------------------------------------------------------------
# regularizers


def test_total_variation_hand_case():
    assert total_variation(np.array([[0.0, 1.0, 0.0]])).item() == pytest.approx(2.0)


def _tv_loops(batch):
    total = 0.0
    for sample in batch:
        for row in sample:
            for w in range(len(row) - 1):
                total += abs(float(row[w + 1]) - float(row[w]))
    return total


def test_total_variation_matches_loop_oracle():
    rng = np.random.default_rng(121)
    batch = rng.standard_normal((3, 4, 7)).astype(np.float32)
    got = total_variation(batch).item()
    assert got == pytest.approx(_tv_loops(batch), rel=1e-5)
    # 2-d input treated as a single sample
    got2 = total_variation(batch[0]).item()
    assert got2 == pytest.approx(_tv_loops(batch[:1]), rel=1e-5)


def test_total_variation_validation():
    with pytest.raises(ad.ShapeError):
        total_variation(np.zeros(5, dtype=np.float32))
    with pytest.raises(ad.ShapeError):
        total_variation(np.zeros((2, 1), dtype=np.float32))


def test_feature_stat_penalty_two_pass_oracle():
    rng = np.random.default_rng(122)
    state = _identity_state()
    state.feature_stats = FeatureStats(
        mean=rng.standard_normal(6).astype(np.float32),
        var=(rng.random(6) + 0.5).astype(np.float32))
    batch = rng.standard_normal((5, 2, 3)).astype(np.float32)
    feats = batch.reshape(5, 6).astype(np.float64)
    mean = feats.mean(axis=0)
    var = ((feats - mean) ** 2).mean(axis=0)
    expect = (((mean - state.feature_stats.mean) ** 2).sum()
              + ((var - state.feature_stats.var) ** 2).sum())
    got = feature_stat_penalty(state, batch).item()
    assert got == pytest.approx(expect, rel=1e-4)


def test_feature_stat_penalty_zero_when_matched():
    rng = np.random.default_rng(123)
    state = _identity_state()
    batch = rng.standard_normal((8, 2, 3)).astype(np.float32)
    feats = batch.reshape(8, 6)
    state.feature_stats = FeatureStats(mean=feats.mean(axis=0),
                                       var=feats.var(axis=0))
    assert feature_stat_penalty(state, batch).item() == pytest.approx(0.0, abs=1e-9)


def test_feature_stat_penalty_requires_stats():
    state = _identity_state()
    with pytest.raises(ValueError):
        feature_stat_penalty(state, np.zeros((2, 2, 3), dtype=np.float32))
    state.feature_stats = FeatureStats(mean=np.zeros(6, dtype=np.float32),
                                       var=np.ones(6, dtype=np.float32))
    with pytest.raises(ad.ShapeError):
        feature_stat_penalty(state, np.zeros((2, 3), dtype=np.float32))


# ---------------------------------------------------------------------------
# label-space inversion


def _two_class_state():
    state = _identity_state(1, 2)
    state.register_class(0, np.array([1.0, 0.0], dtype=np.float32))
    state.register_class(1, np.array([0.0, 1.0], dtype=np.float32))
    return state


def test_deepdream_moves_toward_target_class():
    state = _two_class_state()
    config = LabelInversionConfig(target_label=1, iterations=400,
                                  learning_rate=5e-2, seed=6)
    sample, final_ce = label_space_invert(state, config)
    assert predict(state, sample.reshape(-1)) == 1
    # with orthogonal unit class weights the best achievable similarity gap
    # is sqrt(2), at the direction bisecting +w1 and -w0
    best_ce = -np.log(1.0 / (1.0 + np.exp(-np.sqrt(2.0) / state.temperature)))
    assert final_ce == pytest.approx(best_ce, abs=5e-3)
    direction = sample.reshape(-1) / np.linalg.norm(sample)
    np.testing.assert_allclose(direction, [-np.sqrt(0.5), np.sqrt(0.5)], atol=0.05)


def test_label_inversion_batch_counts_and_unknown_label():
    state = _two_class_state()
    replay = label_space_invert_batch(state, [0, 1, 1],
                                      LabelInversionConfig(iterations=5))
    assert len(replay) == 3
    np.testing.assert_array_equal(replay.labels, [0, 1, 1])
    np.testing.assert_array_equal(replay.sessions, [0, 0, 0])
    with pytest.raises(KeyError):
        label_space_invert_batch(state, [0, 7], LabelInversionConfig(iterations=5))
    assert len(label_space_invert_batch(state, [], LabelInversionConfig(iterations=5))) == 0


def test_label_inversion_leaves_model_untouched():
    state = _two_class_state()
    before = {c: t.data.tobytes() for c, t in state.class_weights.items()}
    label_space_invert_batch(state, [0, 1], LabelInversionConfig(iterations=20))
    for c, blob in before.items():
        assert state.class_weights[c].data.tobytes() == blob
        assert state.class_weights[c].requires_grad


def test_auto_balance_matches_hand_scaled_weights():
    # reconstruct the shared initialization, measure each raw term on it, and
    # check that auto-balancing equals running with explicitly scaled weights
    state = _two_class_state()
    state.feature_stats = FeatureStats(mean=np.zeros(2, dtype=np.float32),
                                       var=np.ones(2, dtype=np.float32))
    labels = [0, 1]
    seed, iters = 11, 30
    x0 = np.stack([make_rng(seed, j).standard_normal((1, 2)).astype(np.float32)
                   for j in range(len(labels))])
    xt = Tensor(x0)
    scores = scores_graph(state, embed_batch(state, xt))
    order = state.seen_classes()
    cols = np.array([order.index(c) for c in labels])
    picked = ad.take_per_row(ad.log(scores), cols)
    ce0 = abs(ad.mul_scalar(picked.sum(), -1.0).item())
    l2_0 = abs(ad.mul(xt, xt).sum().item())
    tv_0 = abs(total_variation(xt).item())
    fs_0 = abs(feature_stat_penalty(state, xt).item())

    auto = label_space_invert_batch(state, labels, LabelInversionConfig(
        l2_weight=1.0, tv_weight=1.0, feature_stat_weight=1.0, auto_balance=True,
        iterations=iters, seed=seed))
    manual = label_space_invert_batch(state, labels, LabelInversionConfig(
        l2_weight=ce0 / l2_0, tv_weight=ce0 / tv_0, feature_stat_weight=ce0 / fs_0,
        auto_balance=False, iterations=iters, seed=seed))
    np.testing.assert_allclose(auto.samples, manual.samples, rtol=1e-5, atol=1e-7)


def test_deepinv_regularizers_shrink_the_sample():
    # with l2 / tv / feature-stat terms active the synthesized inputs should
    # have smaller norm than the unregularized ones
    state = _two_class_state()
    state.feature_stats = FeatureStats(mean=np.zeros(2, dtype=np.float32),
                                       var=np.full(2, 0.1, dtype=np.float32))
    plain = label_space_invert_batch(state, [1], deepdream_config(
        iterations=300, learning_rate=5e-2, seed=8))
    reg = label_space_invert_batch(state, [1], deepinv_config(
        iterations=300, learning_rate=5e-2, seed=8))
    assert np.linalg.norm(reg.samples) < np.linalg.norm(plain.samples)
