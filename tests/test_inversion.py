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
from anchorinv.inversion import (InversionConfig, ReplaySet, feature_stat_penalty,
                                 invert_set, label_space_invert_batch, total_variation)
from anchorinv.model import (BACKBONE_PRESETS, DEFAULT_TEMPERATURE, ConvBackbone, FeatureStats,
                             ModelState, embed_batch, predict_batch, scores_graph)
from anchorinv.optim import FreezingViolation, minimize
from anchorinv.seeds import make_rng
from oracles import IdentityBackbone, LinearBackbone, nll


def _identity_state(channels=2, timesteps=3):
    return ModelState(IdentityBackbone(channels, timesteps))


def _linear_state(rng, channels=2, timesteps=3, out_dim=4):
    weight = Tensor(rng.standard_normal((channels * timesteps, out_dim)).astype(np.float32),
                    requires_grad=True)
    return ModelState(LinearBackbone(channels, timesteps, weight))


def _invert_one(state, target, config, loss_trajectory=None):
    """Invert one anchor; returns its (H, W) sample and final feature MAE."""
    anchors = AnchorSet(np.asarray(target).reshape(1, -1), np.zeros(1), np.zeros(1))
    replay = invert_set(state, anchors, config, loss_trajectory)
    return replay.samples[0], float(replay.feature_mae[0])


# ---------------------------------------------------------------------------
# configs


def test_inversion_config_validation():
    with pytest.raises(TypeError):  # every inversion starts from a normal draw
        InversionConfig(init="normal")
    for bad in (0, 2.0, "5", True):  # a count is an int, not a bool, float or str
        with pytest.raises(ValueError, match="iterations"):
            InversionConfig(iterations=bad)
    with pytest.raises(ValueError):
        InversionConfig(learning_rate=0.0)


def test_label_config_validation():
    # label-space inversion takes the InversionConfig, and only ``regularized``
    # tells its two baselines apart
    for field in ("l2_weight", "tv_weight", "feature_stat_weight", "auto_balance",
                  "cross_entropy_weight", "target_label"):
        with pytest.raises(TypeError):
            InversionConfig(**{field: 1.0})
    state = _two_class_state()
    state.feature_stats = FeatureStats(mean=np.zeros(2, dtype=np.float32),
                                       var=np.ones(2, dtype=np.float32))
    with pytest.raises(TypeError):
        label_space_invert_batch(state, [0, 1], InversionConfig(iterations=5))
    for regularized in (False, True):
        replay = label_space_invert_batch(state, [0, 1], InversionConfig(iterations=5),
                                          regularized)
        assert len(replay) == 2


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
    sample, mae = _invert_one(state, target, config)
    assert sample.shape == (2, 3)
    assert mae < 1e-3
    np.testing.assert_allclose(sample.reshape(-1), target, atol=5e-3)


def test_coarser_rate_gives_coarser_fit():
    rng = np.random.default_rng(111)
    state = _identity_state()
    target = rng.standard_normal(6).astype(np.float32)
    _, fine = _invert_one(state, target,
                          InversionConfig(learning_rate=1e-3, iterations=6000, seed=7))
    _, coarse = _invert_one(state, target,
                            InversionConfig(learning_rate=5e-2, iterations=6000, seed=7))
    assert fine < coarse


def test_linear_backbone_reachable_target():
    rng = np.random.default_rng(112)
    state = _linear_state(rng)  # 6 inputs -> 4 features: targets are reachable
    x_true = rng.standard_normal((2, 3)).astype(np.float32)
    target = x_true.reshape(-1) @ state.backbone.params["weight"].data
    _, mae = _invert_one(state, target,
                         InversionConfig(learning_rate=2e-3, iterations=4000, seed=3))
    assert mae < 1e-2


def test_linear_backbone_unreachable_target_bounded_by_least_squares():
    rng = np.random.default_rng(113)
    state = _linear_state(rng, out_dim=8)  # rank 6 map into 8 dims
    target = (rng.standard_normal(8) * 3).astype(np.float32)
    _, mae = _invert_one(state, target,
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
        _invert_one(state, np.zeros(4, dtype=np.float32), InversionConfig(iterations=1))


def test_loss_trajectory_recorded_and_decreasing():
    rng = np.random.default_rng(114)
    state = _identity_state()
    target = rng.standard_normal(6).astype(np.float32)
    traj = []
    _invert_one(state, target,
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
    assert not state.class_weights[0].requires_grad  # back at rest


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
        label_space_invert_batch(state, [0, 1], InversionConfig(iterations=3), False)


_DRIFT_UNDER_O = textwrap.dedent("""
    import numpy as np
    import anchorinv.inversion as inversion
    from anchorinv import AnchorSet, FreezingViolation, InversionConfig, invert_set
    from anchorinv.autodiff import Tensor
    from anchorinv.model import ModelState
    from oracles import LinearBackbone

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
    tests = str(Path(__file__).resolve().parent)  # for the oracles module
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, tests] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
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
    single, _ = _invert_one(state, a, config)
    anchors = AnchorSet(np.stack([a, b]), np.array([0, 1]), np.zeros(2))
    joint = invert_set(state, anchors, config)
    np.testing.assert_array_equal(single, joint.samples[0])


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


def test_negative_pre_relu_activations_raise_stalled():
    # a spatial bias of -1e3 puts every pre-ReLU activation of a desk model
    # below zero at any input near the init, so the ReLU passes no gradient
    # and Adam never moves a sample
    cfg = BACKBONE_PRESETS["desk"]
    state = ModelState(ConvBackbone.initialize(cfg, seed=3))
    state.backbone.params["spatial_b"].data[:] = -1e3
    rng = np.random.default_rng(125)
    for c in (0, 1):
        state.register_class(c, rng.standard_normal(cfg.feature_dim).astype(np.float32))
    target = state.class_weights[0].data
    with pytest.raises(anchorinv.InversionStalledError, match=r"samples \[0\] never moved"):
        _invert_one(state, target, InversionConfig(iterations=5))
    with pytest.raises(anchorinv.InversionStalledError, match=r"samples \[0, 1\]"):
        label_space_invert_batch(state, [0, 1], InversionConfig(iterations=5), False)
    # the same model with a zero spatial bias moves every sample
    state.backbone.params["spatial_b"].data[:] = 0.0
    _, mae = _invert_one(state, target, InversionConfig(iterations=5))
    assert np.isfinite(mae)


# ---------------------------------------------------------------------------
# regularizers


def test_total_variation_hand_case():
    assert total_variation(Tensor(np.array([[[0.0, 1.0, 0.0]]]))).item() == pytest.approx(2.0)


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
    got = total_variation(Tensor(batch)).item()
    assert got == pytest.approx(_tv_loops(batch), rel=1e-5)
    got1 = total_variation(Tensor(batch[:1])).item()
    assert got1 == pytest.approx(_tv_loops(batch[:1]), rel=1e-5)


def test_total_variation_validation():
    with pytest.raises(ad.ShapeError):  # an (H, W) matrix is not a batch
        total_variation(Tensor(np.zeros((2, 5), dtype=np.float32)))
    with pytest.raises(ad.ShapeError):
        total_variation(Tensor(np.zeros((1, 2, 1), dtype=np.float32)))


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
    got = feature_stat_penalty(state, Tensor(batch)).item()
    assert got == pytest.approx(expect, rel=1e-4)


def test_feature_stat_penalty_zero_when_matched():
    rng = np.random.default_rng(123)
    state = _identity_state()
    batch = rng.standard_normal((8, 2, 3)).astype(np.float32)
    feats = batch.reshape(8, 6)
    state.feature_stats = FeatureStats(mean=feats.mean(axis=0),
                                       var=feats.var(axis=0))
    assert feature_stat_penalty(state, Tensor(batch)).item() == pytest.approx(0.0, abs=1e-9)


def test_feature_stat_penalty_requires_stats():
    state = _identity_state()
    with pytest.raises(ValueError):
        feature_stat_penalty(state, Tensor(np.zeros((2, 2, 3), dtype=np.float32)))
    state.feature_stats = FeatureStats(mean=np.zeros(6, dtype=np.float32),
                                       var=np.ones(6, dtype=np.float32))
    with pytest.raises(ad.ShapeError):
        feature_stat_penalty(state, Tensor(np.zeros((2, 3), dtype=np.float32)))


# ---------------------------------------------------------------------------
# label-space inversion


def _two_class_state():
    state = _identity_state(1, 2)
    state.register_class(0, np.array([1.0, 0.0], dtype=np.float32))
    state.register_class(1, np.array([0.0, 1.0], dtype=np.float32))
    return state


def test_deepdream_moves_toward_target_class():
    state = _two_class_state()
    config = InversionConfig(iterations=400, learning_rate=5e-2, seed=6)
    replay = label_space_invert_batch(state, [1], config, regularized=False)
    sample, final_ce = replay.samples[0], float(replay.feature_mae[0])
    assert predict_batch(state, replay.samples)[0] == 1
    # with orthogonal unit class weights the best achievable similarity gap
    # is sqrt(2), at the direction bisecting +w1 and -w0
    best_ce = -np.log(1.0 / (1.0 + np.exp(-np.sqrt(2.0) / DEFAULT_TEMPERATURE)))
    assert final_ce == pytest.approx(best_ce, abs=5e-3)
    direction = sample.reshape(-1) / np.linalg.norm(sample)
    np.testing.assert_allclose(direction, [-np.sqrt(0.5), np.sqrt(0.5)], atol=0.05)


def test_label_inversion_batch_counts_and_unknown_label():
    state = _two_class_state()
    config = InversionConfig(iterations=5)
    replay = label_space_invert_batch(state, [0, 1, 1], config, False)
    assert len(replay) == 3
    np.testing.assert_array_equal(replay.labels, [0, 1, 1])
    np.testing.assert_array_equal(replay.sessions, [0, 0, 0])
    with pytest.raises(KeyError):
        label_space_invert_batch(state, [0, 7], config, False)
    assert len(label_space_invert_batch(state, [], config, False)) == 0


def test_label_inversion_leaves_model_untouched():
    state = _two_class_state()
    before = {c: t.data.tobytes() for c, t in state.class_weights.items()}
    label_space_invert_batch(state, [0, 1], InversionConfig(iterations=20), False)
    for c, blob in before.items():
        assert state.class_weights[c].data.tobytes() == blob
        assert not state.class_weights[c].requires_grad  # back at rest


def test_auto_balance_matches_hand_scaled_weights():
    # reconstruct the shared initialization, measure each raw term on it, and
    # check that the regularized inversion equals minimizing the loss with
    # explicitly scaled weights
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

    config = InversionConfig(iterations=iters, seed=seed)
    auto = label_space_invert_batch(state, labels, config, regularized=True)
    x = Tensor(x0.copy())

    def manual_loss(i):
        scores = scores_graph(state, embed_batch(state, x))
        loss = nll(scores, cols, np.full(len(labels), -1.0))
        for term, weight in ((ad.mul(x, x).sum(), ce0 / l2_0), (total_variation(x), ce0 / tv_0),
                             (feature_stat_penalty(state, x), ce0 / fs_0)):
            loss = ad.add(loss, ad.mul_scalar(term, weight))
        return loss

    minimize([x], manual_loss, iters, config.learning_rate)
    np.testing.assert_allclose(auto.samples, x.data, rtol=1e-5, atol=1e-7)


def test_deepinv_regularizers_shrink_the_sample():
    # with l2 / tv / feature-stat terms active the synthesized inputs should
    # have smaller norm than the unregularized ones
    state = _two_class_state()
    state.feature_stats = FeatureStats(mean=np.zeros(2, dtype=np.float32),
                                       var=np.full(2, 0.1, dtype=np.float32))
    config = InversionConfig(iterations=300, learning_rate=5e-2, seed=8)
    plain = label_space_invert_batch(state, [1], config, regularized=False)
    reg = label_space_invert_batch(state, [1], config, regularized=True)
    assert np.linalg.norm(reg.samples) < np.linalg.norm(plain.samples)
