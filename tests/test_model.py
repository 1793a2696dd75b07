"""Tests for the backbone, metric classifier, and base training loop.

The backbone forward pass is checked against a loop-based transcription of
temporal conv -> spatial conv -> ReLU -> average pool; classifier scores are
checked against the closed-form softmax over cosine similarities.
"""

import math

import numpy as np
import pytest

from anchorinv import autodiff as ad
from anchorinv.autodiff import ShapeError, Tensor
from anchorinv.model import (BACKBONE_PRESETS, BaseTrainConfig, ConvBackbone,
                             ConvBackboneConfig, IdentityBackbone,
                             LinearBackbone, ModelState, TrainingDivergedError, accuracy,
                             class_scores, compute_prototypes,
                             cosine_distance, cross_entropy_graph, embed_batch,
                             predict, predict_batch, prototype_of,
                             scores_batch, scores_graph, train_base)


def _tiny_config(**overrides):
    base = dict(name="tiny", channels=3, timesteps=16, filters=2,
                temporal_kernel=5, temporal_stride=1, pool_kernel=4, pool_stride=2)
    base.update(overrides)
    return ConvBackboneConfig(**base)


def _identity_state(channels=2, timesteps=3, temperature=16.0):
    return ModelState(IdentityBackbone(channels, timesteps), temperature=temperature)


# ---------------------------------------------------------------------------
# configuration arithmetic


def test_preset_feature_dims():
    assert BACKBONE_PRESETS["desk"].feature_dim == 104
    assert BACKBONE_PRESETS["bci"].feature_dim == 2440
    assert BACKBONE_PRESETS["nhie"].feature_dim == 2360
    assert BACKBONE_PRESETS["grabmyo"].feature_dim == 2320


def test_feature_dim_formula():
    cfg = _tiny_config()
    conv_w = (16 - 5) // 1 + 1
    pooled_w = (conv_w - 4) // 2 + 1
    assert cfg.conv_width == conv_w
    assert cfg.pooled_width == pooled_w
    assert cfg.feature_dim == 2 * pooled_w


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(filters=0)
    with pytest.raises(ValueError):
        _tiny_config(activation="tanh")
    with pytest.raises(ValueError):
        _tiny_config(temporal_kernel=17)  # conv width collapses to zero


# ---------------------------------------------------------------------------
# backbone forward oracles


def _embed_loops(x, cfg, params):
    """Plain-numpy transcription of the conv backbone forward pass."""
    tw = params["temporal_w"].data
    tb = params["temporal_b"].data
    sw = params["spatial_w"].data
    sb = params["spatial_b"].data
    n = x.shape[0]
    f = cfg.filters
    cw = cfg.conv_width
    # temporal: (N, 1, H, W) -> (N, F, H, conv_width)
    t_out = np.zeros((n, f, cfg.channels, cw), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for c in range(cfg.channels):
                for j in range(cw):
                    start = j * cfg.temporal_stride
                    seg = x[ni, c, start:start + cfg.temporal_kernel]
                    t_out[ni, fi, c, j] = np.sum(seg * tw[fi, 0, 0]) + tb[fi]
    # spatial: kernel (H, 1) collapses the channel axis -> (N, F, 1, conv_width)
    s_out = np.zeros((n, f, 1, cw), dtype=np.float64)
    for ni in range(n):
        for fo in range(f):
            for j in range(cw):
                s_out[ni, fo, 0, j] = np.sum(t_out[ni, :, :, j] * sw[fo, :, :, 0]) + sb[fo]
    s_out = np.maximum(s_out, 0.0)
    pw = cfg.pooled_width
    pooled = np.zeros((n, f, 1, pw), dtype=np.float64)
    for j in range(pw):
        start = j * cfg.pool_stride
        pooled[:, :, :, j] = s_out[:, :, :, start:start + cfg.pool_kernel].mean(axis=3)
    return pooled.reshape(n, cfg.feature_dim)


def test_conv_backbone_matches_loop_oracle():
    rng = np.random.default_rng(50)
    cfg = _tiny_config()
    backbone = ConvBackbone.initialize(cfg, seed=7)
    x = rng.standard_normal((4, cfg.channels, cfg.timesteps)).astype(np.float32)
    got = backbone.embed(Tensor(x)).data
    expect = _embed_loops(x.astype(np.float64), cfg, backbone.params)
    np.testing.assert_allclose(got, expect, rtol=1e-4, atol=1e-5)


def test_backbone_initialize_deterministic():
    a = ConvBackbone.initialize(_tiny_config(), seed=3)
    b = ConvBackbone.initialize(_tiny_config(), seed=3)
    c = ConvBackbone.initialize(_tiny_config(), seed=4)
    for name in a.param_names():
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()
    assert a.params["temporal_w"].data.tobytes() != c.params["temporal_w"].data.tobytes()


def test_backbone_embed_shape_errors():
    backbone = ConvBackbone.initialize(_tiny_config(), seed=1)
    with pytest.raises(ShapeError):
        backbone.embed(Tensor(np.zeros((2, 4, 16), dtype=np.float32)))
    with pytest.raises(ShapeError):
        backbone.embed(Tensor(np.zeros((3, 16), dtype=np.float32)))


def test_layer_param_names():
    backbone = ConvBackbone.initialize(_tiny_config(), seed=1)
    assert backbone.layer_param_names("temporal") == ["temporal_w", "temporal_b"]
    assert backbone.layer_param_names("spatial") == ["spatial_w", "spatial_b"]
    assert backbone.last_layer() == "spatial"
    with pytest.raises(KeyError):
        backbone.layer_param_names("classifier")


def test_identity_backbone_flattens():
    rng = np.random.default_rng(51)
    x = rng.standard_normal((3, 2, 5)).astype(np.float32)
    out = IdentityBackbone(2, 5).embed(Tensor(x)).data
    np.testing.assert_array_equal(out, x.reshape(3, 10))


def test_linear_backbone_matches_matmul():
    rng = np.random.default_rng(52)
    w = rng.standard_normal((10, 4)).astype(np.float32)
    x = rng.standard_normal((3, 2, 5)).astype(np.float32)
    out = LinearBackbone(2, 5, Tensor(w, requires_grad=True)).embed(Tensor(x)).data
    np.testing.assert_allclose(out, x.reshape(3, 10) @ w, rtol=1e-5)
    with pytest.raises(ShapeError):
        LinearBackbone(2, 5, Tensor(np.zeros((9, 4))))


# ---------------------------------------------------------------------------
# cosine distance


def test_cosine_distance_reference_points():
    h = np.array([0.3, -1.2, 0.5])
    assert cosine_distance(h, h) == pytest.approx(-1.0, abs=1e-12)
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance([1.0, 0.0], [1.0, 1.0]) == pytest.approx(-math.sqrt(0.5), abs=1e-6)
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_distance_scale_invariant():
    rng = np.random.default_rng(53)
    h = rng.standard_normal(6)
    w = rng.standard_normal(6)
    assert cosine_distance(h, w) == pytest.approx(cosine_distance(10.0 * h, 0.1 * w),
                                                  abs=1e-9)


def test_cosine_distance_length_mismatch():
    with pytest.raises(ShapeError):
        cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# classifier scores


def test_class_scores_two_class_closed_form():
    # aligned with class 0's weight, orthogonal to class 1's: similarities
    # are (1, 0), so p0 = 1 / (1 + exp(-1/T)).
    state = _identity_state(channels=1, timesteps=2)
    state.register_class(0, np.array([1.0, 0.0], dtype=np.float32))
    state.register_class(1, np.array([0.0, 1.0], dtype=np.float32))
    scores = class_scores(state, np.array([1.0, 0.0]))
    p0 = 1.0 / (1.0 + math.exp(-1.0 / 16.0))
    np.testing.assert_allclose(scores, [p0, 1.0 - p0], atol=1e-9)
    np.testing.assert_allclose(scores, [0.5156, 0.4844], atol=1e-4)


def test_scores_batch_rows_sum_to_one():
    rng = np.random.default_rng(54)
    state = _identity_state(channels=1, timesteps=8)
    for c in range(5):
        state.register_class(c, rng.standard_normal(8).astype(np.float32))
    feats = rng.standard_normal((20, 8))
    scores = scores_batch(state, feats)
    np.testing.assert_allclose(scores.sum(axis=1), np.ones(20), atol=1e-6)
    assert np.all(scores > 0)


def test_scores_scale_invariance_of_predictions():
    rng = np.random.default_rng(55)
    state = _identity_state(channels=1, timesteps=8)
    for c in range(4):
        state.register_class(c, rng.standard_normal(8).astype(np.float32))
    feats = rng.standard_normal((15, 8))
    base = scores_batch(state, feats)
    scaled = scores_batch(state, 1000.0 * feats)
    np.testing.assert_allclose(base, scaled, atol=1e-9)


def test_scores_graph_matches_scores_batch():
    rng = np.random.default_rng(56)
    state = _identity_state(channels=1, timesteps=6)
    for c in range(3):
        state.register_class(c, rng.standard_normal(6).astype(np.float32))
    feats = rng.standard_normal((8, 6)).astype(np.float32)
    graph = scores_graph(state, Tensor(feats)).data
    plain = scores_batch(state, feats)
    np.testing.assert_allclose(graph, plain, rtol=1e-4, atol=1e-6)


def test_predict_tie_breaks_to_lowest_class_id():
    state = _identity_state(channels=1, timesteps=2)
    state.register_class(3, np.array([1.0, 0.0], dtype=np.float32))
    state.register_class(7, np.array([0.0, 1.0], dtype=np.float32))
    # equidistant from both weights
    assert predict(state, np.array([1.0, 1.0])) == 3


def test_predict_batch_matches_predict():
    rng = np.random.default_rng(57)
    state = _identity_state(channels=2, timesteps=3)
    for c in (1, 4, 9):
        state.register_class(c, rng.standard_normal(6).astype(np.float32))
    x = rng.standard_normal((10, 2, 3)).astype(np.float32)
    batch = predict_batch(state, x)
    single = [predict(state, embed_batch(state, x[i:i + 1]).data[0]) for i in range(10)]
    np.testing.assert_array_equal(batch, single)


def test_scores_batch_validation():
    state = _identity_state(channels=1, timesteps=4)
    with pytest.raises(ValueError):
        scores_batch(state, np.zeros((2, 4)))  # no classes yet
    state.register_class(0, np.ones(4, dtype=np.float32))
    with pytest.raises(ShapeError):
        scores_batch(state, np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# model state bookkeeping


def test_register_class_validation():
    state = _identity_state(channels=1, timesteps=4)
    state.register_class(2, np.ones(4, dtype=np.float32))
    with pytest.raises(ValueError):
        state.register_class(2, np.ones(4, dtype=np.float32))
    with pytest.raises(ShapeError):
        state.register_class(3, np.ones(5, dtype=np.float32))


def test_seen_classes_sorted():
    state = _identity_state(channels=1, timesteps=2)
    for c in (7, 1, 4):
        state.register_class(c, np.ones(2, dtype=np.float32))
    assert state.seen_classes() == [1, 4, 7]


def test_weight_matrix_row_order():
    state = _identity_state(channels=1, timesteps=2)
    state.register_class(5, np.array([5.0, 0.0], dtype=np.float32))
    state.register_class(2, np.array([2.0, 0.0], dtype=np.float32))
    mat = state.weight_matrix().data
    np.testing.assert_array_equal(mat[:, 0], [2.0, 5.0])


def test_clone_is_independent():
    state = _identity_state(channels=1, timesteps=2)
    state.register_class(0, np.array([1.0, 2.0], dtype=np.float32))
    other = state.clone()
    other.class_weights[0].data[0] = 99.0
    assert state.class_weights[0].data[0] == 1.0


def test_all_parameters_keys():
    cfg = _tiny_config()
    state = ModelState(ConvBackbone.initialize(cfg, seed=1))
    state.register_class(3, np.zeros(cfg.feature_dim, dtype=np.float32))
    keys = set(state.all_parameters())
    assert keys == {"backbone.temporal_w", "backbone.temporal_b",
                    "backbone.spatial_w", "backbone.spatial_b", "classifier.3"}


def test_temperature_must_be_positive():
    with pytest.raises(ValueError):
        ModelState(IdentityBackbone(1, 2), temperature=0.0)


# ---------------------------------------------------------------------------
# prototypes


def test_prototype_matches_numpy_mean():
    rng = np.random.default_rng(58)
    state = _identity_state(channels=2, timesteps=3)
    samples = rng.standard_normal((12, 2, 3)).astype(np.float32)
    proto = prototype_of(state, samples)
    np.testing.assert_allclose(proto, samples.reshape(12, 6).mean(axis=0), rtol=1e-6)


def test_prototype_is_permutation_invariant_bitwise():
    # math.fsum makes the mean exact, so any sample order gives the same bits
    rng = np.random.default_rng(59)
    state = _identity_state(channels=1, timesteps=5)
    samples = rng.standard_normal((30, 1, 5)).astype(np.float32)
    base = prototype_of(state, samples)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(30)
        assert prototype_of(state, samples[perm]).tobytes() == base.tobytes()


def test_prototype_of_empty_raises():
    state = _identity_state(channels=1, timesteps=5)
    with pytest.raises(ValueError):
        prototype_of(state, np.zeros((0, 1, 5), dtype=np.float32))


def test_compute_prototypes_replaces_requested_only():
    rng = np.random.default_rng(60)
    state = _identity_state(channels=1, timesteps=4)
    state.register_class(0, np.ones(4, dtype=np.float32))
    state.register_class(1, np.full(4, 7.0, dtype=np.float32))
    x = rng.standard_normal((10, 1, 4)).astype(np.float32)
    y = np.array([0] * 5 + [1] * 5)
    compute_prototypes(state, x, y, [0])
    np.testing.assert_allclose(state.class_weights[0].data,
                               x[:5].reshape(5, 4).mean(axis=0), rtol=1e-6)
    np.testing.assert_array_equal(state.class_weights[1].data, np.full(4, 7.0))


def test_compute_prototypes_validation():
    state = _identity_state(channels=1, timesteps=4)
    state.register_class(0, np.ones(4, dtype=np.float32))
    x = np.zeros((2, 1, 4), dtype=np.float32)
    y = np.array([0, 0])
    with pytest.raises(ValueError):
        compute_prototypes(state, x, y, [])
    with pytest.raises(KeyError):
        compute_prototypes(state, x, y, [5])
    state.register_class(1, np.ones(4, dtype=np.float32))
    with pytest.raises(ValueError):
        compute_prototypes(state, x, y, [1])  # no samples of class 1


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_hand_computed():
    state = _identity_state(channels=1, timesteps=2, temperature=1.0)
    state.register_class(0, np.array([1.0, 0.0], dtype=np.float32))
    state.register_class(1, np.array([0.0, 1.0], dtype=np.float32))
    feats = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
    scores = scores_graph(state, feats)
    loss = cross_entropy_graph(scores, np.array([0, 1]), [0, 1])
    # each row: sim (1, 0) to the true class, so p_true = 1 / (1 + e^-1)
    expect = -math.log(1.0 / (1.0 + math.exp(-1.0)))
    assert loss.item() == pytest.approx(expect, rel=1e-5)


def test_cross_entropy_uniform_weights_match_plain():
    rng = np.random.default_rng(61)
    state = _identity_state(channels=1, timesteps=6)
    for c in range(3):
        state.register_class(c, rng.standard_normal(6).astype(np.float32))
    feats = Tensor(rng.standard_normal((9, 6)).astype(np.float32))
    y = np.array([0, 1, 2] * 3)
    plain = cross_entropy_graph(scores_graph(state, feats), y, [0, 1, 2])
    weighted = cross_entropy_graph(scores_graph(state, feats), y, [0, 1, 2],
                                   {0: 1.0, 1: 1.0, 2: 1.0})
    assert plain.item() == pytest.approx(weighted.item(), rel=1e-6)


def test_cross_entropy_weighting_formula():
    rng = np.random.default_rng(62)
    state = _identity_state(channels=1, timesteps=4)
    for c in range(2):
        state.register_class(c, rng.standard_normal(4).astype(np.float32))
    feats_arr = rng.standard_normal((4, 4)).astype(np.float32)
    y = np.array([0, 0, 0, 1])
    weights = {0: 0.5, 1: 2.0}
    scores = scores_graph(state, Tensor(feats_arr))
    loss = cross_entropy_graph(scores, y, [0, 1], weights).item()
    probs = scores_batch(state, feats_arr)
    logp = np.log(probs[np.arange(4), y])
    w = np.array([weights[int(c)] for c in y])
    assert loss == pytest.approx(-float((w * logp).sum() / w.sum()), rel=1e-5)


def test_cross_entropy_unknown_label():
    state = _identity_state(channels=1, timesteps=2)
    state.register_class(0, np.ones(2, dtype=np.float32))
    scores = scores_graph(state, Tensor(np.ones((1, 2), dtype=np.float32)))
    with pytest.raises(KeyError):
        cross_entropy_graph(scores, np.array([9]), [0])


# ---------------------------------------------------------------------------
# base training


def _separable_data(n_per_class=20, seed=0):
    """Two constant-offset classes: trivially separable."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, 0.1, size=(n_per_class, 4, 16)) + 1.0
    x1 = rng.normal(0.0, 0.1, size=(n_per_class, 4, 16)) - 1.0
    x = np.concatenate([x0, x1]).astype(np.float32)
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return x, y


def test_train_base_fits_separable_data():
    x, y = _separable_data()
    cfg = _tiny_config(channels=4)
    state = train_base(x, y, cfg, BaseTrainConfig(epochs=50, seed=5))
    assert accuracy(state, x, y) >= 0.99
    assert state.seen_classes() == [0, 1]
    assert state.feature_stats is not None
    assert state.feature_stats.mean.shape == (cfg.feature_dim,)
    assert len(state.train_losses) == 50


def test_train_base_replaces_weights_with_prototypes():
    x, y = _separable_data()
    cfg = _tiny_config(channels=4)
    state = train_base(x, y, cfg, BaseTrainConfig(epochs=20, seed=5))
    with ad.no_grad():
        feats = embed_batch(state, x[y == 0]).data
    np.testing.assert_allclose(state.class_weights[0].data, feats.mean(axis=0),
                               rtol=1e-4, atol=1e-5)


def test_train_base_zero_lr_keeps_initial_backbone():
    x, y = _separable_data()
    cfg = _tiny_config(channels=4)
    state = train_base(x, y, cfg, BaseTrainConfig(epochs=5, learning_rate=0.0, seed=9))
    fresh = ConvBackbone.initialize(cfg, seed=9)
    for name in fresh.param_names():
        assert state.backbone.params[name].data.tobytes() == fresh.params[name].data.tobytes()


def test_train_base_deterministic():
    x, y = _separable_data()
    cfg = _tiny_config(channels=4)
    a = train_base(x, y, cfg, BaseTrainConfig(epochs=10, seed=5))
    b = train_base(x, y, cfg, BaseTrainConfig(epochs=10, seed=5))
    for name, t in a.all_parameters().items():
        assert t.data.tobytes() == b.all_parameters()[name].data.tobytes()


def test_train_base_validation():
    cfg = _tiny_config(channels=4)
    with pytest.raises(ValueError):
        train_base(np.zeros((0, 4, 16), dtype=np.float32), np.zeros(0), cfg)
    with pytest.raises(ValueError):
        train_base(np.zeros((3, 4, 16), dtype=np.float32), np.array([1, 1, 1]), cfg)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, 3e38])  # inf itself, or overflow to it
def test_train_base_infinite_input_raises_diverged(value):
    x, y = _separable_data()
    x[3, 1, 7] = value
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        train_base(x, y, _tiny_config(channels=4), BaseTrainConfig(epochs=5, seed=5))


def test_weighted_loss_uniform_counts_matches_plain():
    x, y = _separable_data()
    cfg = _tiny_config(channels=4)
    plain = train_base(x, y, cfg, BaseTrainConfig(epochs=10, seed=5))
    weighted = train_base(x, y, cfg, BaseTrainConfig(epochs=10, weighted_loss=True, seed=5))
    # balanced counts make the weights uniform, so training must agree
    np.testing.assert_allclose(plain.train_losses, weighted.train_losses, rtol=1e-5)
