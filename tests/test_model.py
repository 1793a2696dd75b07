"""Tests for the backbone, metric classifier, and base training loop.

The backbone forward pass is checked against a loop-based transcription of
temporal conv -> spatial conv -> ReLU -> average pool; classifier scores are
checked against the closed-form softmax over cosine similarities.
"""

import math
import tracemalloc

import numpy as np
import pytest

from anchorinv import autodiff as ad
from anchorinv.autodiff import NonFiniteError, ShapeError, Tensor
from anchorinv.inversion import InversionConfig, invert_anchor
from anchorinv.model import (BACKBONE_PRESETS, BaseTrainConfig, ConvBackbone,
                             ConvBackboneConfig, IdentityBackbone,
                             LinearBackbone, ModelState, TrainingDivergedError, accuracy,
                             class_scores, compute_prototypes,
                             cosine_distance, cross_entropy_graph, embed_batch, label_columns,
                             predict, predict_batch, prototype_of,
                             reuse_unfolded_inputs, scores_batch, scores_graph,
                             train_base)


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


# geometries for the frozen-path oracle: the desk preset, a temporal stride,
# pooling windows that leave the last conv columns out, and no ReLU
_FROZEN_PATH_CONFIGS = [
    BACKBONE_PRESETS["desk"],
    _tiny_config(name="strided", timesteps=40, filters=4, temporal_kernel=6,
                 temporal_stride=3, pool_kernel=4, pool_stride=3),
    _tiny_config(name="ragged", timesteps=37, filters=3, pool_kernel=6, pool_stride=4),
    _tiny_config(name="linear", filters=3, activation="identity"),
]


def _random_backbone(cfg, rng):
    backbone = ConvBackbone.initialize(cfg, seed=int(rng.integers(1 << 16)))
    for t in backbone.params.values():  # non-zero biases too
        t.data += rng.normal(0.0, 0.3, size=t.shape).astype(np.float32)
    return backbone


def _embed_with_dx(backbone, x, g, trainable):
    """Features and d(sum(features * g))/dx, with the backbone trainable or not."""
    for t in backbone.params.values():
        t.requires_grad = trainable
    xt = Tensor(x.copy(), requires_grad=True)
    feats = backbone.embed(xt)
    ad.backward(ad.tensor_sum(ad.mul(feats, Tensor(g))))
    return feats.data, xt.grad


@pytest.mark.parametrize("cfg", _FROZEN_PATH_CONFIGS, ids=lambda c: c.name)
def test_frozen_path_matches_engine_path(cfg):
    rng = np.random.default_rng(51)
    backbone = _random_backbone(cfg, rng)
    x = rng.standard_normal((6, cfg.channels, cfg.timesteps)).astype(np.float32)
    g = rng.standard_normal((6, cfg.feature_dim)).astype(np.float32)
    engine = _embed_with_dx(backbone, x, g, trainable=True)
    frozen = _embed_with_dx(backbone, x, g, trainable=False)
    for got, want in zip(frozen, engine):
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
    with ad.no_grad():
        assert np.abs(backbone.embed(Tensor(x)).data - engine[0]).max() \
            <= 1e-5 * np.abs(engine[0]).max()
    if cfg.activation == "relu":
        expect = _embed_loops(x.astype(np.float64), cfg, backbone.params)
        np.testing.assert_allclose(frozen[0], expect, rtol=1e-4, atol=1e-5)


def test_embed_path_selection(spy_engine):
    calls = spy_engine("conv2d", "conv_pool", "compose_conv")
    cfg = _tiny_config()
    state = ModelState(ConvBackbone.initialize(cfg, seed=2))
    for c in (0, 1):
        state.register_class(c, np.ones(cfg.feature_dim, dtype=np.float32) * (c + 1))
    x = np.random.default_rng(52).standard_normal((3, 3, 16)).astype(np.float32)

    def path_of(fn):
        calls.clear()
        fn()
        return set(calls)

    params = state.backbone.params
    assert path_of(lambda: embed_batch(state, x)) == {"conv2d", "compose_conv"}  # trainable
    with ad.no_grad():
        assert path_of(lambda: embed_batch(state, x)) == {"conv_pool"}
    assert path_of(lambda: predict_batch(state, x)) == {"conv_pool"}
    assert path_of(lambda: prototype_of(state, x)) == {"conv_pool"}
    params["temporal_w"].requires_grad = params["temporal_b"].requires_grad = False
    assert path_of(lambda: embed_batch(state, x)) == {"conv2d"}   # spatial over features
    for t in params.values():
        t.requires_grad = False
    assert path_of(lambda: embed_batch(state, Tensor(x, requires_grad=True))) == {"conv_pool"}
    target = np.ones(cfg.feature_dim, dtype=np.float32)
    assert path_of(lambda: invert_anchor(state, target,
                                         InversionConfig(iterations=2))) == {"conv_pool"}
    for t in params.values():
        t.requires_grad = True
    assert path_of(lambda: invert_anchor(state, target,
                                         InversionConfig(iterations=2))) == {"conv_pool"}


def _embed_two_convs(backbone, x):
    """The backbone as a temporal conv then a spatial conv, each a generic
    ``conv2d``: the oracle of the composed path."""
    cfg, p = backbone.config, backbone.params
    n = x.shape[0]
    h = ad.conv2d(x.reshape((n, 1, cfg.channels, cfg.timesteps)), p["temporal_w"],
                  p["temporal_b"], stride=(1, cfg.temporal_stride))
    h = ad.conv2d(h, p["spatial_w"], p["spatial_b"])
    if cfg.activation == "relu":
        h = ad.relu(h)
    h = ad.avg_pool2d(h, kernel=(1, cfg.pool_kernel), stride=(1, cfg.pool_stride))
    return h.reshape((n, cfg.feature_dim))


def _features_and_grads(embed, backbone, x, g):
    """Features, dx and the four parameter gradients of sum(embed(x) * g)."""
    for t in backbone.params.values():
        t.requires_grad = True
    xt = Tensor(x.copy(), requires_grad=True)
    feats = embed(xt)
    ad.backward(ad.tensor_sum(ad.mul(feats, Tensor(g))))
    return [feats.data, xt.grad] + [backbone.params[n].grad for n in backbone.param_names()]


# the desk preset, a reduced bci geometry (22 channels, k_t 25, pool 75 / 15),
# the nhie temporal stride 4, and no ReLU
_COMPOSED_PATH_CONFIGS = [
    BACKBONE_PRESETS["desk"],
    _tiny_config(name="bci-reduced", channels=22, timesteps=150, filters=6,
                 temporal_kernel=25, pool_kernel=75, pool_stride=15),
    _tiny_config(name="nhie-stride-4", channels=8, timesteps=200, filters=5,
                 temporal_kernel=64, temporal_stride=4, pool_kernel=8, pool_stride=4),
    _tiny_config(name="linear", filters=3, activation="identity"),
]


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-10), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("cfg", _COMPOSED_PATH_CONFIGS, ids=lambda c: c.name)
def test_composed_path_matches_two_conv_oracle(spy_engine, cfg, dtype, rtol):
    """Features, dx and d temporal_w / temporal_b / spatial_w / spatial_b of the
    trainable embed equal those of the two generic convs."""
    rng = np.random.default_rng(55)
    backbone = _random_backbone(cfg, rng)
    for name, t in backbone.params.items():
        backbone.params[name] = Tensor(t.data.astype(dtype))
    x = rng.standard_normal((5, cfg.channels, cfg.timesteps)).astype(dtype)
    g = rng.standard_normal((5, cfg.feature_dim)).astype(dtype)
    calls = spy_engine("conv2d", "conv_pool")
    got = _features_and_grads(backbone.embed, backbone, x, g)
    assert calls == ["conv2d"]   # one conv, not a temporal-then-spatial pair
    want = _features_and_grads(lambda xt: _embed_two_convs(backbone, xt), backbone, x, g)
    names = ["features", "dx"] + backbone.param_names()
    for name, a, b in zip(names, got, want):
        assert a.dtype == dtype, name
        assert np.abs(a - b).max() <= rtol * np.abs(b).max(), name


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-10), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("cfg", _COMPOSED_PATH_CONFIGS + [
    _tiny_config(name="more-filters-than-taps", filters=6, temporal_kernel=3)],
    ids=lambda c: c.name)
def test_frozen_temporal_layer_matches_two_conv_oracle(spy_engine, cfg, dtype, rtol):
    """With the temporal layer frozen and no gradient on the input, features
    and d spatial_w / spatial_b equal the two generic convs'.  The spatial
    weight runs over the frozen temporal features when F <= k_t, and the
    composed weight over the unfolded columns otherwise."""
    rng = np.random.default_rng(58)
    backbone = _random_backbone(cfg, rng)
    for name, t in backbone.params.items():
        backbone.params[name] = Tensor(t.data.astype(dtype),
                                       requires_grad=name.startswith("spatial"))
    x = Tensor(rng.standard_normal((5, cfg.channels, cfg.timesteps)).astype(dtype))
    g = Tensor(rng.standard_normal((5, cfg.feature_dim)).astype(dtype))
    spatial = [backbone.params["spatial_w"], backbone.params["spatial_b"]]

    def features_and_grads(embed):
        feats = embed(x)
        ad.backward(ad.tensor_sum(ad.mul(feats, g)))
        return [feats.data] + [t.grad for t in spatial]

    calls = spy_engine("unfold", "temporal_features", "compose_conv", "conv2d")
    got = features_and_grads(backbone.embed)
    if cfg.filters <= cfg.temporal_kernel:
        assert calls == ["temporal_features", "conv2d"]
    else:
        assert calls == ["compose_conv", "unfold", "conv2d"]
    want = features_and_grads(lambda xt: _embed_two_convs(backbone, xt))
    for name, a, b in zip(["features", "spatial_w", "spatial_b"], got, want):
        assert a.dtype == dtype, name
        assert np.abs(a - b).max() <= rtol * np.abs(b).max(), name


def test_reuse_unfolded_inputs_scope(spy_engine):
    """Inside the scope each distinct input is unfolded once, whichever layers
    train, and its frozen temporal features are made once; a gradient on the
    input bypasses the reuse; nothing stays cached after the scope, also when
    its body raises."""
    calls = spy_engine("unfold", "temporal_features")
    backbone = _random_backbone(_tiny_config(), np.random.default_rng(53))
    rng = np.random.default_rng(54)
    x = rng.standard_normal((4, 3, 16)).astype(np.float32)
    other = rng.standard_normal((4, 3, 16)).astype(np.float32)
    want = backbone.embed(Tensor(x)).data

    def unfolds(fn):
        """Columns or features made while fn runs."""
        calls.clear()
        fn()
        return len(calls)

    with reuse_unfolded_inputs(backbone):
        assert unfolds(lambda: backbone.embed(Tensor(x))) == 1
        # an equal array (another object) reuses the columns
        assert unfolds(lambda: backbone.embed(Tensor(x.copy()))) == 0
        assert backbone.embed(Tensor(x.copy())).data.tobytes() == want.tobytes()
        assert unfolds(lambda: backbone.embed(Tensor(other))) == 1
        assert unfolds(lambda: backbone.embed(Tensor(other))) == 0
        assert unfolds(lambda: backbone.embed(Tensor(x, requires_grad=True))) == 1
        for name, t in backbone.params.items():
            t.requires_grad = name.startswith("spatial")
        # the frozen temporal features of x (F 2 <= k_t 5), made once
        assert unfolds(lambda: backbone.embed(Tensor(x))) == 1
        assert calls == ["temporal_features"]
        assert unfolds(lambda: backbone.embed(Tensor(x))) == 0
        features = backbone.embed(Tensor(x)).data
        assert np.abs(features - want).max() <= 1e-5 * np.abs(want).max()
        for t in backbone.params.values():
            t.requires_grad = True
        assert unfolds(lambda: backbone.embed(Tensor(x))) == 0   # the columns are kept
        assert len(backbone._column_cache) == 3
    assert backbone._column_cache is None
    assert unfolds(lambda: backbone.embed(Tensor(x))) == 1
    with pytest.raises(RuntimeError):
        with reuse_unfolded_inputs(backbone):
            backbone.embed(Tensor(x))
            raise RuntimeError("the body fails")
    assert backbone._column_cache is None
    with reuse_unfolded_inputs(IdentityBackbone(3, 16)):  # no conv to unfold for
        pass


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_frozen_path_float32_overflow_raises(sign):
    cfg = _tiny_config()
    backbone = ConvBackbone.initialize(cfg, seed=3)
    for name in ("temporal_w", "spatial_w"):
        backbone.params[name].data[...] = 1.0   # every composed weight is positive
    x = Tensor(np.full((2, 3, 16), sign * 1e38, dtype=np.float32))
    # sign -1 overflows to -inf, which the ReLU would otherwise hide
    with ad.no_grad(), pytest.raises(NonFiniteError):
        backbone.embed(x)


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


def test_label_columns_matches_a_dict_lookup():
    order = [0, 2, 3, 7, 11]
    labels = np.array([7, 0, 11, 3, 3, 2, 0])
    col_of = {c: i for i, c in enumerate(order)}
    np.testing.assert_array_equal(label_columns(labels, order), [col_of[c] for c in labels])
    assert label_columns(np.array([], dtype=np.int64), order).shape == (0,)
    for unknown in (1, -1, 12):
        with pytest.raises(KeyError, match=f"label {unknown} is not a known class"):
            label_columns(np.array([0, unknown]), order)
    with pytest.raises(KeyError, match="label 7 is not a known class"):
        label_columns(np.array([7]), [])
    with pytest.raises(ValueError, match="does not ascend"):
        label_columns(np.array([2]), [3, 2])


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


def test_train_base_unfolds_its_input_once(spy_engine):
    calls = spy_engine("unfold", "conv2d")
    x, y = _separable_data()
    state = train_base(x, y, _tiny_config(channels=4), BaseTrainConfig(epochs=4, seed=5))
    assert calls.count("unfold") == 1
    assert calls.count("conv2d") == 4
    assert state.backbone._column_cache is None


def test_train_base_epoch_builds_one_loss_node(spy_engine):
    """A desk base-training epoch builds its cross-entropy as one ``nll``
    node, not the log / take_per_row / mean / neg chain."""
    calls = spy_engine("nll", "log", "take_per_row", "neg", "tensor_mean", "tensor_sum",
                       "mul_scalar")
    cfg = BACKBONE_PRESETS["desk"]
    rng = np.random.default_rng(58)
    x = rng.standard_normal((12, cfg.channels, cfg.timesteps)).astype(np.float32)
    train_base(x, np.arange(12) % 3, cfg, BaseTrainConfig(epochs=1, seed=5))
    assert calls == ["nll"]


def test_train_base_memory_is_bounded_by_the_unfolded_columns():
    """One base-training epoch at the bci geometry keeps the unfolded columns
    of its input, N * H * k_t * W_o floats, and no (N, F, H, W_o) temporal
    activations or their gradient (F = 40 > k_t = 25 there): its traced peak
    stays under twice the column bytes."""
    cfg = BACKBONE_PRESETS["bci"]
    n = 8
    rng = np.random.default_rng(57)
    x = rng.standard_normal((n, cfg.channels, cfg.timesteps)).astype(np.float32)
    y = np.arange(n) % 2
    column_bytes = n * cfg.channels * cfg.temporal_kernel * cfg.conv_width * 4
    tracemalloc.start()
    try:
        train_base(x, y, cfg, BaseTrainConfig(epochs=1, seed=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * column_bytes, f"peak {peak / column_bytes:.2f} x the column bytes"


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
