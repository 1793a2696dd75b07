"""Tests for the backbone, metric classifier, and base training loop.

The backbone forward pass is checked against a loop-based transcription of
temporal conv -> spatial conv -> ReLU -> average pool; classifier scores are
checked against the closed-form softmax over cosine similarities.
"""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from anchorinv import autodiff as ad
from anchorinv.autodiff import NonFiniteError, ShapeError, Tensor
from anchorinv.anchors import AnchorSet
from anchorinv.inversion import InversionConfig, invert_set
from anchorinv.model import (BACKBONE_PRESETS, DEFAULT_TEMPERATURE, BaseTrainConfig,
                             ConvBackbone, ConvBackboneConfig, ModelState, TrainingDivergedError, accuracy,
                             embed_batch, head_loss,
                             label_columns, predict_batch, prototype_of,
                             scores_batch, train_base)
from oracles import IdentityBackbone, LinearBackbone, cosine_softmax


def _tiny_config(**overrides):
    base = dict(name="tiny", channels=3, timesteps=16, filters=2,
                temporal_kernel=5, temporal_stride=1, pool_kernel=4, pool_stride=2)
    base.update(overrides)
    return ConvBackboneConfig(**base)


def _identity_state(channels=2, timesteps=3):
    return ModelState(IdentityBackbone(channels, timesteps))


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
    with pytest.raises(TypeError):  # the backbone always applies its ReLU
        _tiny_config(activation="relu")
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
# pooling windows that leave the last conv columns out, and three filters
_FROZEN_PATH_CONFIGS = [
    BACKBONE_PRESETS["desk"],
    _tiny_config(name="strided", timesteps=40, filters=4, temporal_kernel=6,
                 temporal_stride=3, pool_kernel=4, pool_stride=3),
    _tiny_config(name="ragged", timesteps=37, filters=3, pool_kernel=6, pool_stride=4),
    _tiny_config(name="linear", filters=3),
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
    assert np.abs(backbone.embed(Tensor(x)).data - engine[0]).max() \
        <= 1e-5 * np.abs(engine[0]).max()
    expect = _embed_loops(x.astype(np.float64), cfg, backbone.params)
    np.testing.assert_allclose(frozen[0], expect, rtol=1e-4, atol=1e-5)


def test_embed_path_selection(spy_convs):
    calls = spy_convs("compose_conv")
    cfg = _tiny_config()
    state = ModelState(ConvBackbone.initialize(cfg, seed=2))
    for c in (0, 1):
        state.register_class(c, np.ones(cfg.feature_dim, dtype=np.float32) * (c + 1))
    x = np.random.default_rng(52).standard_normal((3, 3, 16)).astype(np.float32)

    def path_of(fn):
        calls.clear()
        fn()
        return list(calls)

    params = state.backbone.params
    # the parameters rest frozen: the fused conv, also for an x that takes a gradient
    assert path_of(lambda: embed_batch(state, x)) == ["conv_pool", "im2col"]
    assert path_of(lambda: predict_batch(state, x)) == ["conv_pool", "im2col"]
    assert path_of(lambda: prototype_of(state, x)) == ["conv_pool", "im2col"]
    assert path_of(lambda: embed_batch(state, Tensor(x, requires_grad=True))) \
        == ["conv_pool", "im2col"]
    for t in params.values():
        t.requires_grad = True
    # trainable: a 1 x 1 conv over the columns of x, or, when x takes a
    # gradient, the conv over x itself
    assert path_of(lambda: embed_batch(state, x)) == ["compose_conv", "im2col", "conv2d"]
    assert path_of(lambda: embed_batch(state, Tensor(x, requires_grad=True))) \
        == ["compose_conv", "conv2d", "im2col"]
    params["temporal_w"].requires_grad = params["temporal_b"].requires_grad = False
    # the frozen temporal features, then spatial over them
    assert path_of(lambda: embed_batch(state, x)) == ["conv2d", "im2col", "conv2d"]
    for t in params.values():
        t.requires_grad = False
    anchor = AnchorSet(np.ones((1, cfg.feature_dim), dtype=np.float32), np.zeros(1),
                       np.zeros(1))
    assert set(path_of(lambda: invert_set(state, anchor, InversionConfig(iterations=2)))) \
        == {"conv_pool", "im2col"}


def _embed_two_convs(backbone, x):
    """The backbone as a temporal conv then a spatial conv, each a generic
    ``conv2d``: the oracle of the composed path."""
    cfg, p = backbone.config, backbone.params
    n = x.shape[0]
    h = ad.conv2d(x.reshape((n, 1, cfg.channels, cfg.timesteps)), p["temporal_w"],
                  p["temporal_b"], stride=(1, cfg.temporal_stride))
    h = ad.conv2d(h, p["spatial_w"], p["spatial_b"])
    h = ad.avg_pool2d(ad.relu(h), kernel=(1, cfg.pool_kernel), stride=(1, cfg.pool_stride))
    return h.reshape((n, cfg.feature_dim))


@pytest.mark.parametrize("x_trains", [False, True], ids=["columns", "samples"])
def test_trainable_embed_frees_the_activations_no_vjp_reads(monkeypatch, x_trains):
    """A trainable embed keeps neither its pre-ReLU conv output nor its ReLU
    output, two (N, K, W_o) arrays: the VJPs keep the ReLU mask and the
    pooling geometry, so both arrays are freed while the loss graph lives,
    and the gradients have the bytes of a run that keeps both referenced."""
    cfg = BACKBONE_PRESETS["desk"]
    rng = np.random.default_rng(61)
    backbone = _random_backbone(cfg, rng)
    x = rng.standard_normal((6, cfg.channels, cfg.timesteps)).astype(np.float32)
    g = Tensor(rng.standard_normal((6, cfg.feature_dim)).astype(np.float32))
    real = {name: getattr(ad, name) for name in ("conv2d", "relu")}

    def grads(keep: bool):
        outputs = []

        def spy(fn):
            def run(*args, **kwargs):
                out = fn(*args, **kwargs)
                owner = out.data if out.data.base is None else out.data.base
                outputs.append(out if keep else weakref.ref(owner))
                return out
            return run

        for name, fn in real.items():
            monkeypatch.setattr(ad, name, spy(fn))
        for t in backbone.params.values():
            t.requires_grad, t.grad = True, None
        xt = Tensor(x, requires_grad=x_trains)
        loss = ad.tensor_sum(ad.mul(backbone.embed(xt), g))
        assert len(outputs) == 2
        if not keep:
            assert [ref() is None for ref in outputs] == [True, True]
        ad.backward(loss)
        return [t.grad.tobytes() for t in (xt, *backbone.params.values()) if t.requires_grad]

    assert grads(keep=False) == grads(keep=True)


def _features_and_grads(embed, backbone, x, g):
    """Features, dx and the four parameter gradients of sum(embed(x) * g)."""
    for t in backbone.params.values():
        t.requires_grad = True
    xt = Tensor(x.copy(), requires_grad=True)
    feats = embed(xt)
    ad.backward(ad.tensor_sum(ad.mul(feats, Tensor(g))))
    return [feats.data, xt.grad] + [backbone.params[n].grad for n in backbone.param_names()]


# the desk preset, a reduced bci geometry (22 channels, k_t 25, pool 75 / 15),
# the nhie temporal stride 4, and three filters
_COMPOSED_PATH_CONFIGS = [
    BACKBONE_PRESETS["desk"],
    _tiny_config(name="bci-reduced", channels=22, timesteps=150, filters=6,
                 temporal_kernel=25, pool_kernel=75, pool_stride=15),
    _tiny_config(name="nhie-stride-4", channels=8, timesteps=200, filters=5,
                 temporal_kernel=64, temporal_stride=4, pool_kernel=8, pool_stride=4),
    _tiny_config(name="linear", filters=3),
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
def test_frozen_temporal_layer_matches_two_conv_oracle(spy_convs, cfg, dtype, rtol):
    """With the temporal layer frozen and no gradient on the input, features
    and d spatial_w / spatial_b equal the two generic convs'.  The spatial
    weight runs over the frozen temporal features, which ``conv2d`` of the
    temporal weight makes, when F <= k_t, and the composed weight over the
    columns of the input otherwise."""
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

    calls = spy_convs("compose_conv")
    got = features_and_grads(backbone.embed)
    if cfg.filters <= cfg.temporal_kernel:
        assert calls == ["conv2d", "im2col", "conv2d"]
    else:
        assert calls == ["compose_conv", "im2col", "conv2d"]
    want = features_and_grads(lambda xt: _embed_two_convs(backbone, xt))
    for name, a, b in zip(["features", "spatial_w", "spatial_b"], got, want):
        assert a.dtype == dtype, name
        assert np.abs(a - b).max() <= rtol * np.abs(b).max(), name


def test_conv_input_kinds(spy_convs):
    """``conv_input`` builds the frozen temporal features (F 2 <= k_t 5) when
    neither the input nor the temporal layer trains, the columns when the
    input does not train, and otherwise hands back the samples.  Each embed
    of the columns or the features builds nothing from the input again and
    gives the features of the raw input."""
    calls = spy_convs()
    backbone = _random_backbone(_tiny_config(), np.random.default_rng(53))
    x = Tensor(np.random.default_rng(54).standard_normal((4, 3, 16)).astype(np.float32))
    params = list(backbone.params.values())
    want = backbone.embed(x).data
    spatial = [backbone.params["spatial_w"], backbone.params["spatial_b"]]
    columns = backbone.conv_input(x, params)
    assert columns.kind == "columns"
    for _ in range(2):
        calls.clear()
        assert backbone.embed(columns).data.tobytes() == want.tobytes()
        assert calls == ["conv2d"]
    assert backbone.conv_input(x, [x] + params).kind == "samples"
    calls.clear()
    features = backbone.conv_input(x, spatial)
    assert features.kind == "features" and calls == ["conv2d", "im2col"]
    assert not features.data.requires_grad   # built with no graph
    for t in params:
        t.requires_grad = t in spatial
    calls.clear()
    got = backbone.embed(features).data
    assert calls == ["conv2d"]
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
    with pytest.raises(ShapeError):
        backbone.conv_input(Tensor(np.zeros((2, 4, 16), dtype=np.float32)), params)


def test_features_input_refuses_a_trainable_temporal_layer():
    """Features built for a frozen temporal layer are refused, by a named
    ValueError, once ``temporal_w`` takes a gradient: they would not follow
    the layer's updates."""
    backbone = _random_backbone(_tiny_config(), np.random.default_rng(56))
    x = Tensor(np.random.default_rng(57).standard_normal((2, 3, 16)).astype(np.float32))
    features = backbone.conv_input(x, [backbone.params["spatial_w"]])
    backbone.params["temporal_w"].requires_grad = True
    with pytest.raises(ValueError, match="while the temporal layer trains"):
        backbone.embed(features)


def test_conv_input_past_one_block_is_the_samples(spy_convs, monkeypatch):
    """With a block of one sample's columns, a 4-sample batch's conv input is
    the samples, whose conv unfolds them one sample at a time on every embed,
    with the bits of the columns; a 1-sample batch's is its columns."""
    calls = spy_convs()
    backbone = _random_backbone(_tiny_config(), np.random.default_rng(53))
    x = Tensor(np.random.default_rng(54).standard_normal((4, 3, 16)).astype(np.float32))
    params = list(backbone.params.values())
    columns = backbone.conv_input(x, params)
    want = backbone.embed(columns).data
    cfg = backbone.config
    monkeypatch.setattr(ad, "_IM2COL_BLOCK_BYTES",
                        cfg.channels * cfg.temporal_kernel * cfg.conv_width * 4)
    samples = backbone.conv_input(x, params)
    assert samples.kind == "samples" and samples.data is x
    for _ in range(2):
        calls.clear()
        assert backbone.embed(samples).data.tobytes() == want.tobytes()
        assert calls.count("im2col") == 4
    assert backbone.conv_input(Tensor(x.data[:1]), params).kind == "columns"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_column_route_and_blocked_route_give_the_same_bits(spy_convs, monkeypatch, dtype):
    """The trainable embed of an input that takes no gradient gives the same
    features and the same four parameter gradients, to the bit, whether its
    conv runs over the batch's columns (one block) or, with a block of one
    sample, over the input block by block."""
    cfg = _COMPOSED_PATH_CONFIGS[1]
    rng = np.random.default_rng(59)
    backbone = _random_backbone(cfg, rng)
    for name, t in backbone.params.items():
        backbone.params[name] = Tensor(t.data.astype(dtype), requires_grad=True)
    x = Tensor(rng.standard_normal((5, cfg.channels, cfg.timesteps)).astype(dtype))
    g = Tensor(rng.standard_normal((5, cfg.feature_dim)).astype(dtype))
    calls = spy_convs()

    def features_and_grads():
        calls.clear()
        for t in backbone.params.values():
            t.grad = None
        feats = backbone.embed(x)
        ad.backward(ad.tensor_sum(ad.mul(feats, g)))
        return [feats.data] + [backbone.params[n].grad for n in backbone.param_names()]

    columns = features_and_grads()
    assert calls == ["im2col", "conv2d"]
    monkeypatch.setattr(ad, "_IM2COL_BLOCK_BYTES",
                        cfg.channels * cfg.temporal_kernel * cfg.conv_width * x.dtype.itemsize)
    blocked = features_and_grads()
    assert calls == ["conv2d"] + ["im2col"] * 10   # 5 blocks forward, 5 for dW
    for name, a, b in zip(["features"] + backbone.param_names(), columns, blocked):
        assert a.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_frozen_path_float32_overflow_raises(sign):
    cfg = _tiny_config()
    backbone = ConvBackbone.initialize(cfg, seed=3)
    for name in ("temporal_w", "spatial_w"):
        backbone.params[name].data[...] = 1.0   # every composed weight is positive
    x = Tensor(np.full((2, 3, 16), sign * 1e38, dtype=np.float32))
    # sign -1 overflows to -inf, which the ReLU would otherwise hide
    with pytest.raises(NonFiniteError):
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
    assert backbone.param_names() == ["temporal_w", "temporal_b", "spatial_w", "spatial_b"]
    assert list(backbone.params) == backbone.param_names()
    # finetuning trains the last layer, the spatial conv
    assert backbone.FINETUNED == ("spatial_w", "spatial_b")


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
# cosine distance: the negated similarity of the classifier's primitive


def cosine_distance(h, w) -> float:
    rows = [Tensor(np.asarray(v, dtype=np.float64).reshape(1, -1)) for v in (h, w)]
    return -float(ad.cosine_similarity_matrix(*rows).data[0, 0])


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
    scores = scores_batch(state, np.array([[1.0, 0.0]]))[0]
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


def test_head_loss_matches_scores_batch():
    # the training head's float32 log-probability of each (sample, class)
    # pair is the float64 scorer's
    rng = np.random.default_rng(56)
    state = _identity_state(channels=1, timesteps=6)
    for c in range(3):
        state.register_class(c, rng.standard_normal(6).astype(np.float32))
    feats = rng.standard_normal((8, 6)).astype(np.float32)
    graph = np.exp([[-head_loss(state, Tensor(row[None]), [c]).item() for c in range(3)]
                    for row in feats])
    plain = scores_batch(state, feats)
    np.testing.assert_allclose(graph, plain, rtol=1e-4, atol=1e-6)


def test_scores_batch_matches_the_numpy_scorer_bytewise():
    # the engine's float64 cosine and softmax nodes repeat the numpy formula's
    # float operations, down to the last bit
    rng = np.random.default_rng(58)
    for d in (7, 104, 2440):
        state = _identity_state(channels=1, timesteps=d)
        for c in range(int(rng.integers(1, 13))):
            state.register_class(c, rng.standard_normal(d).astype(np.float32))
        weights = np.stack([state.class_weights[c].data for c in state.seen_classes()])
        for _ in range(20):
            n = int(rng.integers(1, 71))
            feats = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3])
            feats[rng.integers(n)] *= rng.choice([0.0, 1.0])  # a clamped norm
            got = scores_batch(state, feats)
            assert got.dtype == np.float64
            assert got.tobytes() == cosine_softmax(feats, weights, DEFAULT_TEMPERATURE).tobytes()


def test_predict_tie_breaks_to_lowest_class_id():
    state = _identity_state(channels=1, timesteps=2)
    state.register_class(3, np.array([1.0, 0.0], dtype=np.float32))
    state.register_class(7, np.array([0.0, 1.0], dtype=np.float32))
    # equidistant from both weights
    assert predict_batch(state, np.array([[[1.0, 1.0]]]))[0] == 3


def test_predict_batch_matches_predict():
    rng = np.random.default_rng(57)
    state = _identity_state(channels=2, timesteps=3)
    for c in (1, 4, 9):
        state.register_class(c, rng.standard_normal(6).astype(np.float32))
    x = rng.standard_normal((10, 2, 3)).astype(np.float32)
    batch = predict_batch(state, x)
    single = [predict_batch(state, x[i:i + 1])[0] for i in range(10)]
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


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_hand_computed():
    state = _identity_state(channels=1, timesteps=2)
    state.register_class(0, np.array([1.0, 0.0], dtype=np.float32))
    state.register_class(1, np.array([0.0, 1.0], dtype=np.float32))
    feats = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
    loss = head_loss(state, feats, np.array([0, 1]))
    # each row: sim (1, 0) to the true class, so p_true = 1 / (1 + e^(-1/T))
    expect = -math.log(1.0 / (1.0 + math.exp(-1.0 / DEFAULT_TEMPERATURE)))
    assert loss.item() == pytest.approx(expect, rel=1e-5)


def test_cross_entropy_uniform_weights_match_plain():
    rng = np.random.default_rng(61)
    state = _identity_state(channels=1, timesteps=6)
    for c in range(3):
        state.register_class(c, rng.standard_normal(6).astype(np.float32))
    feats = Tensor(rng.standard_normal((9, 6)).astype(np.float32))
    y = np.array([0, 1, 2] * 3)
    plain = head_loss(state, feats, y)
    weighted = head_loss(state, feats, y, np.full(9, -1.0 / 9))
    assert plain.item() == pytest.approx(weighted.item(), rel=1e-6)


def test_cross_entropy_weighting_formula():
    rng = np.random.default_rng(62)
    state = _identity_state(channels=1, timesteps=4)
    for c in range(2):
        state.register_class(c, rng.standard_normal(4).astype(np.float32))
    feats_arr = rng.standard_normal((4, 4)).astype(np.float32)
    y = np.array([0, 0, 0, 1])
    w = np.array([{0: 0.5, 1: 2.0}[int(c)] for c in y])
    loss = head_loss(state, Tensor(feats_arr), y, -w / w.sum()).item()
    probs = scores_batch(state, feats_arr)
    logp = np.log(probs[np.arange(4), y])
    assert loss == pytest.approx(-float((w * logp).sum() / w.sum()), rel=1e-5)


def test_cross_entropy_unknown_label():
    state = _identity_state(channels=1, timesteps=2)
    state.register_class(0, np.ones(2, dtype=np.float32))
    with pytest.raises(KeyError):
        head_loss(state, Tensor(np.ones((1, 2), dtype=np.float32)), np.array([9]))


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


def test_train_base_unfolds_its_input_once(spy_convs):
    """Base training builds its input's columns once and runs one conv over
    them per epoch; prototypes and feature statistics then run the frozen
    ``conv_pool``."""
    calls = spy_convs()
    x, y = _separable_data()
    state = train_base(x, y, _tiny_config(channels=4), BaseTrainConfig(epochs=4, seed=5))
    assert calls[:calls.index("conv_pool")] == ["im2col"] + ["conv2d"] * 4


def test_train_base_epoch_builds_one_loss_node(spy_engine):
    """A desk base-training epoch builds its cross-entropy as one
    classifier-head node, ``cosine_nll``, not the stack / cosine / softmax /
    log / take_per_row / mean / neg chain."""
    calls = spy_engine("cosine_nll", "stack_rows", "cosine_similarity_matrix",
                       "softmax_with_temperature", "log", "take_per_row", "neg",
                       "tensor_mean", "tensor_sum", "mul_scalar")
    cfg = BACKBONE_PRESETS["desk"]
    rng = np.random.default_rng(58)
    x = rng.standard_normal((12, cfg.channels, cfg.timesteps)).astype(np.float32)
    train_base(x, np.arange(12) % 3, cfg, BaseTrainConfig(epochs=1, seed=5))
    assert calls == ["cosine_nll"]


@pytest.mark.parametrize("name,n", [("bci", 8), ("bci", 32), ("grabmyo", 16)],
                         ids=["bci-8", "bci-32", "grabmyo-16"])
def test_train_base_memory_is_bounded_by_one_column_block(name, n):
    """One base-training epoch at a full-scale geometry holds one
    ``_IM2COL_BLOCK_BYTES`` block of columns plus a few (N, K, W_o) float32
    activations and gradients, never the unfolded columns of the whole batch
    (H * k_t / K = 14 to 45 times as many floats): its traced peak stays
    under the block plus 4 activations.  With a 16 MB block, keeping the
    whole-batch columns read 16 x the activations past the block at bci,
    N = 32, and 47 x at grabmyo; VJPs that kept their parent tensors, and
    with them the pre-ReLU and ReLU outputs, read 4.2 to 6.5 x."""
    peak, activation_bytes = _train_base_peak(name, n)
    over = (peak - ad._IM2COL_BLOCK_BYTES) / activation_bytes
    assert over <= 4, f"peak is the block plus {over:.2f} x the activation bytes"


def test_bci_train_base_builds_one_sample_of_columns_at_a_time():
    """At the default block budget a bci base-training epoch at N = 24 (the
    batch of the bci benchmark's set-up) builds one sample's columns (2.05 MB)
    at a time: its traced peak stays under those columns plus 3 (N, K, W_o)
    float32 activations.  A 16 MB budget, which builds 7 samples' columns at
    once, reads 8.4 x the activations past one sample's columns, and VJPs
    that kept their parent tensors 4.7 x."""
    cfg = BACKBONE_PRESETS["bci"]
    _train_base_peak("bci", 2)  # the bci pooling matrices and numpy's lazy imports
    peak, activation_bytes = _train_base_peak("bci", 24)
    over = (peak - cfg.channels * cfg.temporal_kernel * cfg.conv_width * 4) / activation_bytes
    assert over <= 3, f"peak is one sample's columns plus {over:.2f} x the activation bytes"


def _train_base_peak(name: str, n: int) -> tuple[int, int]:
    """The traced peak of one base-training epoch of ``n`` random samples at
    the ``name`` geometry, and the bytes of its (N, K, W_o) float32 activations."""
    cfg = BACKBONE_PRESETS[name]
    rng = np.random.default_rng(57)
    x = rng.standard_normal((n, cfg.channels, cfg.timesteps)).astype(np.float32)
    y = np.arange(n) % 2
    tracemalloc.start()
    try:
        train_base(x, y, cfg, BaseTrainConfig(epochs=1, seed=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, n * cfg.filters * cfg.conv_width * 4


def test_base_train_config_validation():
    for bad in (0, -1, 1.5, "5", True):
        with pytest.raises(ValueError, match="epochs"):
            BaseTrainConfig(epochs=bad)
    with pytest.raises(ValueError, match="learning rate"):
        BaseTrainConfig(learning_rate=-1e-3)
    BaseTrainConfig(epochs=1, learning_rate=0.0)
    with pytest.raises(TypeError):  # the cosine temperature is always 16
        BaseTrainConfig(temperature=16.0)


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
