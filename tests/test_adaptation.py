"""Tests for the composite replay loss, constrained finetuning, prototype
adapters, and the per-method incremental chains."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from anchorinv import autodiff as ad
from anchorinv.adaptation import (METHODS, AdaptationConfig, FinetuneConfig,
                                  adapt_protonet, adapt_teen,
                                  base_anchor_memory, composite_loss,
                                  finetune_session, init_new_class_weights,
                                  random_new_class_weights, replay_batch, run_fscil,
                                  sample_base_replay_store)
from anchorinv.anchors import AnchorSet
from anchorinv.autodiff import Tensor
from anchorinv.data import Dataset
from anchorinv.inversion import InversionConfig, ReplaySet
from anchorinv.model import (BACKBONE_PRESETS, DEFAULT_TEMPERATURE, ConvBackbone,
                             ConvBackboneConfig, ModelState, embed_batch, head_loss,
                             train_base)
from anchorinv.optim import minimize
from anchorinv.presets import get_preset
from oracles import IdentityBackbone


def _tiny_config(**overrides):
    base = dict(name="tiny", channels=3, timesteps=16, filters=2,
                temporal_kernel=5, temporal_stride=1, pool_kernel=4, pool_stride=2)
    base.update(overrides)
    return ConvBackboneConfig(**base)


def _two_class_state():
    state = ModelState(IdentityBackbone(1, 2))
    state.register_class(0, np.array([1.0, 0.0], dtype=np.float32))
    state.register_class(1, np.array([0.0, 1.0], dtype=np.float32))
    return state


def _softmax_ce(sims, temperature, col):
    z = np.asarray(sims, dtype=np.float64) / temperature
    z -= z.max()
    p = np.exp(z) / np.exp(z).sum()
    return -np.log(p[col])


def _dataset(rows, labels):
    x = np.asarray(rows, dtype=np.float32).reshape(len(rows), 1, 2)
    return Dataset(x, np.asarray(labels, dtype=np.int64))


# ---------------------------------------------------------------------------
# composite loss


def test_composite_loss_hand_oracle():
    state = _two_class_state()
    new = _dataset([[1.0, 0.0]], [0])       # cos sims (1, 0) -> CE toward 0
    replay = _dataset([[0.0, 1.0]], [1])
    ce_new = _softmax_ce([1.0, 0.0], DEFAULT_TEMPERATURE, 0)
    ce_replay = _softmax_ce([0.0, 1.0], DEFAULT_TEMPERATURE, 1)
    got = composite_loss(state, *replay_batch(replay, new)).item()
    assert got == pytest.approx(ce_new + ce_replay, rel=1e-5)
    # the two sets weigh the same: a replay of two copies gives the same loss
    doubled = _dataset([[0.0, 1.0]] * 2, [1, 1])
    assert composite_loss(state, *replay_batch(doubled, new)).item() \
        == pytest.approx(got, rel=1e-6)


def test_composite_loss_is_one_loss_node(spy_engine):
    """The composite loss is one classifier-head node, ``cosine_nll``: no
    stack, cosine, softmax or log / take_per_row / mul / sum chain."""
    calls = spy_engine("cosine_nll", "stack_rows", "cosine_similarity_matrix",
                       "softmax_with_temperature", "log", "take_per_row", "mul", "tensor_sum")
    state = _two_class_state()
    new = _dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    replay = _dataset([[0.0, 1.0]], [1])
    composite_loss(state, *replay_batch(replay, new))
    assert calls == ["cosine_nll"]


def test_composite_loss_replay_conventions():
    state = _two_class_state()
    new = _dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    base = composite_loss(state, *replay_batch(None, new)).item()
    empty = _dataset(np.zeros((0, 2)), [])
    assert composite_loss(state, *replay_batch(empty, new)).item() == base
    # an anchor inversion's samples reach finetuning as a Dataset, the one
    # replay type: the ReplaySet itself is refused
    rows = np.asarray([[[0.0, 1.0]]], dtype=np.float32)
    as_set = ReplaySet(rows, np.array([1]), np.zeros(1), np.zeros(1))
    as_data = Dataset(rows, np.array([1], dtype=np.int64))
    a = composite_loss(state, *replay_batch(Dataset(as_set.samples, as_set.labels), new)).item()
    b = composite_loss(state, *replay_batch(as_data, new)).item()
    assert a == b
    with pytest.raises(TypeError, match="replay must be a Dataset or None, got ReplaySet"):
        replay_batch(as_set, new)


def test_composite_loss_replay_only_and_errors():
    state = _two_class_state()
    replay = _dataset([[0.0, 1.0]], [1])
    expect = _softmax_ce([0.0, 1.0], DEFAULT_TEMPERATURE, 1)
    got = composite_loss(state, *replay_batch(replay, None)).item()
    assert got == pytest.approx(expect, rel=1e-5)
    with pytest.raises(ValueError):
        replay_batch(None, None)
    with pytest.raises(TypeError):
        replay_batch([1, 2, 3], None)


def _two_means_loss(state, replay, new):
    """mean CE(new) + mean CE(replay), each set embedded on its own."""
    def ce(x, y):
        return head_loss(state, embed_batch(state, x), y)

    return ad.add(ce(new.x, new.y), ce(replay.x, replay.y))


def _conv_sets(shape, n_new, n_replay, seed):
    """A new class 2 of ``n_new`` samples and a replay set of ``n_replay``
    samples of the two base classes."""
    rng = np.random.default_rng(seed)
    new = Dataset(rng.standard_normal((n_new,) + shape).astype(np.float32) + 0.5,
                  np.full(n_new, 2, dtype=np.int64))
    labels = np.arange(n_replay) % 2
    replay = Dataset(rng.standard_normal((n_replay,) + shape).astype(np.float32), labels)
    return new, replay


def test_composite_loss_conv_backbone_unequal_sets():
    state = _conv_state()
    new, replay = _conv_sets((3, 16), n_new=5, n_replay=7, seed=136)
    state.register_class(2, np.random.default_rng(136).standard_normal(state.feature_dim))
    got = composite_loss(state, *replay_batch(replay, new)).item()
    assert got == pytest.approx(_two_means_loss(state, replay, new).item(), rel=1e-5)


def _reference_finetune(state, replay, new, config, log, seed):
    """finetune_session without the conv input built once or the joint batch: the same
    minimize over the two-mean loss, every embed on the engine path."""
    out = state.clone()
    new_classes = new.classes()
    if config.prototype_init:
        init_new_class_weights(out, new)
    else:
        random_new_class_weights(out, new_classes, seed)
    trainable = [out.backbone.params[name] for name in ("spatial_w", "spatial_b")]
    trainable += [out.class_weights[c] for c in new_classes]
    ids = {id(t) for t in trainable}
    frozen = [t for t in out.all_parameters().values() if id(t) not in ids]
    log.extend(minimize(trainable, lambda i: _two_means_loss(out, replay, new),
                        config.iterations, config.learning_rate, frozen=frozen))
    return out


def _assert_close_states(got, want, rel=1e-5):
    assert got.all_parameters().keys() == want.all_parameters().keys()
    for name, t in want.all_parameters().items():
        diff = np.abs(got.all_parameters()[name].data - t.data).max()
        assert diff <= rel * np.abs(t.data).max(), name


_DESK_FINETUNE = get_preset("desk").adaptation.finetune


@pytest.mark.parametrize("cfg,config", [
    (_tiny_config(), FinetuneConfig(learning_rate=1e-2, iterations=40)),
    (BACKBONE_PRESETS["desk"], _DESK_FINETUNE),
], ids=["tiny", "desk"])
def test_finetune_matches_uncached_reference(cfg, config):
    state = ModelState(ConvBackbone.initialize(cfg, seed=11))
    rng = np.random.default_rng(137)
    for c in (0, 1):
        state.register_class(c, rng.standard_normal(state.feature_dim))
    new, replay = _conv_sets(cfg.sample_shape, n_new=10, n_replay=6, seed=138)
    got_log, want_log = [], []
    got = finetune_session(state, replay, new, config, got_log, seed=4)
    want = _reference_finetune(state, replay, new, config, want_log, seed=4)
    assert len(got_log) == config.iterations
    np.testing.assert_allclose(got_log, want_log, rtol=1e-5)
    _assert_close_states(got, want)


def _after_last_conv_pool(calls):
    """The calls after the last ``conv_pool`` and its one block of columns:
    those of the optimisation loop, which follows the prototypes of the new
    classes."""
    start = len(calls) - calls[::-1].index("conv_pool")
    assert calls[start] == "im2col"
    return calls[start + 1:]


def test_finetune_composed_conv_unfolds_once(spy_convs):
    """With more temporal filters than taps (6 > 5, as at bci) finetuning runs
    the composed conv over the joint batch's columns, which fit one block:
    they are unfolded once per session and convolved once per
    iteration.  The reference embeds its two sets as new arrays on every
    iteration, so each of its embeds builds its columns anew."""
    state = _conv_state(cfg=_tiny_config(filters=6))
    new, replay = _conv_sets((3, 16), n_new=4, n_replay=6, seed=139)
    config = FinetuneConfig(learning_rate=1e-2, iterations=6)
    calls = spy_convs()
    got_log, want_log = [], []
    got = finetune_session(state, replay, new, config, got_log, seed=1)
    assert _after_last_conv_pool(calls) == ["im2col"] + ["conv2d"] * config.iterations
    calls.clear()
    want = _reference_finetune(state, replay, new, config, want_log, seed=1)
    assert _after_last_conv_pool(calls) \
        == ["im2col", "conv2d"] * 2 * config.iterations
    np.testing.assert_allclose(got_log, want_log, rtol=1e-5)
    _assert_close_states(got, want)
    for name in ("temporal_w", "temporal_b"):
        assert got.backbone.params[name].data.tobytes() \
            == state.backbone.params[name].data.tobytes()


def test_finetune_builds_frozen_temporal_features_once(spy_convs):
    """The default finetune trains ``spatial`` only, and the tiny backbone has
    fewer temporal filters than taps (2 < 5): the session makes the joint
    batch's temporal features once, one conv over its input, and runs one
    conv over them per iteration."""
    state = _conv_state()
    new, replay = _conv_sets((3, 16), n_new=4, n_replay=6, seed=140)
    calls = spy_convs("compose_conv")
    finetune_session(state, replay, new, FinetuneConfig(iterations=5), seed=1)
    assert _after_last_conv_pool(calls) == ["conv2d", "im2col"] + ["conv2d"] * 5
    assert "compose_conv" not in calls


def test_finetune_memory_is_bounded_by_the_frozen_temporal_features():
    """A default finetune at the nhie geometry (F = 40 < k_t = 64) keeps the
    frozen temporal features of its batch, N * F * H * W_o floats, and never
    holds the 1.6 x larger columns of the whole batch next to them, nor a
    second joint batch or the previous step's graph: its traced peak stays
    under 1.9 x the feature bytes (holding the columns too reads 2.7 x, and
    a new joint batch per step with the previous graph alive 2.1 x)."""
    cfg = BACKBONE_PRESETS["nhie"]
    state = ModelState(ConvBackbone.initialize(cfg, seed=5))
    rng = np.random.default_rng(141)
    for c in (0, 1):
        state.register_class(c, rng.standard_normal(state.feature_dim))
    new, replay = _conv_sets(cfg.sample_shape, n_new=4, n_replay=36, seed=142)
    feature_bytes = 40 * cfg.filters * cfg.channels * cfg.conv_width * 4
    tracemalloc.start()
    try:
        finetune_session(state, replay, new, FinetuneConfig(iterations=2), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.9 * feature_bytes, f"peak {peak / feature_bytes:.2f} x the feature bytes"


def test_finetune_memory_is_bounded_by_one_column_block():
    """A default finetune at the bci geometry (F = 40 > k_t = 25: the composed
    conv, whose 40-sample joint batch has columns over 40 blocks, one sample
    each) rebuilds its columns block by block and frees each step's graph
    before the next: its traced peak stays under one ``_IM2COL_BLOCK_BYTES``
    block plus 3.25 (N, K, W_o) float32 activations.  With a 16 MB block,
    keeping the whole-batch columns read 19 x the activations past the block,
    and keeping the previous step's graph while a new joint batch is built
    each step 6.5 x; VJPs that kept their parent tensors read 4.8 x."""
    peak, activation_bytes = _bci_finetune_peak()
    over = (peak - ad._IM2COL_BLOCK_BYTES) / activation_bytes
    assert over <= 3.25, f"peak is the block plus {over:.2f} x the activation bytes"


def test_bci_finetune_builds_one_sample_of_columns_at_a_time():
    """At the default block budget the default bci finetune of the test above
    builds one sample's columns (2.05 MB) at a time: its traced peak stays
    under those columns plus 3.5 (N, K, W_o) float32 activations.  A 16 MB
    budget, which builds 7 samples' columns at once, reads 7.4 x the
    activations past one sample's columns, and VJPs that kept their parent
    tensors 5.2 x."""
    cfg = BACKBONE_PRESETS["bci"]
    peak, activation_bytes = _bci_finetune_peak()
    over = (peak - cfg.channels * cfg.temporal_kernel * cfg.conv_width * 4) / activation_bytes
    assert over <= 3.5, f"peak is one sample's columns plus {over:.2f} x the activation bytes"


def _bci_finetune_peak() -> tuple[int, int]:
    """The traced peak of a two-iteration default finetune at the bci geometry
    on a 40-sample joint batch, and the bytes of its (N, K, W_o) float32
    activations."""
    cfg = BACKBONE_PRESETS["bci"]
    state = ModelState(ConvBackbone.initialize(cfg, seed=5))
    rng = np.random.default_rng(143)
    for c in (0, 1):
        state.register_class(c, rng.standard_normal(state.feature_dim))
    new, replay = _conv_sets(cfg.sample_shape, n_new=4, n_replay=36, seed=144)
    tracemalloc.start()
    try:
        finetune_session(state, replay, new, FinetuneConfig(iterations=2), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, 40 * cfg.filters * cfg.conv_width * 4


# ---------------------------------------------------------------------------
# new-class initialization


def test_init_new_class_weights_prototypes():
    state = _two_class_state()
    rng = np.random.default_rng(130)
    rows = rng.standard_normal((4, 1, 2)).astype(np.float32)
    new = Dataset(rows, np.array([2, 2, 3, 3]))
    init_new_class_weights(state, new)
    np.testing.assert_allclose(state.class_weights[2].data,
                               rows[:2].reshape(2, 2).mean(axis=0), rtol=1e-6)
    np.testing.assert_allclose(state.class_weights[3].data,
                               rows[2:].reshape(2, 2).mean(axis=0), rtol=1e-6)
    with pytest.raises(ValueError, match="class 2 already registered"):
        init_new_class_weights(state, new)


def test_random_new_class_weights():
    a = _two_class_state()
    b = _two_class_state()
    random_new_class_weights(a, [2, 3], seed=4)
    random_new_class_weights(b, [3, 2], seed=4)
    # registration order is sorted, so the draw is order-independent
    assert a.class_weights[2].data.tobytes() == b.class_weights[2].data.tobytes()
    with pytest.raises(ValueError):
        random_new_class_weights(a, [2], seed=4)
    with pytest.raises(TypeError):  # the scale is always 0.1
        random_new_class_weights(_two_class_state(), [2], seed=4, scale=0.2)


# ---------------------------------------------------------------------------
# finetuning and the freezing contract


def _conv_state(seed=3, cfg=None):
    backbone = ConvBackbone.initialize(cfg or _tiny_config(), seed=seed)
    state = ModelState(backbone)
    rng = np.random.default_rng(seed + 100)
    state.register_class(0, rng.standard_normal(state.feature_dim))
    state.register_class(1, rng.standard_normal(state.feature_dim))
    return state


def test_finetune_freezes_everything_outside_trainable_set():
    state = _conv_state()
    rng = np.random.default_rng(131)
    new = Dataset(rng.standard_normal((6, 3, 16)).astype(np.float32),
                  np.full(6, 2, dtype=np.int64))
    config = FinetuneConfig(learning_rate=1e-2, iterations=5)
    out = finetune_session(state, None, new, config, seed=1)
    # untouched: temporal layer, old classifier entries, the input state itself
    for name in ("temporal_w", "temporal_b"):
        assert out.backbone.params[name].data.tobytes() \
            == state.backbone.params[name].data.tobytes()
    for c in (0, 1):
        assert out.class_weights[c].data.tobytes() \
            == state.class_weights[c].data.tobytes()
    # moved: spatial layer and the new class weights
    assert out.backbone.params["spatial_w"].data.tobytes() \
        != state.backbone.params["spatial_w"].data.tobytes()
    assert 2 in out.class_weights
    # every flag back at rest, frozen, afterwards
    for t in out.all_parameters().values():
        assert not t.requires_grad


def test_finetune_zero_iterations_only_registers():
    state = _conv_state()
    rng = np.random.default_rng(132)
    new = Dataset(rng.standard_normal((4, 3, 16)).astype(np.float32),
                  np.full(4, 2, dtype=np.int64))
    out = finetune_session(state, None, new, FinetuneConfig(iterations=0), seed=1)
    assert out.seen_classes() == [0, 1, 2]
    for name, t in state.backbone.params.items():
        assert out.backbone.params[name].data.tobytes() == t.data.tobytes()
    feats = embed_batch(state, new.x).data
    np.testing.assert_allclose(out.class_weights[2].data, feats.mean(axis=0),
                               rtol=1e-5)


def test_finetune_rejects_seen_classes():
    state = _conv_state()
    new = Dataset(np.zeros((2, 3, 16), dtype=np.float32), np.array([1, 1]))
    with pytest.raises(ValueError):
        finetune_session(state, None, new, FinetuneConfig(iterations=0), seed=1)


def test_finetune_detects_frozen_drift(monkeypatch):
    import anchorinv.adaptation as adaptation
    state = _conv_state()
    rng = np.random.default_rng(133)
    new = Dataset(rng.standard_normal((3, 3, 16)).astype(np.float32),
                  np.full(3, 2, dtype=np.int64))
    real_loss = adaptation.composite_loss

    def corrupting_loss(st, x, y, w):
        st.class_weights[0].data += 1.0  # frozen base class
        return real_loss(st, x, y, w)

    monkeypatch.setattr(adaptation, "composite_loss", corrupting_loss)
    with pytest.raises(RuntimeError):
        finetune_session(state, None, new, FinetuneConfig(iterations=1), seed=1)


def test_finetune_naive_is_empty_replay():
    state = _conv_state()
    rng = np.random.default_rng(134)
    new = Dataset(rng.standard_normal((5, 3, 16)).astype(np.float32),
                  np.full(5, 2, dtype=np.int64))
    config = FinetuneConfig(learning_rate=5e-3, iterations=4)
    a = finetune_session(state, None, new, config, seed=2)
    b = finetune_session(state, Dataset(np.zeros((0, 3, 16)), []), new, config, seed=2)
    for name, t in a.backbone.params.items():
        assert b.backbone.params[name].data.tobytes() == t.data.tobytes()
    assert a.class_weights[2].data.tobytes() == b.class_weights[2].data.tobytes()


def test_finetune_refuses_a_replay_set_before_cloning(monkeypatch):
    state = _conv_state()
    new = Dataset(np.zeros((2, 3, 16), dtype=np.float32), np.full(2, 2, dtype=np.int64))
    replay = ReplaySet(np.zeros((1, 3, 16)), [0], [0], [0.0])
    clones = []
    monkeypatch.setattr(ModelState, "clone", lambda self: clones.append(self))
    with pytest.raises(TypeError, match="replay must be a Dataset or None, got ReplaySet"):
        finetune_session(state, replay, new, FinetuneConfig(iterations=1), seed=1)
    assert clones == []


def test_finetune_config_validation():
    with pytest.raises(ValueError):
        FinetuneConfig(iterations=-1)
    for bad in (1.5, "5", True):
        with pytest.raises(ValueError, match="iterations"):
            FinetuneConfig(iterations=bad)
    FinetuneConfig(iterations=0)
    # the new classes' weights always train, from prototypes or 0.1 x a normal
    # draw from the session's seed, beside the spatial layer, on the new set and
    # the replay at weight 1
    for field in ("train_new_classifier", "new_class_init_scale", "replay_weight",
                  "trainable_layers", "seed"):
        with pytest.raises(TypeError):
            FinetuneConfig(**{field: 1})


def test_adaptation_config_counts():
    for field in ("anchors_per_class", "real_per_class", "label_inversion_iterations"):
        for bad in (0, 2.0, "5", True):
            with pytest.raises(ValueError, match=field):
                AdaptationConfig(**{field: bad})
    AdaptationConfig(anchors_per_class=1, real_per_class=1, label_inversion_iterations=1)


def test_finetune_loss_log_decreases():
    state = _conv_state()
    rng = np.random.default_rng(135)
    x = rng.standard_normal((8, 3, 16)).astype(np.float32) + 2.0
    new = Dataset(x, np.full(8, 2, dtype=np.int64))
    log = []
    finetune_session(state, None, new, FinetuneConfig(learning_rate=1e-2, iterations=30), log,
                     seed=3)
    assert len(log) == 30
    assert log[-1] < log[0]


# ---------------------------------------------------------------------------
# prototype adapters


def test_adapt_protonet_prototypes_and_repeated_class():
    state = _two_class_state()
    rng = np.random.default_rng(136)
    rows = rng.standard_normal((4, 1, 2)).astype(np.float32)
    new = Dataset(rows, np.array([2, 2, 2, 2]))
    a = adapt_protonet(state, new)
    np.testing.assert_allclose(a.class_weights[2].data,
                               rows.reshape(4, 2).mean(axis=0), rtol=1e-6)
    assert 2 not in state.class_weights  # input state untouched
    with pytest.raises(ValueError, match="already registered"):
        adapt_protonet(a, new)  # as finetune and teen do


def test_adapt_teen_formula_oracle():
    state = _two_class_state()
    rng = np.random.default_rng(138)
    rows = rng.standard_normal((6, 1, 2)).astype(np.float32)
    new = Dataset(rows, np.full(6, 2, dtype=np.int64))
    tau, alpha = 32.0, 0.5
    got = adapt_teen(state, new, [0, 1]).class_weights[2].data

    proto = rows.reshape(6, 2).astype(np.float64).mean(axis=0)
    base = np.stack([state.class_weights[0].data,
                     state.class_weights[1].data]).astype(np.float64)
    unit_b = base / np.linalg.norm(base, axis=1)[:, None]
    sims = unit_b @ (proto / np.linalg.norm(proto))
    w = np.exp(tau * sims - (tau * sims).max())
    w /= w.sum()
    expect = alpha * proto + (1 - alpha) * (w @ base)
    np.testing.assert_allclose(got, expect.astype(np.float32), rtol=1e-5)


def test_adapt_teen_validation():
    state = _two_class_state()
    new = _dataset([[1.0, 1.0]], [2])
    with pytest.raises(ValueError):
        adapt_teen(state, new, [])
    with pytest.raises(ValueError):
        adapt_teen(state, new, [0, 9])
    adapted = adapt_teen(state, new, [0, 1])
    with pytest.raises(ValueError):
        adapt_teen(adapted, new, [0, 1])  # class 2 now already registered
    for kwargs in ({"tau": 8.0}, {"alpha": 0.3}):  # fixed at 32 and 0.5
        with pytest.raises(TypeError):
            adapt_teen(state, new, [0, 1], **kwargs)
    for field in ("teen_tau", "teen_alpha", "label_inversion_learning_rate"):
        with pytest.raises(TypeError):
            AdaptationConfig(**{field: 1.0})


# ---------------------------------------------------------------------------
# replay store


def test_sample_base_replay_store():
    rng = np.random.default_rng(139)
    x = rng.standard_normal((20, 1, 2)).astype(np.float32)
    y = np.repeat([0, 1], 10)
    base = Dataset(x, y)
    store = sample_base_replay_store(base, per_class=3, seed=7)
    assert len(store) == 6
    np.testing.assert_array_equal(np.unique(store.y), [0, 1])
    for i in range(len(store)):
        assert any(np.array_equal(store.x[i], xb) for xb in x)
    again = sample_base_replay_store(base, per_class=3, seed=7)
    assert store.x.tobytes() == again.x.tobytes()
    capped = sample_base_replay_store(base, per_class=99, seed=7)
    assert len(capped) == 20


# ---------------------------------------------------------------------------
# full chains


def _chain_fixture():
    """Identity-backbone FSCIL problem: four directions in the plane."""
    rng = np.random.default_rng(140)
    angles = {0: 0.0, 1: np.pi / 2, 2: np.pi, 3: -np.pi / 2}
    def sample(c, n):
        a = angles[c] + 0.1 * rng.standard_normal(n)
        return np.stack([np.cos(a), np.sin(a)], axis=1).reshape(n, 1, 2).astype(np.float32)
    base = Dataset(np.concatenate([sample(0, 12), sample(1, 12)]),
                   np.repeat([0, 1], 12))
    s1 = Dataset(sample(2, 5), np.full(5, 2, dtype=np.int64))
    s2 = Dataset(sample(3, 5), np.full(5, 3, dtype=np.int64))
    state = _two_class_state()
    config = AdaptationConfig(
        finetune=FinetuneConfig(learning_rate=1e-2, iterations=3),
        inversion=InversionConfig(iterations=5, seed=1),
        label_inversion_iterations=5,
        anchors_per_class=4, real_per_class=4)
    return base, [s1, s2], state, config


def test_run_fscil_random_starts_draw_from_the_session_seed():
    """Without prototype init each new class starts from a draw of its own
    trial's and session's seed: two trials differ, two sessions differ, and
    a trial rerun repeats its starts byte for byte."""
    base, sessions, state, config = _chain_fixture()
    config = replace(config, finetune=FinetuneConfig(iterations=0, prototype_init=False))

    def starts(seed):
        chain = run_fscil(base, sessions, "finetune", config, state, seed=seed)
        return [chain[t].class_weights[c].data.tobytes() for t, c in ((1, 2), (2, 3))]

    first, second = starts(5)
    other_first, other_second = starts(6)
    assert first != second
    assert other_first != first and other_second != second
    assert starts(5) == [first, second]


@pytest.mark.parametrize("method", METHODS)
def test_run_fscil_chain_shapes(method):
    base, sessions, state, config = _chain_fixture()
    if method in ("deepdream", "deepinv"):
        state.feature_stats = None  # deepdream path has no stat term
    if method == "deepinv":
        from anchorinv.model import FeatureStats
        state.feature_stats = FeatureStats(mean=np.zeros(2, dtype=np.float32),
                                           var=np.ones(2, dtype=np.float32))
    chain = run_fscil(base, sessions, method, config, state, seed=5)
    assert len(chain) == 3
    assert chain[0] is state
    assert chain[1].seen_classes() == [0, 1, 2]
    assert chain[2].seen_classes() == [0, 1, 2, 3]
    # the base state is never mutated by the chain
    assert state.seen_classes() == [0, 1]


def test_run_fscil_unknown_method():
    base, sessions, state, config = _chain_fixture()
    with pytest.raises(KeyError) as err:
        run_fscil(base, sessions, "oracle", config, state)
    for m in METHODS:
        assert m in str(err.value)


def test_run_fscil_precomputed_anchors():
    base, sessions, state, config = _chain_fixture()
    anchors = base_anchor_memory(state, base, config)
    assert anchors.classes() == [0, 1]
    assert len(anchors) == 2 * config.anchors_per_class
    a = run_fscil(base, sessions, "anchorinv", config, state, seed=5)
    b = run_fscil(None, sessions, "anchorinv", config, state,
                  base_anchors=anchors, seed=5)
    for sa, sb in zip(a[1:], b[1:]):
        for c in sa.seen_classes():
            assert sa.class_weights[c].data.tobytes() \
                == sb.class_weights[c].data.tobytes()


def test_run_fscil_missing_inputs():
    _, sessions, state, config = _chain_fixture()
    with pytest.raises(ValueError):
        run_fscil(None, sessions, "anchorinv", config, state)
    with pytest.raises(ValueError):
        run_fscil(None, sessions, "realreplay", config, state)


def test_run_fscil_realreplay_store_grows():
    base, sessions, state, config = _chain_fixture()
    store = sample_base_replay_store(base, config.real_per_class, seed=5)
    a = run_fscil(None, sessions, "realreplay", config, state,
                  base_replay_store=store, seed=5)
    b = run_fscil(base, sessions, "realreplay", config, state, seed=5)
    for sa, sb in zip(a[1:], b[1:]):
        for c in sa.seen_classes():
            assert sa.class_weights[c].data.tobytes() \
                == sb.class_weights[c].data.tobytes()


def test_run_fscil_protonet_matches_direct_adapters():
    base, sessions, state, config = _chain_fixture()
    chain = run_fscil(base, sessions, "protonet", config, state, seed=5)
    direct = adapt_protonet(adapt_protonet(state, sessions[0]), sessions[1])
    for c in direct.seen_classes():
        assert chain[2].class_weights[c].data.tobytes() \
            == direct.class_weights[c].data.tobytes()
