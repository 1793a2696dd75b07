"""Backbone feature extractor and metric-based classifier.

The backbone maps an H x W time-series sample to a D-dimensional embedding:
temporal conv (1 -> F filters, kernel (1, k_t)) -> spatial conv across all
channels (kernel (H, 1)) -> ReLU -> average pooling along time -> flatten.
Classification is a temperature softmax over negative cosine distances
between the embedding and one weight vector per seen class; class weights
can be replaced by class-mean prototypes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, ShapeError, Tensor
from .optim import minimize
from .seeds import make_rng

__all__ = [
    "ConvBackboneConfig",
    "BACKBONE_PRESETS",
    "ConvBackbone",
    "IdentityBackbone",
    "LinearBackbone",
    "FeatureStats",
    "ModelState",
    "TrainingDivergedError",
    "cosine_distance",
    "class_scores",
    "scores_batch",
    "scores_graph",
    "predict",
    "predict_batch",
    "embed_batch",
    "compute_prototypes",
    "prototype_of",
    "label_columns",
    "cross_entropy_graph",
    "reuse_unfolded_inputs",
    "BaseTrainConfig",
    "train_base",
    "accuracy",
]

_COS_EPS = 1e-12
DEFAULT_TEMPERATURE = 16.0


class TrainingDivergedError(RuntimeError):
    """Base training produced a non-finite loss."""


# ---------------------------------------------------------------------------
# backbone configs


@dataclass(frozen=True)
class ConvBackboneConfig:
    """Shape parameters of the conv backbone.

    The spatial conv kernel height always equals ``channels`` and both conv
    layers use ``filters`` output maps, so the flattened feature dimension is
    ``filters * pooled_width``.
    """

    name: str
    channels: int
    timesteps: int
    filters: int
    temporal_kernel: int
    temporal_stride: int
    pool_kernel: int
    pool_stride: int
    activation: str = "relu"

    def __post_init__(self):
        for attr in ("channels", "timesteps", "filters", "temporal_kernel",
                     "temporal_stride", "pool_kernel", "pool_stride"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1, got {getattr(self, attr)}")
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation '{self.activation}'")
        if self.conv_width < 1 or self.pooled_width < 1:
            raise ValueError(f"config '{self.name}' collapses below one output column")

    @property
    def conv_width(self) -> int:
        return (self.timesteps - self.temporal_kernel) // self.temporal_stride + 1

    @property
    def pooled_width(self) -> int:
        return (self.conv_width - self.pool_kernel) // self.pool_stride + 1

    @property
    def feature_dim(self) -> int:
        return self.filters * self.pooled_width

    @property
    def sample_shape(self) -> tuple[int, int]:
        return (self.channels, self.timesteps)


# Named presets: "desk" is the small default; the other three mirror the
# full-scale EEG/EMG configurations (feature dims 2440 / 2360 / 2320).
BACKBONE_PRESETS: dict[str, ConvBackboneConfig] = {
    "desk": ConvBackboneConfig("desk", channels=4, timesteps=64, filters=8,
                               temporal_kernel=9, temporal_stride=1,
                               pool_kernel=8, pool_stride=4),
    "bci": ConvBackboneConfig("bci", channels=22, timesteps=1000, filters=40,
                              temporal_kernel=25, temporal_stride=1,
                              pool_kernel=75, pool_stride=15),
    "nhie": ConvBackboneConfig("nhie", channels=8, timesteps=3840, filters=40,
                               temporal_kernel=64, temporal_stride=4,
                               pool_kernel=75, pool_stride=15),
    "grabmyo": ConvBackboneConfig("grabmyo", channels=28, timesteps=1280, filters=40,
                                  temporal_kernel=64, temporal_stride=1,
                                  pool_kernel=75, pool_stride=20),
}


# ---------------------------------------------------------------------------
# backbones


class ConvBackbone:
    """Temporal conv -> spatial conv -> ReLU -> average pool -> flatten."""

    kind = "conv"

    def __init__(self, config: ConvBackboneConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        # (input, projected, columns or temporal features), a list only inside
        # reuse_unfolded_inputs
        self._column_cache: list[tuple[np.ndarray, bool, Tensor]] | None = None

    @classmethod
    def initialize(cls, config: ConvBackboneConfig, seed: int) -> "ConvBackbone":
        rng = make_rng(seed, 0xB0)
        f, h, kt = config.filters, config.channels, config.temporal_kernel
        t_std = math.sqrt(2.0 / kt)
        s_std = math.sqrt(2.0 / (f * h))
        params = {
            "temporal_w": Tensor(rng.normal(0.0, t_std, size=(f, 1, 1, kt)).astype(np.float32),
                                 requires_grad=True),
            "temporal_b": Tensor(np.zeros(f, dtype=np.float32), requires_grad=True),
            "spatial_w": Tensor(rng.normal(0.0, s_std, size=(f, f, h, 1)).astype(np.float32),
                                requires_grad=True),
            "spatial_b": Tensor(np.zeros(f, dtype=np.float32), requires_grad=True),
        }
        return cls(config, params)

    # parameter bookkeeping ------------------------------------------------

    def param_names(self) -> list[str]:
        return ["temporal_w", "temporal_b", "spatial_w", "spatial_b"]

    def layer_param_names(self, layer: str) -> list[str]:
        if layer == "temporal":
            return ["temporal_w", "temporal_b"]
        if layer == "spatial":
            return ["spatial_w", "spatial_b"]
        raise KeyError(f"unknown layer '{layer}' (conv backbone has 'temporal', 'spatial')")

    def last_layer(self) -> str:
        return "spatial"

    def clone(self) -> "ConvBackbone":
        params = {k: _clone_tensor(v) for k, v in self.params.items()}
        return ConvBackbone(self.config, params)

    # forward ----------------------------------------------------------------

    def embed(self, x: Tensor) -> Tensor:
        """Embed a batch: (N, H, W) -> (N, D).

        The two convs have no nonlinearity between them, so they run as one
        (H, k_t) conv of the weight and bias ``ad.composed_weights`` builds
        from the four parameters.  When grad mode is off or no backbone
        parameter has ``requires_grad`` (inversion, prediction, prototypes),
        the frozen ``ad.conv_pool`` runs it.  Otherwise (base training,
        finetuning) it runs through engine nodes that record the parameter
        gradients: ``ad.conv2d`` of a 1 x 1 kernel of the ``ad.compose_conv``
        weight over the ``ad.unfold`` columns of ``x``, one matmul, then ReLU,
        ``ad.avg_pool2d`` and a reshape.

        One case convolves a smaller input instead: when neither ``x`` nor
        the temporal layer takes a gradient (the default finetune, which
        trains ``spatial`` only) and the layer has no more filters than taps
        (F <= k_t: desk, nhie, grabmyo), the F * H features the frozen layer
        makes per time step are no more numbers than the H * k_t rows of a
        column, so ``ad.conv2d`` of ``spatial_w`` runs over those features
        (see ``_conv_input``) and no compose nodes are built.
        """
        cfg = self.config
        n = x.shape[0]
        if x.ndim != 3 or x.shape[1:] != cfg.sample_shape:
            raise ShapeError(f"expected batch of shape (N, {cfg.channels}, {cfg.timesteps}), "
                             f"got {x.shape}")
        params = [self.params[name] for name in self.param_names()]
        if not ad.is_grad_enabled() or not any(p.requires_grad for p in params):
            weight, bias = ad.composed_weights(*(p.data for p in params))
            return ad.conv_pool(x, weight, bias, cfg.temporal_stride, cfg.pool_kernel,
                                cfg.pool_stride, relu=cfg.activation == "relu")
        temporal_w, temporal_b, spatial_w, spatial_b = params
        project = cfg.filters <= cfg.temporal_kernel and not (
            x.requires_grad or temporal_w.requires_grad or temporal_b.requires_grad)
        weight, bias = (spatial_w, spatial_b) if project else ad.compose_conv(*params)
        h = ad.conv2d(self._conv_input(x, project), weight, bias)
        if cfg.activation == "relu":
            h = ad.relu(h)
        h = ad.avg_pool2d(h, kernel=(1, cfg.pool_kernel), stride=(1, cfg.pool_stride))
        return h.reshape((n, cfg.feature_dim))

    def _conv_input(self, x: Tensor, project: bool) -> Tensor:
        """The ``ad.unfold`` columns (N, H * k_t, 1, W_o) of ``x`` (N, H, W),
        or with ``project`` the ``ad.temporal_features`` (N, F, H, W_o) the
        frozen temporal layer makes of ``x`` (no graph: neither it nor ``x``
        takes a gradient then).

        Inside ``reuse_unfolded_inputs``, when the input takes no gradient,
        an input equal (exact array equality) to one already seen in the
        scope gets its stored columns or features back instead of new
        ones.  The columns do not depend on the weights, so trainable
        layers keep the reuse.  The features depend on the temporal layer,
        which stays frozen, as finetuning checks, while they are reused.
        """
        cfg = self.config
        cache = self._column_cache
        reuse = cache is not None and not x.requires_grad
        if reuse:
            for seen, projected, out in cache:
                if projected == project and seen.dtype == x.dtype and np.array_equal(seen, x.data):
                    return out
        if project:
            out = Tensor(ad.temporal_features(x.data, self.params["temporal_w"].data,
                                              self.params["temporal_b"].data,
                                              cfg.temporal_stride))
        else:
            out = ad.unfold(x, cfg.temporal_kernel, cfg.temporal_stride)
        if reuse:
            cache.append((x.data.copy(), project, out))
        return out


@contextmanager
def reuse_unfolded_inputs(backbone):
    """Inside this scope a ``ConvBackbone`` unfolds each input that takes no
    gradient once and reuses its columns, or its frozen temporal features
    (see ``ConvBackbone._conv_input``); they are dropped on
    exit, also when the body raises.  Other backbones have no conv to unfold
    for and are left as they are.
    """
    if not isinstance(backbone, ConvBackbone):
        yield
        return
    saved, backbone._column_cache = backbone._column_cache, []
    try:
        yield
    finally:
        backbone._column_cache = saved


class IdentityBackbone:
    """Flattens the input; embedding space is the input space (for tests
    and for exercising inversion against an exactly attainable target)."""

    kind = "identity"

    def __init__(self, channels: int, timesteps: int):
        self.config = _PlainShapeConfig(channels, timesteps, channels * timesteps)
        self.params: dict[str, Tensor] = {}

    def param_names(self) -> list[str]:
        return []

    def layer_param_names(self, layer: str) -> list[str]:
        raise KeyError("identity backbone has no trainable layers")

    def last_layer(self) -> str | None:
        return None

    def clone(self) -> "IdentityBackbone":
        return IdentityBackbone(self.config.channels, self.config.timesteps)

    def embed(self, x: Tensor) -> Tensor:
        cfg = self.config
        if x.ndim != 3 or x.shape[1:] != cfg.sample_shape:
            raise ShapeError(f"expected batch of shape (N, {cfg.channels}, {cfg.timesteps}), "
                             f"got {x.shape}")
        return x.reshape((x.shape[0], cfg.feature_dim))


class LinearBackbone:
    """Single linear map: flatten then multiply by a (H*W, D) weight."""

    kind = "linear"

    def __init__(self, channels: int, timesteps: int, weight: Tensor):
        if weight.ndim != 2 or weight.shape[0] != channels * timesteps:
            raise ShapeError(f"linear weight must be ({channels * timesteps}, D), "
                             f"got {weight.shape}")
        self.config = _PlainShapeConfig(channels, timesteps, weight.shape[1])
        self.params = {"weight": weight}

    def param_names(self) -> list[str]:
        return ["weight"]

    def layer_param_names(self, layer: str) -> list[str]:
        if layer == "linear":
            return ["weight"]
        raise KeyError(f"unknown layer '{layer}' (linear backbone has 'linear')")

    def last_layer(self) -> str:
        return "linear"

    def clone(self) -> "LinearBackbone":
        return LinearBackbone(self.config.channels, self.config.timesteps,
                              _clone_tensor(self.params["weight"]))

    def embed(self, x: Tensor) -> Tensor:
        cfg = self.config
        if x.ndim != 3 or x.shape[1:] != cfg.sample_shape:
            raise ShapeError(f"expected batch of shape (N, {cfg.channels}, {cfg.timesteps}), "
                             f"got {x.shape}")
        flat = x.reshape((x.shape[0], cfg.channels * cfg.timesteps))
        return ad.matmul(flat, self.params["weight"])


@dataclass(frozen=True)
class _PlainShapeConfig:
    channels: int
    timesteps: int
    feature_dim: int
    name: str = "plain"

    @property
    def sample_shape(self) -> tuple[int, int]:
        return (self.channels, self.timesteps)


def _clone_tensor(t: Tensor) -> Tensor:
    return Tensor(t.data.copy(), requires_grad=t.requires_grad)


# ---------------------------------------------------------------------------
# model state


@dataclass
class FeatureStats:
    """Per-dimension mean/variance of base-session embeddings."""

    mean: np.ndarray
    var: np.ndarray

    def copy(self) -> "FeatureStats":
        return FeatureStats(self.mean.copy(), self.var.copy())


class ModelState:
    """Backbone parameters plus the per-class weight vectors and temperature."""

    def __init__(self, backbone, temperature: float = DEFAULT_TEMPERATURE,
                 class_weights: dict[int, Tensor] | None = None,
                 feature_stats: FeatureStats | None = None):
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.backbone = backbone
        self.temperature = float(temperature)
        self.class_weights: dict[int, Tensor] = dict(class_weights or {})
        self.feature_stats = feature_stats
        self.train_losses: list[float] | None = None

    @property
    def feature_dim(self) -> int:
        return self.backbone.config.feature_dim

    def seen_classes(self) -> list[int]:
        return sorted(self.class_weights)

    def register_class(self, class_id: int, vector: np.ndarray | Tensor,
                       requires_grad: bool = True) -> None:
        data = vector.data if isinstance(vector, Tensor) else np.asarray(vector)
        if data.shape != (self.feature_dim,):
            raise ShapeError(f"class weight must have shape ({self.feature_dim},), "
                             f"got {data.shape}")
        if class_id in self.class_weights:
            raise ValueError(f"class {class_id} already registered")
        self.class_weights[class_id] = Tensor(np.asarray(data, dtype=np.float32).copy(),
                                              requires_grad=requires_grad)

    def weight_matrix(self) -> Tensor:
        """Class weights stacked in ascending class-id order (graph node)."""
        classes = self.seen_classes()
        if not classes:
            raise ValueError("no classes registered")
        return ad.stack_rows([self.class_weights[c] for c in classes])

    def clone(self) -> "ModelState":
        out = ModelState(
            self.backbone.clone(),
            temperature=self.temperature,
            class_weights={c: _clone_tensor(w) for c, w in self.class_weights.items()},
            feature_stats=None if self.feature_stats is None else self.feature_stats.copy(),
        )
        return out

    def all_parameters(self) -> dict[str, Tensor]:
        """Every learnable tensor, keyed by a stable name."""
        out = {f"backbone.{k}": v for k, v in self.backbone.params.items()}
        for c in self.seen_classes():
            out[f"classifier.{c}"] = self.class_weights[c]
        return out


# ---------------------------------------------------------------------------
# classifier math


def _normalized_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    return mat / np.maximum(norms, _COS_EPS)[:, None]


def cosine_distance(h, w) -> float:
    """Negative cosine similarity between two vectors (norms epsilon-guarded)."""
    hd = h.data if isinstance(h, Tensor) else np.asarray(h, dtype=np.float64)
    wd = w.data if isinstance(w, Tensor) else np.asarray(w, dtype=np.float64)
    hd = hd.astype(np.float64, copy=False).reshape(-1)
    wd = wd.astype(np.float64, copy=False).reshape(-1)
    if hd.shape != wd.shape:
        raise ShapeError(f"cosine_distance needs equal lengths, got {hd.shape} and {wd.shape}")
    denom = max(np.linalg.norm(hd), _COS_EPS) * max(np.linalg.norm(wd), _COS_EPS)
    return float(-(hd @ wd) / denom)


def _scores_from_similarities(sim: np.ndarray, temperature: float) -> np.ndarray:
    z = sim / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def scores_batch(state: ModelState, feats: np.ndarray) -> np.ndarray:
    """Softmax class probabilities for a feature batch (N, D) -> (N, K)."""
    classes = state.seen_classes()
    if not classes:
        raise ValueError("no classes registered")
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != state.feature_dim:
        raise ShapeError(f"expected features (N, {state.feature_dim}), got {feats.shape}")
    weights = np.stack([state.class_weights[c].data for c in classes]).astype(np.float64)
    sim = _normalized_rows(feats) @ _normalized_rows(weights).T
    return _scores_from_similarities(sim, state.temperature)


def class_scores(state: ModelState, h) -> np.ndarray:
    """Probability per seen class for one feature vector (ascending class id)."""
    hd = h.data if isinstance(h, Tensor) else np.asarray(h)
    return scores_batch(state, hd.reshape(1, -1))[0]


def scores_graph(state: ModelState, feats: Tensor) -> Tensor:
    """Differentiable class probabilities (N, K) over the seen classes."""
    sim = ad.cosine_similarity_matrix(feats, state.weight_matrix())
    return ad.softmax_with_temperature(sim, state.temperature, axis=-1)


def predict(state: ModelState, h) -> int:
    """Argmax class id; exact ties resolve to the lowest class id."""
    scores = class_scores(state, h)
    return state.seen_classes()[int(np.argmax(scores))]


def embed_batch(state: ModelState, x) -> Tensor:
    """Embed an (N, H, W) array or tensor batch to (N, D)."""
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))
    return state.backbone.embed(t)


def predict_batch(state: ModelState, x: np.ndarray) -> np.ndarray:
    """Predicted class ids for an (N, H, W) batch (inference only)."""
    with ad.no_grad():
        feats = embed_batch(state, x).data
    scores = scores_batch(state, feats)
    classes = np.asarray(state.seen_classes())
    return classes[np.argmax(scores, axis=1)]


# ---------------------------------------------------------------------------
# prototypes


def _exact_mean(rows: np.ndarray) -> np.ndarray:
    """Column means via exactly rounded summation.

    math.fsum makes the result independent of row order down to the last
    bit, which keeps prototypes reproducible no matter how the dataset was
    shuffled.
    """
    # one column of Python floats at a time: math.fsum reads numpy scalars
    # several times slower, and a list of every column would hold 32 bytes per value
    cols = rows.T.astype(np.float64)
    return np.array([math.fsum(col.tolist()) for col in cols], dtype=np.float64) / rows.shape[0]


def prototype_of(state: ModelState, samples: np.ndarray) -> np.ndarray:
    """Mean embedding of an (N, H, W) sample stack, as float32 (D,)."""
    if samples.shape[0] == 0:
        raise ValueError("cannot take a prototype of zero samples")
    with ad.no_grad():
        feats = embed_batch(state, samples).data
    return _exact_mean(feats).astype(np.float32)


def compute_prototypes(state: ModelState, x: np.ndarray, y: np.ndarray,
                       class_ids: Iterable[int]) -> ModelState:
    """Replace each requested class weight by its mean embedding.

    Other classes' weights are untouched.  Requested classes must already be
    registered and must appear in ``y``.
    """
    class_ids = list(class_ids)
    if not class_ids:
        raise ValueError("empty class subset")
    y = np.asarray(y)
    for c in class_ids:
        if c not in state.class_weights:
            raise KeyError(f"class {c} not registered")
        idx = np.flatnonzero(y == c)
        if idx.size == 0:
            raise ValueError(f"no samples for class {c}")
        proto = prototype_of(state, np.asarray(x)[idx])
        old = state.class_weights[c]
        state.class_weights[c] = Tensor(proto, requires_grad=old.requires_grad)
    return state


# ---------------------------------------------------------------------------
# losses and base training


def label_columns(labels: np.ndarray, class_order: Sequence[int]) -> np.ndarray:
    """Score column of each label, for columns ordered by ``class_order``,
    which ascends, as ``ModelState.seen_classes`` does.

    A binary search per label, then a check that each found column holds
    its label, which a label that is not in ``class_order`` fails."""
    order = np.asarray(class_order, dtype=np.int64)
    labels = np.asarray(labels)
    cols = order.searchsorted(labels)
    missing = order.take(cols, mode="clip") != labels if order.size else np.ones(labels.shape, bool)
    if missing.any():
        if (np.diff(order) <= 0).any():
            raise ValueError(f"class order {list(class_order)} does not ascend")
        raise KeyError(f"label {labels[missing][0]} is not a known class")
    return cols


def cross_entropy_graph(scores: Tensor, labels: np.ndarray, class_order: Sequence[int],
                        class_weights: dict[int, float] | None = None) -> Tensor:
    """Mean negative log-probability of the true class.

    ``scores`` is (N, K) with columns ordered by ``class_order``.  With
    ``class_weights`` the mean becomes a weighted mean (weights normalized by
    their sum), which reduces exactly to the plain mean for uniform weights.
    """
    labels = np.asarray(labels)
    columns = label_columns(labels, class_order)
    if class_weights is None:
        return ad.nll(scores, columns)
    w = np.array([class_weights[int(c)] for c in labels], dtype=scores.data.dtype)
    return ad.mul_scalar(ad.nll(scores, columns, w), -1.0 / float(w.sum()))


@dataclass
class BaseTrainConfig:
    epochs: int = 300
    learning_rate: float = 5e-3
    temperature: float = DEFAULT_TEMPERATURE
    weighted_loss: bool = False
    seed: int = 5


def train_base(x: np.ndarray, y: np.ndarray, backbone_config: ConvBackboneConfig,
               config: BaseTrainConfig | None = None) -> ModelState:
    """Train backbone and classifier jointly with cross-entropy, then replace
    class weights by prototypes and record embedding statistics."""
    config = config or BaseTrainConfig()
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y)
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    classes = sorted(int(c) for c in np.unique(y))
    if len(classes) < 2:
        raise ValueError(f"base training needs >= 2 classes, got {classes}")

    backbone = ConvBackbone.initialize(backbone_config, config.seed)
    state = ModelState(backbone, temperature=config.temperature)
    rng = make_rng(config.seed, 0xC1)
    for c in classes:
        init = rng.normal(0.0, 1.0, size=backbone_config.feature_dim).astype(np.float32)
        state.register_class(c, init)

    weights = None
    if config.weighted_loss:
        counts = {c: int(np.sum(y == c)) for c in classes}
        weights = {c: len(y) / (len(classes) * counts[c]) for c in classes}

    params = list(state.backbone.params.values()) + [state.class_weights[c] for c in classes]
    epoch = 0

    def loss_fn(i: int) -> Tensor:
        nonlocal epoch
        epoch = i
        scores = scores_graph(state, embed_batch(state, xt))
        return cross_entropy_graph(scores, y, classes, weights)

    try:
        xt = Tensor(x)  # a non-finite input fails here, before epoch 0 runs
        with reuse_unfolded_inputs(backbone):  # the input is the same every epoch
            losses = minimize(params, loss_fn, config.epochs, config.learning_rate)
    except NonFiniteError as err:
        raise TrainingDivergedError(f"non-finite loss at epoch {epoch}: {err}") from err

    compute_prototypes(state, x, y, classes)
    with ad.no_grad():
        feats = embed_batch(state, xt).data
    state.feature_stats = FeatureStats(mean=feats.mean(axis=0).astype(np.float32),
                                       var=feats.var(axis=0).astype(np.float32))
    state.train_losses = losses
    return state


def accuracy(state: ModelState, x: np.ndarray, y: np.ndarray) -> float:
    preds = predict_batch(state, np.asarray(x, dtype=np.float32))
    return float(np.mean(preds == np.asarray(y)))
