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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, ShapeError, Tensor
from .optim import minimize
from .seeds import make_rng

__all__ = [
    "ConvBackboneConfig",
    "BACKBONE_PRESETS",
    "ConvBackbone",
    "ConvInput",
    "FeatureStats",
    "ModelState",
    "TrainingDivergedError",
    "scores_batch",
    "predict_batch",
    "embed_batch",
    "prototype_of",
    "label_columns",
    "head_loss",
    "BaseTrainConfig",
    "train_base",
    "accuracy",
]

# the cosine classifier's softmax temperature
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

    def __post_init__(self):
        for attr in ("channels", "timesteps", "filters", "temporal_kernel",
                     "temporal_stride", "pool_kernel", "pool_stride"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1, got {getattr(self, attr)}")
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
# backbone


@dataclass(frozen=True)
class ConvInput:
    """What ``ConvBackbone.embed``'s conv runs over: an (N, H, W) batch's
    frozen temporal ``"features"`` (N, F, H, W_o) or ``"columns"``
    (N, H * k_t, 1, W_o), both plain data with no graph whatever the
    parameters' flags, or its ``"samples"``."""

    kind: str
    data: Tensor


class ConvBackbone:
    """Temporal conv -> spatial conv -> ReLU -> average pool -> flatten."""

    # the parameters of the last layer, which finetuning trains
    FINETUNED = ("spatial_w", "spatial_b")

    def __init__(self, config: ConvBackboneConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: ConvBackboneConfig, seed: int) -> "ConvBackbone":
        rng = make_rng(seed, 0xB0)
        f, h, kt = config.filters, config.channels, config.temporal_kernel
        t_std = math.sqrt(2.0 / kt)
        s_std = math.sqrt(2.0 / (f * h))
        params = {
            "temporal_w": Tensor(rng.normal(0.0, t_std, size=(f, 1, 1, kt)).astype(np.float32)),
            "temporal_b": Tensor(np.zeros(f, dtype=np.float32)),
            "spatial_w": Tensor(rng.normal(0.0, s_std, size=(f, f, h, 1)).astype(np.float32)),
            "spatial_b": Tensor(np.zeros(f, dtype=np.float32)),
        }
        return cls(config, params)

    # parameter bookkeeping ------------------------------------------------

    def param_names(self) -> list[str]:
        return ["temporal_w", "temporal_b", *self.FINETUNED]

    def clone(self) -> "ConvBackbone":
        params = {k: _clone_tensor(v) for k, v in self.params.items()}
        return ConvBackbone(self.config, params)

    # forward ----------------------------------------------------------------

    def embed(self, x: Tensor | ConvInput) -> Tensor:
        """Embed an (N, H, W) batch or its ``conv_input`` to (N, D).

        The two convs have no nonlinearity between them, so they run as one
        (H, k_t) conv of the weight and bias ``ad.composed_weights`` builds.
        A batch while no parameter has ``requires_grad``, as they rest
        everywhere but in the ``minimize`` of base training and finetuning
        (inversion, prediction, prototypes), runs the frozen ``ad.conv_pool``.
        Otherwise the conv runs over a ``conv_input``, the batch's for the
        tensors with ``requires_grad`` if none is passed in, as engine nodes
        that record the parameter gradients: ``ad.conv2d`` of the
        ``ad.compose_conv`` weight, or of ``spatial_w`` over the features,
        then ReLU, ``ad.avg_pool2d`` and a reshape.  Over the samples the
        conv builds their columns one ``_IM2COL_BLOCK_BYTES`` block at a time:
        one sample per block at bci and grabmyo, two at nhie.
        """
        cfg = self.config
        params = [self.params[name] for name in self.param_names()]
        temporal_w, temporal_b, spatial_w, spatial_b = params
        if isinstance(x, ConvInput):
            conv_input, kind = x, x.kind
        else:
            trained = [t for t in (x, *params) if t.requires_grad]
            conv_input, kind = None, self._input_kind(x, trained)  # checks the shape
            if not any(p.requires_grad for p in params):
                weight, bias = ad.composed_weights(*(p.data for p in params))
                return ad.conv_pool(x, weight, bias, cfg.temporal_stride, cfg.pool_kernel,
                                    cfg.pool_stride)
        if kind == "features" and (temporal_w.requires_grad or temporal_b.requires_grad):
            raise ValueError("frozen temporal features embedded while the temporal layer trains")
        weight, bias = (spatial_w, spatial_b) if kind == "features" else ad.compose_conv(*params)
        if conv_input is None:  # built after compose_conv, in the engine's node order
            conv_input = self.conv_input(x, trained)
        data = conv_input.data
        n = data.shape[0]
        if kind == "samples":  # as (N, 1, H, W), with the weight as (K, 1, H, k_t)
            data = data.reshape((n, 1, *cfg.sample_shape))
            weight = weight.reshape((cfg.filters, 1, cfg.channels, cfg.temporal_kernel))
        h = ad.conv2d(data, weight, bias,
                      stride=(1, cfg.temporal_stride if kind == "samples" else 1))
        h = ad.avg_pool2d(ad.relu(h), kernel=(1, cfg.pool_kernel), stride=(1, cfg.pool_stride))
        return h.reshape((n, cfg.feature_dim))

    def conv_input(self, x: Tensor, trained: Sequence[Tensor]) -> ConvInput:
        """What ``embed``'s conv runs over for the (N, H, W) batch ``x`` while
        the tensors in ``trained`` take gradients; a training loop builds it
        once, for the list it hands ``minimize``, and embeds it every step.
        ``"features"`` when neither ``x`` nor the temporal layer trains and
        F <= k_t (desk, nhie, grabmyo): the F * H features per time step are
        no more numbers than the H * k_t rows of a column.  Else ``"columns"``
        when ``x`` does not train and they fit one ``_IM2COL_BLOCK_BYTES``
        block (every desk batch up to 520 samples; one sample at bci),
        sparing the conv's VJP its second ``_im2col``; else ``"samples"``.
        The features and columns are data alone, detached from any graph.
        """
        kind = self._input_kind(x, trained)
        cfg = self.config
        n, h, w = x.shape
        if kind == "features":
            data = Tensor(ad.conv2d(x.reshape((n, 1, h, w)), self.params["temporal_w"],
                                    self.params["temporal_b"],
                                    stride=(1, cfg.temporal_stride)).data)
        elif kind == "columns":
            cols = ad._im2col(x.data.reshape(n, 1, h, w), h, cfg.temporal_kernel, 1,
                              cfg.temporal_stride)
            data = Tensor(cols.reshape(n, h * cfg.temporal_kernel, 1, cfg.conv_width))
        else:
            data = x
        return ConvInput(kind, data)

    def _input_kind(self, x: Tensor, trained: Sequence[Tensor]) -> str:
        """The kind of ``conv_input``, the one place it is decided; a
        ShapeError for a batch ``x`` not of shape (N, H, W)."""
        cfg = self.config
        if x.ndim != 3 or x.shape[1:] != cfg.sample_shape:
            raise ShapeError(f"expected batch of shape (N, {cfg.channels}, {cfg.timesteps}), "
                             f"got {x.shape}")
        grads = {id(t) for t in trained}
        if id(x) in grads:
            return "samples"
        temporal = {id(self.params["temporal_w"]), id(self.params["temporal_b"])}
        if cfg.filters <= cfg.temporal_kernel and not grads & temporal:
            return "features"
        column_bytes = cfg.channels * cfg.temporal_kernel * cfg.conv_width * x.dtype.itemsize
        return "columns" if x.shape[0] <= ad._block_samples(column_bytes) else "samples"


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
    """Backbone parameters plus the per-class weight vectors."""

    def __init__(self, backbone: ConvBackbone, class_weights: dict[int, Tensor] | None = None,
                 feature_stats: FeatureStats | None = None):
        self.backbone = backbone
        self.class_weights: dict[int, Tensor] = dict(class_weights or {})
        self.feature_stats = feature_stats
        self.train_losses: list[float] | None = None

    @property
    def feature_dim(self) -> int:
        return self.backbone.config.feature_dim

    def seen_classes(self) -> list[int]:
        return sorted(self.class_weights)

    def register_class(self, class_id: int, vector: np.ndarray | Tensor) -> None:
        data = vector.data if isinstance(vector, Tensor) else np.asarray(vector)
        if data.shape != (self.feature_dim,):
            raise ShapeError(f"class weight must have shape ({self.feature_dim},), "
                             f"got {data.shape}")
        if class_id in self.class_weights:
            raise ValueError(f"class {class_id} already registered")
        self.class_weights[class_id] = Tensor(np.asarray(data, dtype=np.float32).copy())

    def weight_matrix(self) -> Tensor:
        """Class weights stacked in ascending class-id order (graph node)."""
        classes = self.seen_classes()
        if not classes:
            raise ValueError("no classes registered")
        return ad.stack_rows([self.class_weights[c] for c in classes])

    def clone(self) -> "ModelState":
        out = ModelState(
            self.backbone.clone(),
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


def scores_batch(state: ModelState, feats: np.ndarray) -> np.ndarray:
    """Softmax class probabilities for a feature batch (N, D) -> (N, K) over
    the seen classes: the engine's cosine and softmax nodes, run in float64."""
    weights = state.weight_matrix().data.astype(np.float64)  # no classes: ValueError
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != state.feature_dim:
        raise ShapeError(f"expected features (N, {state.feature_dim}), got {feats.shape}")
    sim = ad.cosine_similarity_matrix(Tensor(feats), Tensor(weights))
    return ad.softmax_with_temperature(sim, DEFAULT_TEMPERATURE).data


def embed_batch(state: ModelState, x) -> Tensor:
    """Embed an (N, H, W) array or tensor batch, or a ``ConvInput``, to (N, D)."""
    t = x if isinstance(x, (Tensor, ConvInput)) else Tensor(np.asarray(x, dtype=np.float32))
    return state.backbone.embed(t)


def predict_batch(state: ModelState, x: np.ndarray) -> np.ndarray:
    """Predicted class ids for an (N, H, W) batch (inference only); exact ties
    resolve to the lowest class id."""
    scores = scores_batch(state, embed_batch(state, x).data)
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
    return _exact_mean(embed_batch(state, samples).data).astype(np.float32)


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


def head_loss(state: ModelState, feats: Tensor, labels: np.ndarray,
              weights: np.ndarray | None = None) -> Tensor:
    """The classifier's loss over the feature batch ``feats`` (N, D): the mean
    negative log-probability of each label's class under ``scores_batch``, or
    with ``weights`` (N,) the weighted sum of the log-probabilities, the
    weights carrying the sign and the normalisation.  One ``ad.cosine_nll``
    node over the class weights in ``seen_classes`` order."""
    classes = state.seen_classes()
    if not classes:
        raise ValueError("no classes registered")
    return ad.cosine_nll(feats, [state.class_weights[c] for c in classes],
                         label_columns(labels, classes), weights, DEFAULT_TEMPERATURE)


def check_integer(name: str, value) -> None:
    """ValueError unless ``value`` is an int, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value, least: int) -> None:
    """ValueError unless ``value`` is an int (not a bool) of at least ``least``."""
    check_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass
class BaseTrainConfig:
    epochs: int = 300
    learning_rate: float = 5e-3
    weighted_loss: bool = False
    seed: int = 5

    def __post_init__(self):
        check_count("epochs", self.epochs, 1)
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be non-negative, got {self.learning_rate}")


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
    state = ModelState(backbone)
    rng = make_rng(config.seed, 0xC1)
    for c in classes:
        init = rng.normal(0.0, 1.0, size=backbone_config.feature_dim).astype(np.float32)
        state.register_class(c, init)

    weights = None
    if config.weighted_loss:  # -c_n / sum(c), with c_n one over the size of n's class
        _, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
        inverse_counts = 1.0 / counts[inverse]
        weights = -inverse_counts / inverse_counts.sum()

    params = list(state.backbone.params.values()) + [state.class_weights[c] for c in classes]
    epoch = 0

    def loss_fn(i: int) -> Tensor:
        nonlocal epoch
        epoch = i
        return head_loss(state, embed_batch(state, conv_input), y, weights)

    try:
        xt = Tensor(x)  # a non-finite input fails here, before epoch 0 runs
        conv_input = backbone.conv_input(xt, params)  # every epoch embeds xt
        losses = minimize(params, loss_fn, config.epochs, config.learning_rate)
    except NonFiniteError as err:
        raise TrainingDivergedError(f"non-finite loss at epoch {epoch}: {err}") from err
    del conv_input  # its columns are not held while the prototypes build theirs

    for c in classes:
        state.class_weights[c] = Tensor(prototype_of(state, x[y == c]))
    feats = embed_batch(state, xt).data
    state.feature_stats = FeatureStats(mean=feats.mean(axis=0).astype(np.float32),
                                       var=feats.var(axis=0).astype(np.float32))
    state.train_losses = losses
    return state


def accuracy(state: ModelState, x: np.ndarray, y: np.ndarray) -> float:
    preds = predict_batch(state, np.asarray(x, dtype=np.float32))
    return float(np.mean(preds == np.asarray(y)))
