"""Replay synthesis by gradient descent on inputs.

Feature-space mode (the main path): optimize a synthetic input so its
embedding matches a stored anchor under mean absolute error.  Label-space
modes (baselines): optimize the classifier's cross-entropy toward a target
label, optionally with l2 / total-variation / feature-statistics
regularizers whose weights can be auto-balanced against the initial
cross-entropy magnitude.

A batch of targets is optimized jointly but the objective is a plain sum of
per-sample terms, so gradients never couple samples and the joint run is the
factorized equivalent of independent per-anchor optimizations (the
feature-statistics regularizer is the one deliberate exception: it matches
batch statistics, which only makes sense jointly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .anchors import AnchorSet
from .model import ModelState, embed_batch, label_columns, scores_graph
from .optim import minimize
from .seeds import make_rng

__all__ = [
    "InversionStalledError",
    "InversionConfig",
    "LabelInversionConfig",
    "ReplaySet",
    "invert_anchor",
    "invert_set",
    "label_space_invert",
    "label_space_invert_batch",
    "total_variation",
    "feature_stat_penalty",
    "deepdream_config",
    "deepinv_config",
]

_INIT_MODES = ("normal", "zeros")


class InversionStalledError(RuntimeError):
    """An inverted sample came out bit-identical to its initialisation: the
    objective passed it no gradient (for instance, every pre-ReLU activation
    of the backbone is negative at an all-zeros init)."""


@dataclass(frozen=True)
class InversionConfig:
    """Anchor-mode inversion settings (loss is feature MAE)."""

    init: str = "normal"
    learning_rate: float = 1e-2
    iterations: int = 4000
    seed: int = 5

    def __post_init__(self):
        if self.init not in _INIT_MODES:
            raise ValueError(f"init must be one of {_INIT_MODES}, got '{self.init}'")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


@dataclass(frozen=True)
class LabelInversionConfig:
    """Label-space inversion settings (loss is CE plus weighted regularizers)."""

    target_label: int = 0
    cross_entropy_weight: float = 1.0
    l2_weight: float = 0.0
    tv_weight: float = 0.0
    feature_stat_weight: float = 0.0
    auto_balance: bool = False
    init: str = "normal"
    learning_rate: float = 1e-2
    iterations: int = 2000
    seed: int = 5

    def __post_init__(self):
        for attr in ("cross_entropy_weight", "l2_weight", "tv_weight",
                     "feature_stat_weight"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")
        if self.init not in _INIT_MODES:
            raise ValueError(f"init must be one of {_INIT_MODES}, got '{self.init}'")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


def deepdream_config(iterations: int = 2000, learning_rate: float = 1e-2,
                     seed: int = 5) -> LabelInversionConfig:
    """Cross-entropy only (all regularizer weights zero)."""
    return LabelInversionConfig(iterations=iterations, learning_rate=learning_rate,
                                seed=seed)


def deepinv_config(iterations: int = 2000, learning_rate: float = 1e-2,
                   seed: int = 5) -> LabelInversionConfig:
    """Cross-entropy plus l2, total-variation, and feature-statistics terms,
    auto-balanced to the initial cross-entropy magnitude."""
    return LabelInversionConfig(l2_weight=1.0, tv_weight=1.0, feature_stat_weight=1.0,
                                auto_balance=True, iterations=iterations,
                                learning_rate=learning_rate, seed=seed)


@dataclass
class ReplaySet:
    """Synthetic samples with labels, source sessions, and the final
    per-sample objective (feature MAE in anchor mode, CE in label mode)."""

    samples: np.ndarray       # (J, H, W) float32
    labels: np.ndarray        # (J,) int64
    sessions: np.ndarray      # (J,) int64
    feature_mae: np.ndarray   # (J,) float64

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sessions = np.asarray(self.sessions, dtype=np.int64)
        self.feature_mae = np.asarray(self.feature_mae, dtype=np.float64)
        j = self.samples.shape[0]
        if self.samples.ndim != 3 or any(a.shape != (j,) for a in
                                         (self.labels, self.sessions, self.feature_mae)):
            raise ValueError("replay arrays must agree on the leading dimension")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @classmethod
    def empty(cls, channels: int, timesteps: int) -> "ReplaySet":
        return cls(np.zeros((0, channels, timesteps), dtype=np.float32),
                   np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.float64))


def _init_batch(count: int, channels: int, timesteps: int, mode: str,
                seed: int) -> np.ndarray:
    """One (H, W) init per target; per-sample stream keyed by seed + index."""
    out = np.empty((count, channels, timesteps), dtype=np.float32)
    for j in range(count):
        if mode == "zeros":
            out[j] = 0.0
        else:
            rng = make_rng(seed, j)
            out[j] = rng.standard_normal((channels, timesteps)).astype(np.float32)
    return out


def _raise_if_stalled(init: np.ndarray, final: np.ndarray, mode: str) -> None:
    """One array comparison after the loop: rows whose bytes never changed."""
    rows = init.shape[0]
    same = np.all(init.reshape(rows, -1).view(np.uint8)
                  == final.reshape(rows, -1).view(np.uint8), axis=1)
    if same.any():
        raise InversionStalledError(
            f"samples {np.flatnonzero(same).tolist()} never moved from their "
            f"init='{mode}' start: the objective gave them no gradient")


def _invert_mae_batch(state: ModelState, targets: np.ndarray, config: InversionConfig,
                      loss_trajectory: list[float] | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Core anchor-mode loop; returns (samples, per-sample final MAE)."""
    cfg = state.backbone.config
    j, dim = targets.shape
    if dim != state.feature_dim:
        raise ad.ShapeError(f"anchor dimension {dim} != model dimension {state.feature_dim}")
    init = _init_batch(j, cfg.channels, cfg.timesteps, config.init, config.seed)
    x = Tensor(init.copy())
    target_t = Tensor(np.asarray(targets, dtype=np.float32))
    inv_dim = 1.0 / dim

    def loss_fn(i: int) -> Tensor:
        # sum of per-sample MAEs: gradients stay factorized per sample
        return ad.scaled_l1(embed_batch(state, x), target_t, inv_dim)

    losses = minimize([x], loss_fn, config.iterations, config.learning_rate,
                      frozen=state.all_parameters().values())
    _raise_if_stalled(init, x.data, config.init)
    if loss_trajectory is not None:
        loss_trajectory.extend(loss / j for loss in losses)
    with ad.no_grad():
        final_feats = embed_batch(state, Tensor(x.data)).data
    final_mae = np.abs(final_feats.astype(np.float64) - targets.astype(np.float64)).mean(axis=1)
    return x.data.copy(), final_mae


def invert_anchor(state: ModelState, anchor: np.ndarray, config: InversionConfig,
                  loss_trajectory: list[float] | None = None) -> tuple[np.ndarray, float]:
    """Invert a single anchor; returns the (H, W) sample and its final MAE."""
    anchor = np.asarray(anchor, dtype=np.float32).reshape(1, -1)
    samples, mae = _invert_mae_batch(state, anchor, config, loss_trajectory)
    return samples[0], float(mae[0])


def invert_set(state: ModelState, anchors: AnchorSet, config: InversionConfig) -> ReplaySet:
    """Invert every anchor (sub-seed = seed + anchor index, so a set inversion
    and the per-anchor calls draw identical initializations)."""
    cfg = state.backbone.config
    if len(anchors) == 0:
        return ReplaySet.empty(cfg.channels, cfg.timesteps)
    samples, mae = _invert_mae_batch(state, anchors.vectors.astype(np.float32), config)
    return ReplaySet(samples=samples, labels=anchors.labels.copy(),
                     sessions=anchors.sessions.copy(), feature_mae=mae)


# ---------------------------------------------------------------------------
# regularizers


def total_variation(x) -> Tensor:
    """Anisotropic total variation along the time axis: sum |x[., w+1] - x[., w]|.

    Accepts an (H, W) matrix or an (N, H, W) batch; differentiable.
    """
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))
    if t.ndim == 2:
        t = t.reshape((1,) + t.shape)
    if t.ndim != 3:
        raise ad.ShapeError(f"total_variation expects (H, W) or (N, H, W), got {x.shape}")
    n, h, w = t.shape
    if w < 2:
        raise ad.ShapeError(f"total_variation needs at least 2 timesteps, got {w}")
    kernel = Tensor(np.array([[[[-1.0, 1.0]]]], dtype=t.data.dtype))
    diffs = ad.conv2d(t.reshape((n, 1, h, w)), kernel)
    return ad.absolute(diffs).sum()


def feature_stat_penalty(state: ModelState, batch) -> Tensor:
    """Squared distance between the batch's embedding mean/variance and the
    statistics stored at base training (differentiable in the batch)."""
    if state.feature_stats is None:
        raise ValueError("model has no stored feature statistics")
    t = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch, dtype=np.float32))
    if t.ndim != 3:
        raise ad.ShapeError(f"expected an (N, H, W) batch, got {t.shape}")
    feats = embed_batch(state, t)                     # (N, D)
    mean = ad.tensor_mean(feats, axis=0)              # (D,)
    centered = ad.subtract_rowwise(feats, mean)
    var = ad.tensor_mean(ad.mul(centered, centered), axis=0)
    dtype = feats.data.dtype
    mean_diff = ad.sub(mean, Tensor(state.feature_stats.mean.astype(dtype)))
    var_diff = ad.sub(var, Tensor(state.feature_stats.var.astype(dtype)))
    return ad.add(ad.mul(mean_diff, mean_diff).sum(), ad.mul(var_diff, var_diff).sum())


# ---------------------------------------------------------------------------
# label-space inversion (DeepDream / DeepInv baselines)


def label_space_invert_batch(state: ModelState, labels: Sequence[int],
                             config: LabelInversionConfig) -> ReplaySet:
    """Synthesize one sample per requested label by minimizing cross-entropy
    toward that label, plus the configured regularizers (jointly over the
    batch; the feature-stat term is batch-based by design)."""
    cfg = state.backbone.config
    labels = [int(c) for c in labels]
    if not labels:
        return ReplaySet.empty(cfg.channels, cfg.timesteps)
    cols = label_columns(labels, state.seen_classes())
    label_arr = np.asarray(labels, dtype=np.int64)
    j = len(labels)

    init = _init_batch(j, cfg.channels, cfg.timesteps, config.init, config.seed)
    x = Tensor(init.copy())
    weights = {
        "ce": config.cross_entropy_weight,
        "l2": config.l2_weight,
        "tv": config.tv_weight,
        "fs": config.feature_stat_weight,
    }

    def loss_fn(i: int) -> Tensor:
        scores = scores_graph(state, embed_batch(state, x))
        # summed, not averaged, over the batch: weight -1 per sample
        terms = {"ce": ad.nll(scores, cols, np.full(j, -1.0))}
        if weights["l2"] > 0:
            terms["l2"] = ad.mul(x, x).sum()
        if weights["tv"] > 0:
            terms["tv"] = total_variation(x)
        if weights["fs"] > 0:
            terms["fs"] = feature_stat_penalty(state, x)
        if i == 0 and config.auto_balance:
            ce0 = abs(terms["ce"].item())
            for key in ("l2", "tv", "fs"):
                if weights[key] > 0:
                    mag = abs(terms[key].item())
                    weights[key] = ce0 / mag if mag > 1e-12 else 0.0
        loss = ad.mul_scalar(terms["ce"], weights["ce"])
        for key in ("l2", "tv", "fs"):
            if key in terms and weights[key] > 0:
                loss = ad.add(loss, ad.mul_scalar(terms[key], weights[key]))
        return loss

    minimize([x], loss_fn, config.iterations, config.learning_rate,
             frozen=state.all_parameters().values())
    _raise_if_stalled(init, x.data, config.init)
    with ad.no_grad():
        feats = embed_batch(state, Tensor(x.data))
        scores = scores_graph(state, feats).data
    final_ce = -np.log(np.maximum(scores[np.arange(j), cols], 1e-300)).astype(np.float64)
    return ReplaySet(samples=x.data.copy(), labels=label_arr,
                     sessions=np.zeros(j, dtype=np.int64), feature_mae=final_ce)


def label_space_invert(state: ModelState, config: LabelInversionConfig
                       ) -> tuple[np.ndarray, float]:
    """Single-sample label-space inversion; returns (sample, final loss)."""
    replay = label_space_invert_batch(state, [config.target_label], config)
    return replay.samples[0], float(replay.feature_mae[0])
