"""Replay synthesis by gradient descent on inputs.

Feature-space mode (the main path): optimize a synthetic input so its
embedding matches a stored anchor under mean absolute error.  Label-space
mode (baselines): optimize the classifier's cross-entropy toward a target
label (DeepDream), and with ``regularized`` also l2 / total-variation /
feature-statistics terms, each weighted to the cross-entropy magnitude of
the first iteration (DeepInversion).

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
from .model import (ModelState, check_count, embed_batch, head_loss, label_columns,
                    scores_graph)
from .optim import minimize
from .seeds import make_rng

__all__ = [
    "InversionStalledError",
    "InversionConfig",
    "ReplaySet",
    "invert_set",
    "label_space_invert_batch",
    "total_variation",
    "feature_stat_penalty",
]

class InversionStalledError(RuntimeError):
    """An inverted sample came out bit-identical to its initialisation: the
    objective passed it no gradient (for instance, every pre-ReLU activation
    of the backbone is negative at its start)."""


@dataclass(frozen=True)
class InversionConfig:
    """Settings of an inversion, in anchor mode or label-space mode."""

    learning_rate: float = 1e-2
    iterations: int = 4000
    seed: int = 5

    def __post_init__(self):
        check_count("iterations", self.iterations, 1)
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


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


def _init_batch(count: int, channels: int, timesteps: int, seed: int) -> np.ndarray:
    """One standard-normal (H, W) init per target; per-sample stream keyed by
    seed + index."""
    out = np.empty((count, channels, timesteps), dtype=np.float32)
    for j in range(count):
        rng = make_rng(seed, j)
        out[j] = rng.standard_normal((channels, timesteps)).astype(np.float32)
    return out


def _raise_if_stalled(init: np.ndarray, final: np.ndarray) -> None:
    """One array comparison after the loop: rows whose bytes never changed."""
    rows = init.shape[0]
    same = np.all(init.reshape(rows, -1).view(np.uint8)
                  == final.reshape(rows, -1).view(np.uint8), axis=1)
    if same.any():
        raise InversionStalledError(
            f"samples {np.flatnonzero(same).tolist()} never moved from their "
            f"start: the objective gave them no gradient")


def invert_set(state: ModelState, anchors: AnchorSet, config: InversionConfig,
               loss_trajectory: list[float] | None = None) -> ReplaySet:
    """Invert every anchor jointly; sub-seed = seed + anchor index, so each
    sample's init does not depend on the rest of the set.  ``loss_trajectory``,
    when given, is extended with the mean per-sample loss of every iteration."""
    cfg = state.backbone.config
    j = len(anchors)
    if j == 0:
        return ReplaySet.empty(cfg.channels, cfg.timesteps)
    if anchors.dim != state.feature_dim:
        raise ad.ShapeError(f"anchor dimension {anchors.dim} != model dimension "
                            f"{state.feature_dim}")
    targets = anchors.vectors.astype(np.float32)
    init = _init_batch(j, cfg.channels, cfg.timesteps, config.seed)
    x = Tensor(init.copy())
    target_t = Tensor(targets)
    inv_dim = 1.0 / anchors.dim

    def loss_fn(i: int) -> Tensor:
        # sum of per-sample MAEs: gradients stay factorized per sample
        return ad.scaled_l1(embed_batch(state, x), target_t, inv_dim)

    losses = minimize([x], loss_fn, config.iterations, config.learning_rate,
                      frozen=state.all_parameters().values())
    _raise_if_stalled(init, x.data)
    if loss_trajectory is not None:
        loss_trajectory.extend(loss / j for loss in losses)
    final_feats = embed_batch(state, Tensor(x.data)).data
    final_mae = np.abs(final_feats.astype(np.float64) - targets.astype(np.float64)).mean(axis=1)
    return ReplaySet(samples=x.data.copy(), labels=anchors.labels.copy(),
                     sessions=anchors.sessions.copy(), feature_mae=final_mae)


# ---------------------------------------------------------------------------
# regularizers


def total_variation(x: Tensor) -> Tensor:
    """Anisotropic total variation along the time axis of an (N, H, W) batch:
    sum |x[., ., w+1] - x[., ., w]|; differentiable."""
    if x.ndim != 3:
        raise ad.ShapeError(f"total_variation expects (N, H, W), got {x.shape}")
    n, h, w = x.shape
    if w < 2:
        raise ad.ShapeError(f"total_variation needs at least 2 timesteps, got {w}")
    kernel = Tensor(np.array([[[[-1.0, 1.0]]]], dtype=x.data.dtype))
    diffs = ad.conv2d(x.reshape((n, 1, h, w)), kernel)
    return ad.absolute(diffs).sum()


def feature_stat_penalty(state: ModelState, batch: Tensor) -> Tensor:
    """Squared distance between the (N, H, W) batch's embedding mean/variance
    and the statistics stored at base training (differentiable in the batch)."""
    if state.feature_stats is None:
        raise ValueError("model has no stored feature statistics")
    feats = embed_batch(state, batch)                 # (N, D)
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
                             config: InversionConfig, regularized: bool) -> ReplaySet:
    """Synthesize one sample per requested label by minimizing the summed
    cross-entropy toward that label, jointly over the batch.  With
    ``regularized`` the l2 norm, the total variation and the feature-statistics
    penalty of the batch are added, each weighted so that at iteration 0 it
    equals the cross-entropy's magnitude; a term that is then below 1e-12 is
    dropped."""
    cfg = state.backbone.config
    labels = [int(c) for c in labels]
    if not labels:
        return ReplaySet.empty(cfg.channels, cfg.timesteps)
    cols = label_columns(labels, state.seen_classes())
    label_arr = np.asarray(labels, dtype=np.int64)
    j = len(labels)

    init = _init_batch(j, cfg.channels, cfg.timesteps, config.seed)
    x = Tensor(init.copy())
    regularizers = {
        "l2": lambda: ad.mul(x, x).sum(),
        "tv": lambda: total_variation(x),
        "fs": lambda: feature_stat_penalty(state, x),
    } if regularized else {}
    weights = dict.fromkeys(regularizers, 1.0)  # balanced at iteration 0

    def loss_fn(i: int) -> Tensor:
        # summed, not averaged, over the batch: weight -1 per sample
        loss = head_loss(state, embed_batch(state, x), label_arr, np.full(j, -1.0))
        terms = {key: term() for key, term in regularizers.items() if weights[key] > 0}
        if i == 0:
            ce0 = abs(loss.item())
            for key, term in terms.items():
                mag = abs(term.item())
                weights[key] = ce0 / mag if mag > 1e-12 else 0.0
        for key, term in terms.items():
            if weights[key] > 0:
                loss = ad.add(loss, ad.mul_scalar(term, weights[key]))
        return loss

    minimize([x], loss_fn, config.iterations, config.learning_rate,
             frozen=state.all_parameters().values())
    _raise_if_stalled(init, x.data)
    scores = scores_graph(state, embed_batch(state, Tensor(x.data))).data
    final_ce = -np.log(np.maximum(scores[np.arange(j), cols], 1e-300)).astype(np.float64)
    return ReplaySet(samples=x.data.copy(), labels=label_arr,
                     sessions=np.zeros(j, dtype=np.int64), feature_mae=final_ce)
