"""Incremental-session adaptation: composite replay loss, constrained
finetuning, and the method adapters used for comparisons.

Finetuning touches only a configured trainable set — by default the last
backbone layer plus the classifier entries of the classes introduced in the
current session.  Everything else (earlier backbone layers, all prior-class
weights) is frozen, and the freezing is verified by checksum after every
finetune call.

Methods:
    anchorinv   invert the accumulated anchor memory, finetune with replay
    finetune    naive finetuning on the new session only
    protonet    frozen backbone, new classes get prototype weights
    teen        protonet plus calibration of new prototypes toward base ones
    deepdream   label-space (cross-entropy) inversion replay
    deepinv     label-space inversion with auto-balanced regularizers
    realreplay  stored real samples in place of synthetic replay (upper bound)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .anchors import (AnchorSet, incremental_anchors, project_features,
                      select_anchors, strategy_from_name)
from .data import Dataset
from .inversion import (InversionConfig, ReplaySet, deepdream_config,
                        deepinv_config, invert_set, label_space_invert_batch)
from .model import (ModelState, embed_batch, label_columns, prototype_of,
                    reuse_unfolded_inputs, scores_graph)
from .optim import minimize
from .seeds import derive_seed, make_rng

__all__ = [
    "METHODS",
    "FinetuneConfig",
    "AdaptationConfig",
    "composite_loss",
    "init_new_class_weights",
    "random_new_class_weights",
    "finetune_session",
    "adapt_protonet",
    "adapt_teen",
    "run_fscil",
    "base_anchor_memory",
    "sample_base_replay_store",
]

METHODS = ("anchorinv", "finetune", "protonet", "teen", "deepdream", "deepinv",
           "realreplay")

_SESSION_STREAM = 0x5E55
_REPLAY_STORE_STREAM = 0x8EA1


@dataclass(frozen=True)
class FinetuneConfig:
    """Settings for one finetune_session call."""

    replay_weight: float = 1.0          # weight on the replay term
    learning_rate: float = 1e-3
    iterations: int = 200
    trainable_layers: tuple[str, ...] = ("spatial",)
    train_new_classifier: bool = True
    prototype_init: bool = True
    new_class_init_scale: float = 0.1   # when prototype_init is off
    seed: int = 5

    def __post_init__(self):
        if self.replay_weight < 0:
            raise ValueError("replay weight must be >= 0")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.iterations > 0 and not (self.trainable_layers or self.train_new_classifier):
            raise ValueError("trainable set empty with iterations > 0")


@dataclass(frozen=True)
class AdaptationConfig:
    """Everything a method needs to run a full incremental chain."""

    finetune: FinetuneConfig = FinetuneConfig()
    inversion: InversionConfig = InversionConfig()
    label_inversion_iterations: int = 1000
    label_inversion_learning_rate: float = 1e-2
    anchors_per_class: int = 10
    anchor_strategy: str = "random_sample"
    anchor_fraction: float = 0.5
    anchor_kmeans_k: int = 5
    teen_tau: float = 32.0
    teen_alpha: float = 0.5
    real_per_class: int = 50

    def __post_init__(self):
        if self.teen_tau <= 0 or not 0.0 <= self.teen_alpha <= 1.0:
            raise ValueError("TEEN needs tau > 0 and alpha in [0, 1]")
        if self.anchors_per_class < 1 or self.real_per_class < 1:
            raise ValueError("per-class counts must be >= 1")


# ---------------------------------------------------------------------------
# composite loss


def composite_loss(state: ModelState, replay, new: Dataset,
                   replay_weight: float) -> Tensor:
    """CE(new) + replay_weight * CE(replay), each mean-reduced over its set.

    ``replay`` may be a ReplaySet, a Dataset (real replay), or None/empty
    (the replay term is then defined as zero).  Both sets are embedded as one
    batch, and each sample's cross-entropy is weighted by 1/N_new or
    replay_weight/N_replay.
    """
    replay_x, replay_y = _replay_arrays(replay)
    parts = []  # (samples, labels, weight of the set's mean)
    if new is not None and len(new) > 0:
        parts.append((new.x, new.y, 1.0))
    if replay_x is not None and replay_x.shape[0] > 0:
        parts.append((replay_x, replay_y, float(replay_weight)))
    if not parts:
        raise ValueError("both the new set and the replay set are empty")
    x = np.concatenate([np.asarray(xs, np.float32) for xs, _, _ in parts])
    y = np.concatenate([np.asarray(ys) for _, ys, _ in parts])
    scores = scores_graph(state, embed_batch(state, Tensor(x)))
    # negated, so that the weighted sum of log-probabilities is the loss
    w = np.concatenate([np.full(len(ys), -weight / len(ys)) for _, ys, weight in parts])
    return ad.nll(scores, label_columns(y, state.seen_classes()), w)


def _replay_arrays(replay) -> tuple[np.ndarray | None, np.ndarray | None]:
    if replay is None:
        return None, None
    if isinstance(replay, ReplaySet):
        return replay.samples, replay.labels
    if isinstance(replay, Dataset):
        return replay.x, replay.y
    raise TypeError(f"unsupported replay object {type(replay)!r}")


# ---------------------------------------------------------------------------
# new-class weight initialization


def init_new_class_weights(state: ModelState, new: Dataset) -> ModelState:
    """Register each class in ``new`` with its prototype (mean embedding)."""
    for c in new.classes():
        if c in state.class_weights:
            raise ValueError(f"class {c} already registered")
    for c in new.classes():
        idx = np.flatnonzero(new.y == c)
        state.register_class(c, prototype_of(state, new.x[idx]))
    return state


def random_new_class_weights(state: ModelState, class_ids: Sequence[int], seed: int,
                             scale: float = 0.1) -> ModelState:
    """Register new classes with scaled standard-normal weights."""
    for c in class_ids:
        if c in state.class_weights:
            raise ValueError(f"class {c} already registered")
    rng = make_rng(seed, 0x1F)
    for c in sorted(int(c) for c in class_ids):
        init = scale * rng.standard_normal(state.feature_dim)
        state.register_class(c, init.astype(np.float32))
    return state


# ---------------------------------------------------------------------------
# finetuning with the freezing contract


def finetune_session(state: ModelState, replay, new: Dataset,
                     config: FinetuneConfig,
                     loss_log: list[float] | None = None) -> ModelState:
    """Clone the state, register the session's new classes, and run full-batch
    Adam on the composite loss over the configured trainable set only.

    Returns the adapted clone.  Frozen tensors are checksummed before and
    after; any drift raises ``FreezingViolation``.
    """
    out = state.clone()
    prior_classes = set(out.seen_classes())
    new_classes = [c for c in new.classes() if c not in prior_classes]
    overlap = sorted(set(new.classes()) & prior_classes)
    if overlap:
        raise ValueError(f"session data repeats already-seen classes {overlap}")
    if config.prototype_init:
        init_new_class_weights(out, new)
    else:
        random_new_class_weights(out, new_classes, config.seed,
                                 scale=config.new_class_init_scale)

    trainable: list[Tensor] = []
    for layer in config.trainable_layers:
        for name in out.backbone.layer_param_names(layer):
            trainable.append(out.backbone.params[name])
    if config.train_new_classifier:
        trainable.extend(out.class_weights[c] for c in sorted(new_classes))

    trainable_ids = {id(t) for t in trainable}
    frozen = [t for t in out.all_parameters().values() if id(t) not in trainable_ids]
    if config.iterations == 0:
        return out

    def loss_fn(i: int) -> Tensor:
        return composite_loss(out, replay, new, config.replay_weight)

    # the inputs stay fixed, so each is unfolded once
    with reuse_unfolded_inputs(out.backbone):
        losses = minimize(trainable, loss_fn, config.iterations, config.learning_rate,
                          frozen=frozen)
    if loss_log is not None:
        loss_log.extend(losses)
    return out


# ---------------------------------------------------------------------------
# prototype-based adapters


def adapt_protonet(state: ModelState, new: Dataset) -> ModelState:
    """Frozen backbone; new classes classified by their prototypes."""
    out = state.clone()
    for c in new.classes():
        if c in out.class_weights:
            del out.class_weights[c]  # idempotent re-adaptation
    init_new_class_weights(out, new)
    return out


def adapt_teen(state: ModelState, new: Dataset, base_class_ids: Sequence[int],
               tau: float = 32.0, alpha: float = 0.5) -> ModelState:
    """Prototype adapter with calibration: each new prototype is pulled toward
    a softmax-weighted mixture of base-class weights.

    p' = alpha * p_new + (1 - alpha) * sum_b softmax_b(tau * cos(p_new, w_b)) * w_b
    """
    base_ids = sorted(int(c) for c in base_class_ids)
    if not base_ids:
        raise ValueError("TEEN calibration needs at least one base class")
    missing = [c for c in base_ids if c not in state.class_weights]
    if missing:
        raise ValueError(f"base classes {missing} not registered")
    out = state.clone()
    base_mat = np.stack([out.class_weights[c].data for c in base_ids]).astype(np.float64)
    base_unit = base_mat / np.maximum(np.linalg.norm(base_mat, axis=1), 1e-12)[:, None]
    for c in new.classes():
        if c in out.class_weights:
            raise ValueError(f"class {c} already registered")
        idx = np.flatnonzero(new.y == c)
        proto = prototype_of(out, new.x[idx]).astype(np.float64)
        unit = proto / max(np.linalg.norm(proto), 1e-12)
        sims = base_unit @ unit
        z = tau * sims
        z -= z.max()
        w = np.exp(z)
        w /= w.sum()
        calibrated = alpha * proto + (1.0 - alpha) * (w @ base_mat)
        out.register_class(c, calibrated.astype(np.float32))
    return out


# ---------------------------------------------------------------------------
# full incremental chains


def sample_base_replay_store(base: Dataset, per_class: int, seed: int) -> Dataset:
    """Randomly store up to ``per_class`` real samples per base class (the
    RealReplay memory)."""
    rng = make_rng(seed, _REPLAY_STORE_STREAM)
    keep: list[int] = []
    for c in base.classes():
        idx = np.flatnonzero(base.y == c)
        take = min(per_class, idx.size)
        chosen = rng.choice(idx.size, size=take, replace=False)
        keep.extend(idx[np.sort(chosen)].tolist())
    return base.subset(np.asarray(keep, dtype=np.int64))


def run_fscil(base: Dataset, incrementals: Sequence[Dataset], method: str,
              config: AdaptationConfig, base_state: ModelState,
              base_anchors: AnchorSet | None = None,
              base_replay_store: Dataset | None = None,
              seed: int = 5) -> list[ModelState]:
    """Run a full incremental chain from a trained base state.

    ``incrementals`` are the already-sampled few-shot session datasets.  The
    chain never touches ``base`` after session 0 preparations (anchor memory
    or the real replay store stand in for it), and returns one ModelState per
    session including the base state itself.

    ``base`` may be None when precomputed ``base_anchors`` (and, for
    realreplay, ``base_replay_store``) are supplied.
    """
    if method not in METHODS:
        raise KeyError(f"unknown method '{method}'; valid methods: {list(METHODS)}")
    state = base_state
    base_ids = state.seen_classes()
    chain = [state]

    memory: AnchorSet | None = None
    real_store: Dataset | None = None
    label_counts: dict[int, int] = {}
    if method == "anchorinv":
        if base_anchors is not None:
            memory = base_anchors
        elif base is None:
            raise ValueError("anchorinv needs precomputed base anchors or the base dataset")
        else:
            memory = base_anchor_memory(state, base, config)
    elif method == "realreplay":
        if base_replay_store is not None:
            real_store = base_replay_store
        else:
            if base is None:
                raise ValueError("realreplay needs a base dataset or a replay store")
            real_store = sample_base_replay_store(base, config.real_per_class, seed)
    elif method in ("deepdream", "deepinv"):
        label_counts = {c: config.anchors_per_class for c in base_ids}

    for t, new in enumerate(incrementals, start=1):
        session_seed = derive_seed(seed, _SESSION_STREAM, t)
        if method == "protonet":
            state = adapt_protonet(state, new)
        elif method == "teen":
            state = adapt_teen(state, new, base_ids, tau=config.teen_tau,
                               alpha=config.teen_alpha)
        elif method == "finetune":
            state = finetune_session(state, None, new, config.finetune)
        elif method == "anchorinv":
            inv_cfg = replace(config.inversion, seed=session_seed)
            replay = invert_set(state, memory, inv_cfg)
            state = finetune_session(state, replay, new, config.finetune)
            feats = project_features(state, new, session=t)
            memory = memory.append(incremental_anchors(feats, session=t))
        elif method in ("deepdream", "deepinv"):
            labels = [c for c, k in sorted(label_counts.items()) for _ in range(k)]
            maker = deepdream_config if method == "deepdream" else deepinv_config
            li_cfg = replace(maker(iterations=config.label_inversion_iterations,
                                   learning_rate=config.label_inversion_learning_rate),
                             seed=session_seed)
            replay = label_space_invert_batch(state, labels, li_cfg)
            state = finetune_session(state, replay, new, config.finetune)
            for c in new.classes():
                label_counts[c] = int(np.sum(new.y == c))
        elif method == "realreplay":
            state = finetune_session(state, real_store, new, config.finetune)
            real_store = real_store.concat(new)
        chain.append(state)
    return chain


def base_anchor_memory(state: ModelState, base: Dataset,
                       config: AdaptationConfig) -> AnchorSet:
    """Project the base set and run the configured selection strategy (the
    session-0 anchor memory, shared by every trial)."""
    features = project_features(state, base, session=0)
    strategy = strategy_from_name(config.anchor_strategy,
                                  seed=config.inversion.seed,
                                  fraction=config.anchor_fraction,
                                  k=config.anchor_kmeans_k)
    return select_anchors(features, strategy, config.anchors_per_class, session=0)
