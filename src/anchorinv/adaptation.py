"""Incremental-session adaptation: composite replay loss, constrained
finetuning, and the method adapters used for comparisons.

Finetuning trains the last backbone layer (the spatial conv) and the
classifier entries of the classes introduced in the current session, on the
new set and the replay at equal weight.  Everything else (the temporal conv,
all prior-class weights) is frozen, and the freezing is verified by checksum
after every finetune call.

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
from typing import Literal, Sequence, get_args

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .anchors import (STRATEGIES, AnchorSet, Strategy, incremental_anchors, project_features,
                      select_anchors)
from .data import Dataset
from .inversion import InversionConfig, invert_set, label_space_invert_batch
from .model import ModelState, check_count, embed_batch, head_loss, prototype_of
from .optim import minimize
from .seeds import derive_seed, make_rng

__all__ = [
    "METHODS",
    "FinetuneConfig",
    "AdaptationConfig",
    "replay_batch",
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

Method = Literal["anchorinv", "finetune", "protonet", "teen", "deepdream", "deepinv",
                 "realreplay"]
METHODS = get_args(Method)

_SESSION_STREAM = 0x5E55
_REPLAY_STORE_STREAM = 0x8EA1
# TEEN's calibration: softmax sharpness and the weight of the new prototype
_TEEN_TAU, _TEEN_ALPHA = 32.0, 0.5


@dataclass(frozen=True)
class FinetuneConfig:
    """Settings for one finetune_session call."""

    learning_rate: float = 1e-3
    iterations: int = 200
    prototype_init: bool = True

    def __post_init__(self):
        check_count("iterations", self.iterations, 0)


@dataclass(frozen=True)
class AdaptationConfig:
    """Everything a method needs to run a full incremental chain."""

    finetune: FinetuneConfig = FinetuneConfig()
    inversion: InversionConfig = InversionConfig()
    label_inversion_iterations: int = 1000
    anchors_per_class: int = 10
    anchor_strategy: Strategy = "random_sample"
    anchor_fraction: float = 0.5
    real_per_class: int = 50

    def __post_init__(self):
        check_count("label_inversion_iterations", self.label_inversion_iterations, 1)
        check_count("anchors_per_class", self.anchors_per_class, 1)
        check_count("real_per_class", self.real_per_class, 1)
        # checked here, not first in select_anchors, so that a bad setting
        # fails before base training
        if self.anchor_strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy '{self.anchor_strategy}'; "
                             f"valid: {list(STRATEGIES)}")
        if self.anchor_strategy == "random_closest" and not 0.0 < self.anchor_fraction <= 1.0:
            raise ValueError(f"anchor_fraction must lie in (0, 1], got {self.anchor_fraction}")


# ---------------------------------------------------------------------------
# composite loss


def replay_batch(replay: Dataset | None,
                 new: Dataset | None) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """The joint batch of a finetune session: samples ``x`` as one float32
    Tensor, labels ``y`` and per-sample loss weights ``w``, new set first.

    The replay term of a ``replay`` that is None or empty is zero; a replay
    that is not a Dataset is a TypeError.  Each sample of a set of N weighs
    -1/N: negated, so that the weighted sum of log-probabilities is the loss.
    """
    if replay is not None and not isinstance(replay, Dataset):
        raise TypeError(f"replay must be a Dataset or None, got {type(replay).__name__}")
    parts = [d for d in (new, replay) if d is not None and len(d) > 0]
    if not parts:
        raise ValueError("both the new set and the replay set are empty")
    x = np.concatenate([d.x for d in parts])
    y = np.concatenate([d.y for d in parts])
    w = np.concatenate([np.full(len(d), -1.0 / len(d)) for d in parts])
    return Tensor(x), y, w


def composite_loss(state: ModelState, x: Tensor, y: np.ndarray, w: np.ndarray) -> Tensor:
    """CE(new) + CE(replay), each mean-reduced over its set,
    of the joint batch ``x``, ``y``, ``w`` that ``replay_batch`` builds, or
    of ``x``'s ``conv_input``: the batch is embedded as one, and each
    sample's log-probability of its true class is weighted by its ``w``."""
    return head_loss(state, embed_batch(state, x), y, w)


# ---------------------------------------------------------------------------
# new-class weight initialization


def init_new_class_weights(state: ModelState, new: Dataset) -> ModelState:
    """Register each class in ``new`` with its prototype (mean embedding)."""
    for c in new.classes():
        idx = np.flatnonzero(new.y == c)
        state.register_class(c, prototype_of(state, new.x[idx]))
    return state


def random_new_class_weights(state: ModelState, class_ids: Sequence[int],
                             seed: int) -> ModelState:
    """Register new classes with standard-normal weights from ``seed``, scaled by 0.1."""
    rng = make_rng(seed, 0x1F)
    for c in sorted(int(c) for c in class_ids):
        init = 0.1 * rng.standard_normal(state.feature_dim)
        state.register_class(c, init.astype(np.float32))
    return state


# ---------------------------------------------------------------------------
# finetuning with the freezing contract


def finetune_session(state: ModelState, replay: Dataset | None, new: Dataset,
                     config: FinetuneConfig,
                     loss_log: list[float] | None = None, *, seed: int) -> ModelState:
    """Clone the state, register the session's new classes (at their
    prototypes, or at random weights drawn from the session's ``seed``), and run
    full-batch Adam on the composite loss of ``replay_batch(replay, new)`` over
    the backbone's ``FINETUNED`` parameters and the new class weights only.

    Returns the adapted clone.  Frozen tensors are checksummed before and
    after; any drift raises ``FreezingViolation``.
    """
    x, y, w = replay_batch(replay, new)  # a replay of another type fails before the clone
    out = state.clone()
    new_classes = new.classes()
    overlap = sorted(set(new_classes) & set(out.class_weights))
    if overlap:
        raise ValueError(f"session data repeats already-seen classes {overlap}")
    if config.prototype_init:
        init_new_class_weights(out, new)
    else:
        random_new_class_weights(out, new_classes, seed)

    trainable = [out.backbone.params[name] for name in out.backbone.FINETUNED]
    trainable.extend(out.class_weights[c] for c in new_classes)

    trainable_ids = {id(t) for t in trainable}
    frozen = [t for t in out.all_parameters().values() if id(t) not in trainable_ids]
    if config.iterations == 0:
        return out

    conv_input = out.backbone.conv_input(x, trainable)  # every iteration embeds x

    def loss_fn(i: int) -> Tensor:
        return composite_loss(out, conv_input, y, w)

    losses = minimize(trainable, loss_fn, config.iterations, config.learning_rate,
                      frozen=frozen)
    if loss_log is not None:
        loss_log.extend(losses)
    return out


# ---------------------------------------------------------------------------
# prototype-based adapters


def adapt_protonet(state: ModelState, new: Dataset) -> ModelState:
    """Frozen backbone; new classes classified by their prototypes."""
    return init_new_class_weights(state.clone(), new)


def adapt_teen(state: ModelState, new: Dataset, base_class_ids: Sequence[int]) -> ModelState:
    """Prototype adapter with calibration: each new prototype is pulled toward
    a softmax-weighted mixture of base-class weights.

    p' = alpha * p_new + (1 - alpha) * sum_b softmax_b(tau * cos(p_new, w_b)) * w_b

    with tau = ``_TEEN_TAU`` and alpha = ``_TEEN_ALPHA``.
    """
    base_ids = sorted(int(c) for c in base_class_ids)
    if not base_ids:
        raise ValueError("TEEN calibration needs at least one base class")
    missing = [c for c in base_ids if c not in state.class_weights]
    if missing:
        raise ValueError(f"base classes {missing} not registered")
    out = state.clone()
    base_mat = np.stack([out.class_weights[c].data for c in base_ids]).astype(np.float64)
    for c in new.classes():
        idx = np.flatnonzero(new.y == c)
        proto = prototype_of(out, new.x[idx]).astype(np.float64)
        sims = ad.cosine_similarity_matrix(Tensor(proto[None]), Tensor(base_mat))
        # dividing by 1 / 32 multiplies by 32 exactly
        w = ad.softmax_with_temperature(sims, 1.0 / _TEEN_TAU).data[0]
        calibrated = _TEEN_ALPHA * proto + (1.0 - _TEEN_ALPHA) * (w @ base_mat)
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
            state = adapt_teen(state, new, base_ids)
        elif method == "finetune":
            state = finetune_session(state, None, new, config.finetune, seed=session_seed)
        elif method == "anchorinv":
            inv_cfg = replace(config.inversion, seed=session_seed)
            replay = invert_set(state, memory, inv_cfg)
            state = finetune_session(state, Dataset(replay.samples, replay.labels), new,
                                     config.finetune, seed=session_seed)
            feats = project_features(state, new, session=t)
            memory = memory.append(incremental_anchors(feats))
        elif method in ("deepdream", "deepinv"):
            labels = [c for c, k in sorted(label_counts.items()) for _ in range(k)]
            li_cfg = replace(config.inversion, iterations=config.label_inversion_iterations,
                             seed=session_seed)
            replay = label_space_invert_batch(state, labels, li_cfg,
                                              regularized=method == "deepinv")
            state = finetune_session(state, replay, new, config.finetune, seed=session_seed)
            for c in new.classes():
                label_counts[c] = int(np.sum(new.y == c))
        elif method == "realreplay":
            state = finetune_session(state, real_store, new, config.finetune,
                                     seed=session_seed)
            real_store = real_store.concat(new)
        chain.append(state)
    return chain


def base_anchor_memory(state: ModelState, base: Dataset,
                       config: AdaptationConfig) -> AnchorSet:
    """Project the base set and run the configured selection strategy (the
    session-0 anchor memory, shared by every trial)."""
    features = project_features(state, base, session=0)
    return select_anchors(features, config.anchor_strategy, config.anchors_per_class,
                          seed=config.inversion.seed, fraction=config.anchor_fraction)
