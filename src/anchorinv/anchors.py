"""Anchor memory: feature projection, per-class anchor selection, persistence.

Anchors are stored feature-space vectors that summarize each class's
embedding distribution.  Base-session classes go through a named selection
strategy (random sample, closest-to-prototype, random-within-closest-percent,
or k-means centroids); incremental sessions keep every few-shot feature.
Only D-dimensional features are ever stored, never raw input samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Dataset
from .model import ModelState, embed_batch, _exact_mean
from .seeds import make_rng
from .serialization import (KIND_ANCHORS, ContainerError, check_arrays, read_container,
                            write_container)

__all__ = [
    "FeatureSet",
    "AnchorSet",
    "STRATEGIES",
    "project_features",
    "check_anchor_counts",
    "select_anchors",
    "incremental_anchors",
    "kmeans",
    "KMeansObjectiveError",
    "save_anchor_set",
    "load_anchor_set",
]

Strategy = Literal["random_sample", "closest", "random_closest", "kmeans", "full"]
STRATEGIES = get_args(Strategy)

_KMEANS_ITERS = 100  # Lloyd iterations at most


class KMeansObjectiveError(RuntimeError):
    """A Lloyd iteration raised the k-means objective (a numerical fault)."""


@dataclass
class FeatureSet:
    """Per-sample embeddings with labels, in dataset order."""

    vectors: np.ndarray  # (n, D) float32
    labels: np.ndarray   # (n,) int64
    session: int = 0

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.vectors.ndim != 2 or self.labels.shape != (self.vectors.shape[0],):
            raise ValueError(f"bad feature set shapes {self.vectors.shape}, {self.labels.shape}")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def classes(self) -> list[int]:
        return sorted(int(c) for c in np.unique(self.labels))


@dataclass
class AnchorSet:
    """Selected anchors: (J, D) vectors with class labels and source session."""

    vectors: np.ndarray   # (J, D) float32
    labels: np.ndarray    # (J,) int64
    sessions: np.ndarray  # (J,) int64
    strategy: str = "random_sample"
    per_class: int = 0

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sessions = np.asarray(self.sessions, dtype=np.int64)
        n = self.vectors.shape[0]
        if self.vectors.ndim != 2 or self.labels.shape != (n,) or self.sessions.shape != (n,):
            raise ValueError("anchor arrays must agree on the leading dimension")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def classes(self) -> list[int]:
        return sorted(int(c) for c in np.unique(self.labels))

    def append(self, other: "AnchorSet") -> "AnchorSet":
        """Union with a later session's anchors; class sets must be disjoint."""
        if other.dim != self.dim:
            raise ValueError(f"anchor dimension mismatch: {self.dim} vs {other.dim}")
        overlap = set(self.classes()) & set(other.classes())
        if overlap:
            raise ValueError(f"appended anchors repeat classes {sorted(overlap)}")
        return AnchorSet(
            vectors=np.concatenate([self.vectors, other.vectors]),
            labels=np.concatenate([self.labels, other.labels]),
            sessions=np.concatenate([self.sessions, other.sessions]),
            strategy=self.strategy,
            per_class=self.per_class,
        )


# ---------------------------------------------------------------------------
# operations


def project_features(state: ModelState, dataset: Dataset, session: int = 0) -> FeatureSet:
    """Embed every sample, preserving order and labels."""
    if len(dataset) == 0:
        return FeatureSet(np.zeros((0, state.feature_dim), dtype=np.float32),
                          np.zeros(0, dtype=np.int64), session=session)
    feats = embed_batch(state, dataset.x).data
    return FeatureSet(feats.copy(), dataset.y.copy(), session=session)


def check_anchor_counts(labels: np.ndarray, strategy: str, per_class: int,
                        fraction: float = 0.5) -> None:
    """ValueError unless ``strategy`` can take ``per_class`` anchors from each
    class of ``labels``: 1 <= ``per_class`` <= the class size, and for
    ``random_closest`` no more than its ceil(``fraction`` x size) closest
    members; ``full`` takes every member.  ``select_anchors`` applies it, and
    the pipelines apply it to their base labels before base training."""
    if strategy == "full":
        return
    classes, sizes = np.unique(labels, return_counts=True)
    for c, n_k in zip(classes.tolist(), sizes.tolist()):
        if not 1 <= per_class <= n_k:
            raise ValueError(f"class {c}: cannot take {per_class} of {n_k} members")
        pool_size = int(np.ceil(fraction * n_k))
        if strategy == "random_closest" and per_class > pool_size:
            raise ValueError(f"class {c}: cannot take {per_class} from the "
                             f"{pool_size} closest members")


def select_anchors(features: FeatureSet, strategy: str, per_class: int, seed: int = 0,
                   fraction: float = 0.5) -> AnchorSet:
    """Select ``per_class`` anchors per class by the named strategy, one of
    ``STRATEGIES``, stamped with ``features.session``.

    ``random_sample`` draws members at random, ``closest`` takes the members
    nearest the class prototype by cosine distance, ``random_closest`` draws
    from the closest ``fraction`` of members, ``kmeans`` returns centroids and
    ``full`` keeps every member (``per_class`` unused).  The counts must pass
    ``check_anchor_counts``; closest-ranking ties break by lowest feature
    index (stable sort).
    """
    if strategy not in STRATEGIES:
        raise KeyError(f"unknown strategy '{strategy}'; valid: {sorted(STRATEGIES)}")
    if strategy == "random_closest" and not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    if len(features) == 0:
        raise ValueError("empty feature set")
    check_anchor_counts(features.labels, strategy, per_class, fraction)

    chunks, labels = [], []
    for c in features.classes():
        class_vecs = features.vectors[features.labels == c]
        n_k = class_vecs.shape[0]
        if strategy == "full":
            chosen = class_vecs
        elif strategy == "kmeans":
            chosen = kmeans(class_vecs, per_class, seed=seed)
        elif strategy == "random_sample":
            pick = make_rng(seed, c).choice(n_k, size=per_class, replace=False)
            chosen = class_vecs[np.sort(pick)]
        else:
            # the engine normalises each side first, so colinear members tie bitwise
            cos = ad.cosine_similarity_matrix(Tensor(class_vecs.astype(np.float64)),
                                              Tensor(_exact_mean(class_vecs)[None]))
            order = np.argsort(-cos.data[:, 0], kind="stable")
            if strategy == "closest":
                chosen = class_vecs[np.sort(order[:per_class])]
            else:
                pool_size = int(np.ceil(fraction * n_k))
                pick = make_rng(seed, c).choice(pool_size, size=per_class, replace=False)
                chosen = class_vecs[np.sort(order[pick])]
        chunks.append(np.asarray(chosen, dtype=np.float32))
        labels.append(np.full(len(chosen), c, dtype=np.int64))

    label_arr = np.concatenate(labels)
    return AnchorSet(vectors=np.concatenate(chunks), labels=label_arr,
                     sessions=np.full(len(label_arr), features.session, dtype=np.int64),
                     strategy=strategy, per_class=per_class)


def incremental_anchors(features: FeatureSet) -> AnchorSet:
    """Incremental-session policy: store every few-shot feature."""
    return select_anchors(features, "full", per_class=0)


# ---------------------------------------------------------------------------
# k-means


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding, for ``_KMEANS_ITERS``
    iterations at most.

    Returns (k, D) centroids.  The sum of squared distances to the nearest
    centroid must not increase across iterations (``KMeansObjectiveError``
    otherwise); empty clusters are reseeded to the point farthest from its
    assigned centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"kmeans needs a nonempty (n, D) array, got {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = make_rng(seed, 0x4B)

    # k-means++ seeding
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest_sq = _sq_dist_to(points, centroids[0])
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            centroids[j:] = points[rng.choice(n, size=k - j, replace=False)]
            break
        probs = closest_sq / total
        centroids[j] = points[rng.choice(n, p=probs)]
        closest_sq = np.minimum(closest_sq, _sq_dist_to(points, centroids[j]))

    prev_objective = np.inf
    assignments = None
    for _ in range(_KMEANS_ITERS):
        d2 = _pairwise_sq_dist(points, centroids)
        new_assignments = np.argmin(d2, axis=1)
        objective = float(d2[np.arange(n), new_assignments].sum())
        if objective > prev_objective * (1 + 1e-9) + 1e-9:
            raise KMeansObjectiveError(f"k-means objective increased from "
                                       f"{prev_objective} to {objective}")
        prev_objective = objective
        if assignments is not None and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            members = points[assignments == j]
            if members.shape[0] > 0:
                centroids[j] = members.mean(axis=0)
        empty = [j for j in range(k) if not np.any(assignments == j)]
        if empty:
            residual = _pairwise_sq_dist(points, centroids)[np.arange(n), assignments]
            for j in empty:
                far = int(np.argmax(residual))
                centroids[j] = points[far]
                residual[far] = 0.0
    return centroids.astype(np.float32)


def _sq_dist_to(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = points - center[None, :]
    return np.einsum("nd,nd->n", diff, diff)


def _pairwise_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


# ---------------------------------------------------------------------------
# persistence


def save_anchor_set(path, anchors: AnchorSet) -> None:
    meta = {"strategy": anchors.strategy, "per_class": anchors.per_class,
            "dim": anchors.dim}
    arrays = {"vectors": anchors.vectors, "labels": anchors.labels,
              "sessions": anchors.sessions}
    write_container(path, KIND_ANCHORS, meta, arrays)


def load_anchor_set(path, expected_dim: int | None = None) -> AnchorSet:
    """The AnchorSet ``save_anchor_set`` wrote; ContainerError for a header
    whose ``strategy`` is not in ``STRATEGIES``, whose ``per_class`` is not an
    int or whose ``dim`` is not an int >= 1, for a missing, extra or wrongly
    shaped array, or a dimension other than ``expected_dim``."""
    meta, arrays = read_container(path, expect_kind=KIND_ANCHORS)
    per_class, dim = meta.get("per_class"), meta.get("dim")
    if (meta.get("strategy") not in STRATEGIES or type(per_class) is not int
            or type(dim) is not int or dim < 1):
        raise ContainerError(f"bad anchor store header in {path}: strategy "
                             f"{meta.get('strategy')!r}, per_class {per_class!r}, dim {dim!r}")
    j = arrays["vectors"].shape[:1] if "vectors" in arrays else ()
    check_arrays(arrays, {"vectors": ((*j, dim), np.float32),
                          "labels": (j, np.int64), "sessions": (j, np.int64)}, path)
    anchors = AnchorSet(vectors=arrays["vectors"], labels=arrays["labels"],
                        sessions=arrays["sessions"], strategy=meta["strategy"],
                        per_class=per_class)
    if expected_dim is not None and anchors.dim != expected_dim:
        raise ContainerError(f"anchor dimension {anchors.dim} != model dimension "
                             f"{expected_dim}")
    return anchors
