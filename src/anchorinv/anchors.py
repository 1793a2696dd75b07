"""Anchor memory: feature projection, per-class anchor selection, persistence.

Anchors are stored feature-space vectors that summarize each class's
embedding distribution.  Base-session classes go through a selection
strategy (random sample, closest-to-prototype, random-within-closest-percent,
or k-means centroids); incremental sessions keep every few-shot feature.
Only D-dimensional features are ever stored, never raw input samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .model import ModelState, embed_batch, _exact_mean
from .seeds import make_rng
from .serialization import KIND_ANCHORS, ContainerError, read_container, write_container

__all__ = [
    "FeatureSet",
    "AnchorSet",
    "RandomSample",
    "ClosestToPrototype",
    "RandomClosestPercent",
    "KMeansCentroids",
    "FullSet",
    "strategy_from_name",
    "project_features",
    "select_anchors",
    "incremental_anchors",
    "kmeans",
    "KMeansObjectiveError",
    "save_anchor_set",
    "load_anchor_set",
]

_COS_EPS = 1e-12


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
# strategies


@dataclass(frozen=True)
class RandomSample:
    seed: int = 0
    name = "random_sample"


@dataclass(frozen=True)
class ClosestToPrototype:
    seed: int = 0
    name = "closest"


@dataclass(frozen=True)
class RandomClosestPercent:
    fraction: float = 0.5
    seed: int = 0
    name = "random_closest"

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {self.fraction}")


@dataclass(frozen=True)
class KMeansCentroids:
    k: int = 5
    seed: int = 0
    max_iters: int = 100
    name = "kmeans"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class FullSet:
    """Keep every feature (the incremental-session policy)."""

    seed: int = 0
    name = "full"


def strategy_from_name(name: str, seed: int = 0, fraction: float = 0.5,
                       k: int = 5):
    table = {
        "random_sample": lambda: RandomSample(seed=seed),
        "closest": lambda: ClosestToPrototype(seed=seed),
        "random_closest": lambda: RandomClosestPercent(fraction=fraction, seed=seed),
        "kmeans": lambda: KMeansCentroids(k=k, seed=seed),
        "full": lambda: FullSet(seed=seed),
    }
    if name not in table:
        raise KeyError(f"unknown strategy '{name}'; valid: {sorted(table)}")
    return table[name]()


# ---------------------------------------------------------------------------
# operations


def project_features(state: ModelState, dataset: Dataset, session: int = 0) -> FeatureSet:
    """Embed every sample, preserving order and labels."""
    if len(dataset) == 0:
        return FeatureSet(np.zeros((0, state.feature_dim), dtype=np.float32),
                          np.zeros(0, dtype=np.int64), session=session)
    with ad.no_grad():
        feats = embed_batch(state, dataset.x).data
    return FeatureSet(feats.copy(), dataset.y.copy(), session=session)


def _cosine_distance_to(vectors: np.ndarray, target: np.ndarray) -> np.ndarray:
    # normalize each side first so colinear inputs produce bitwise-equal
    # distances (the stable tie-break below then picks the lowest index)
    v = vectors.astype(np.float64)
    t = target.astype(np.float64)
    v = v / np.maximum(np.linalg.norm(v, axis=1), _COS_EPS)[:, None]
    t = t / max(np.linalg.norm(t), _COS_EPS)
    return -(v @ t)


def select_anchors(features: FeatureSet, strategy, per_class: int,
                   session: int = 0) -> AnchorSet:
    """Select ``per_class`` anchors per class (k-means uses k as the count).

    Sampling strategies need at least ``per_class`` members per class;
    closest-ranking ties break by lowest feature index (stable sort).
    """
    if len(features) == 0:
        raise ValueError("empty feature set")
    classes = features.classes()
    if isinstance(strategy, KMeansCentroids):
        per_class = strategy.k

    chunks, labels = [], []
    for c in classes:
        idx = np.flatnonzero(features.labels == c)
        class_vecs = features.vectors[idx]
        n_k = idx.size
        if isinstance(strategy, FullSet):
            chosen = class_vecs
        elif isinstance(strategy, KMeansCentroids):
            if strategy.k > n_k:
                raise ValueError(f"class {c}: k={strategy.k} > {n_k} members")
            chosen = kmeans(class_vecs, strategy.k, seed=strategy.seed,
                            max_iters=strategy.max_iters)
        else:
            if per_class < 1 or per_class > n_k:
                raise ValueError(f"class {c}: cannot take {per_class} of {n_k} members")
            if isinstance(strategy, RandomSample):
                rng = make_rng(strategy.seed, c)
                chosen = class_vecs[np.sort(rng.choice(n_k, size=per_class, replace=False))]
            elif isinstance(strategy, (ClosestToPrototype, RandomClosestPercent)):
                proto = _exact_mean(class_vecs)
                dist = _cosine_distance_to(class_vecs, proto)
                order = np.argsort(dist, kind="stable")
                if isinstance(strategy, ClosestToPrototype):
                    chosen = class_vecs[np.sort(order[:per_class])]
                else:
                    pool_size = int(np.ceil(strategy.fraction * n_k))
                    if per_class > pool_size:
                        raise ValueError(f"class {c}: cannot take {per_class} from the "
                                         f"{pool_size} closest members")
                    pool = order[:pool_size]
                    rng = make_rng(strategy.seed, c)
                    chosen = class_vecs[np.sort(pool[rng.choice(pool_size, size=per_class,
                                                                replace=False)])]
            else:
                raise TypeError(f"unknown strategy {strategy!r}")
        chunks.append(np.asarray(chosen, dtype=np.float32))
        labels.append(np.full(len(chosen), c, dtype=np.int64))

    vectors = np.concatenate(chunks)
    label_arr = np.concatenate(labels)
    return AnchorSet(vectors=vectors, labels=label_arr,
                     sessions=np.full(len(label_arr), session, dtype=np.int64),
                     strategy=strategy.name, per_class=per_class)


def incremental_anchors(features: FeatureSet, session: int) -> AnchorSet:
    """Incremental-session policy: store every few-shot feature."""
    return select_anchors(features, FullSet(), per_class=0, session=session)


# ---------------------------------------------------------------------------
# k-means


def kmeans(points: np.ndarray, k: int, seed: int = 0, max_iters: int = 100) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding.

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
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
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
    for _ in range(max_iters):
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
    meta, arrays = read_container(path, expect_kind=KIND_ANCHORS)
    anchors = AnchorSet(vectors=arrays["vectors"], labels=arrays["labels"],
                        sessions=arrays["sessions"], strategy=meta["strategy"],
                        per_class=int(meta["per_class"]))
    if expected_dim is not None and anchors.dim != expected_dim:
        raise ContainerError(f"anchor dimension {anchors.dim} != model dimension "
                             f"{expected_dim}")
    return anchors
