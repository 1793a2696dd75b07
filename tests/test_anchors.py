"""Tests for anchor selection strategies, feature projection, and k-means.

Selection outputs are compared against brute-force reimplementations (sorted
cosine distances, restarted k-means objectives); persistence is checked for
bit-exact round trips.
"""

import numpy as np
import pytest

import anchorinv.anchors as anchors_mod
from anchorinv.adaptation import AdaptationConfig, base_anchor_memory
from anchorinv.anchors import (STRATEGIES, AnchorSet, FeatureSet, KMeansObjectiveError,
                               check_anchor_counts, incremental_anchors, kmeans,
                               load_anchor_set, project_features, save_anchor_set,
                               select_anchors)
from anchorinv.data import Dataset
from anchorinv.model import ModelState
from anchorinv.serialization import (KIND_ANCHORS, ContainerError, read_container,
                                     write_container)
from oracles import IdentityBackbone


def _feature_set(vectors, labels, session=0):
    return FeatureSet(np.asarray(vectors, dtype=np.float32),
                      np.asarray(labels, dtype=np.int64), session=session)


def _random_features(rng, n_per_class, classes, dim=6, session=0):
    vecs, labels = [], []
    for c in classes:
        vecs.append(rng.standard_normal((n_per_class, dim)))
        labels.extend([c] * n_per_class)
    return _feature_set(np.concatenate(vecs), labels, session=session)


# ---------------------------------------------------------------------------
# containers


def test_feature_set_validation():
    with pytest.raises(ValueError):
        FeatureSet(np.zeros((3, 4)), np.zeros(2))
    with pytest.raises(ValueError):
        FeatureSet(np.zeros(3), np.zeros(3))


def test_anchor_set_append_disjoint_classes():
    a = AnchorSet(np.ones((2, 3)), np.array([0, 1]), np.zeros(2))
    b = AnchorSet(np.full((1, 3), 2.0), np.array([2]), np.ones(1))
    merged = a.append(b)
    assert len(merged) == 3
    assert merged.classes() == [0, 1, 2]
    np.testing.assert_array_equal(merged.sessions, [0, 0, 1])


def test_anchor_set_append_rejects_repeats_and_dim_mismatch():
    a = AnchorSet(np.ones((2, 3)), np.array([0, 1]), np.zeros(2))
    with pytest.raises(ValueError):
        a.append(AnchorSet(np.ones((1, 3)), np.array([1]), np.ones(1)))
    with pytest.raises(ValueError):
        a.append(AnchorSet(np.ones((1, 4)), np.array([2]), np.ones(1)))


# ---------------------------------------------------------------------------
# projection


def test_project_features_preserves_order_and_labels():
    rng = np.random.default_rng(80)
    state = ModelState(IdentityBackbone(2, 3))
    x = rng.standard_normal((5, 2, 3)).astype(np.float32)
    y = np.array([3, 1, 4, 1, 5])
    feats = project_features(state, Dataset(x, y), session=2)
    np.testing.assert_array_equal(feats.vectors, x.reshape(5, 6))
    np.testing.assert_array_equal(feats.labels, y)
    assert feats.session == 2


def test_project_features_empty_dataset():
    state = ModelState(IdentityBackbone(2, 3))
    empty = Dataset(np.zeros((0, 2, 3), dtype=np.float32), np.zeros(0))
    feats = project_features(state, empty)
    assert len(feats) == 0
    assert feats.vectors.shape == (0, 6)


# ---------------------------------------------------------------------------
# strategies


def test_strategy_from_name():
    feats = _random_features(np.random.default_rng(79), n_per_class=8, classes=[0, 1])
    for name in STRATEGIES:
        anchors = select_anchors(feats, name, per_class=2)
        assert anchors.strategy == name
        assert len(anchors) == (16 if name == "full" else 4)
    with pytest.raises(KeyError):
        select_anchors(feats, "best", per_class=2)


def test_strategy_validation():
    feats = _random_features(np.random.default_rng(79), n_per_class=8, classes=[0, 1])
    for fraction in (0.0, 1.5):
        with pytest.raises(ValueError, match="fraction"):
            select_anchors(feats, "random_closest", per_class=2, fraction=fraction)
    with pytest.raises(ValueError):
        select_anchors(feats, "kmeans", per_class=0)


def test_random_sample_counts_and_membership():
    rng = np.random.default_rng(81)
    feats = _random_features(rng, n_per_class=12, classes=[0, 1, 5])
    anchors = select_anchors(feats, "random_sample", per_class=4, seed=9)
    assert len(anchors) == 12
    assert anchors.classes() == [0, 1, 5]
    for c in anchors.classes():
        class_anchors = anchors.vectors[anchors.labels == c]
        source = feats.vectors[feats.labels == c]
        for row in class_anchors:
            assert any(np.array_equal(row, s) for s in source)


def test_random_sample_deterministic_per_seed():
    rng = np.random.default_rng(82)
    feats = _random_features(rng, n_per_class=10, classes=[0, 1])
    a = select_anchors(feats, "random_sample", per_class=3, seed=5)
    b = select_anchors(feats, "random_sample", per_class=3, seed=5)
    c = select_anchors(feats, "random_sample", per_class=3, seed=6)
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert a.vectors.tobytes() != c.vectors.tobytes()


def test_closest_to_prototype_brute_force():
    rng = np.random.default_rng(83)
    feats = _random_features(rng, n_per_class=15, classes=[0, 2])
    anchors = select_anchors(feats, "closest", per_class=5)
    for c in [0, 2]:
        source = feats.vectors[feats.labels == c].astype(np.float64)
        proto = source.mean(axis=0)
        unit = source / np.linalg.norm(source, axis=1)[:, None]
        sims = unit @ (proto / np.linalg.norm(proto))
        best = np.sort(np.argsort(-sims, kind="stable")[:5])
        expect = source[best].astype(np.float32)
        got = anchors.vectors[anchors.labels == c]
        np.testing.assert_array_equal(got, expect)


def test_closest_tie_breaks_to_lowest_index():
    # two colinear vectors tie exactly on cosine distance to the prototype
    feats = _feature_set([[0.0, 1.0], [0.0, 2.0], [0.0, 10.0]], [0, 0, 0])
    anchors = select_anchors(feats, "closest", per_class=1)
    np.testing.assert_array_equal(anchors.vectors, [[0.0, 1.0]])


def test_random_closest_draws_within_closest_fraction():
    rng = np.random.default_rng(84)
    feats = _random_features(rng, n_per_class=20, classes=[0])
    anchors = select_anchors(feats, "random_closest", per_class=5, seed=11, fraction=0.5)
    source = feats.vectors.astype(np.float64)
    proto = source.mean(axis=0)
    unit = source / np.linalg.norm(source, axis=1)[:, None]
    sims = unit @ (proto / np.linalg.norm(proto))
    closest_half = {tuple(source[i]) for i in np.argsort(-sims, kind="stable")[:10]}
    for row in anchors.vectors:
        assert tuple(row.astype(np.float64)) in closest_half


def test_random_closest_pool_too_small():
    rng = np.random.default_rng(85)
    feats = _random_features(rng, n_per_class=10, classes=[0])
    with pytest.raises(ValueError):
        select_anchors(feats, "random_closest", per_class=5, fraction=0.2)


# classes of 10 and 6 members; at fraction 0.6 their closest pools hold 6 and 4
@pytest.mark.parametrize("strategy, per_class, message", [
    ("random_sample", 0, "class 0: cannot take 0 of 10 members"),
    ("closest", 7, "class 1: cannot take 7 of 6 members"),
    ("kmeans", 11, "class 0: cannot take 11 of 10 members"),
    ("random_closest", 7, "class 0: cannot take 7 from the 6 closest members"),
    ("random_closest", 5, "class 1: cannot take 5 from the 4 closest members"),
    ("random_closest", 4, None),
    ("kmeans", 6, None),
    ("full", 99, None)])
def test_check_anchor_counts_is_the_rule_select_anchors_applies(strategy, per_class, message):
    """``check_anchor_counts`` on the labels alone refuses what
    ``select_anchors`` refuses, with the same message, naming the first class
    that cannot give the count; ``full`` has no count."""
    feats = _feature_set(np.random.default_rng(89).standard_normal((16, 6)), [0] * 10 + [1] * 6)
    if message is None:
        check_anchor_counts(feats.labels, strategy, per_class, fraction=0.6)
        select_anchors(feats, strategy, per_class, fraction=0.6)
        return
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_anchor_counts(feats.labels, strategy, per_class, fraction=0.6)
    with pytest.raises(ValueError, match=f"^{message}$"):
        select_anchors(feats, strategy, per_class, fraction=0.6)


def test_full_set_keeps_everything():
    rng = np.random.default_rng(86)
    feats = _random_features(rng, n_per_class=7, classes=[1, 3], session=4)
    anchors = select_anchors(feats, "full", per_class=0)
    assert len(anchors) == 14
    np.testing.assert_array_equal(np.unique(anchors.sessions), [4])
    np.testing.assert_array_equal(anchors.vectors[anchors.labels == 1],
                                  feats.vectors[feats.labels == 1])


def test_incremental_anchors_are_full_set():
    rng = np.random.default_rng(87)
    feats = _random_features(rng, n_per_class=10, classes=[6], session=3)
    anchors = incremental_anchors(feats)
    assert len(anchors) == 10
    assert anchors.strategy == "full"
    np.testing.assert_array_equal(np.unique(anchors.sessions), [3])


def test_select_anchors_validation():
    rng = np.random.default_rng(88)
    feats = _random_features(rng, n_per_class=4, classes=[0])
    with pytest.raises(ValueError):
        select_anchors(feats, "random_sample", per_class=5)  # more than members
    with pytest.raises(ValueError):
        select_anchors(feats, "random_sample", per_class=0)
    with pytest.raises(ValueError):
        select_anchors(_feature_set(np.zeros((0, 4)), []), "random_sample", per_class=1)
    with pytest.raises(ValueError):
        select_anchors(feats, "kmeans", per_class=9)


def test_kmeans_strategy_counts_anchors_per_class():
    # anchors_per_class is the one count: k-means returns that many centroids
    rng = np.random.default_rng(89)
    x = rng.standard_normal((24, 2, 3)).astype(np.float32)
    base = Dataset(x, np.repeat([0, 1], 12))
    state = ModelState(IdentityBackbone(2, 3))
    for per_class in (2, 4):
        config = AdaptationConfig(anchor_strategy="kmeans", anchors_per_class=per_class)
        anchors = base_anchor_memory(state, base, config)
        assert len(anchors) == 2 * per_class
        assert anchors.per_class == per_class
        np.testing.assert_array_equal(np.bincount(anchors.labels), [per_class, per_class])


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_k_equals_n_zero_objective():
    rng = np.random.default_rng(90)
    points = rng.standard_normal((6, 3))
    centroids = kmeans(points, k=6, seed=1)
    # every point is its own centroid: objective is exactly zero
    d2 = ((points[:, None, :] - centroids[None].astype(np.float64)) ** 2).sum(axis=2)
    assert d2.min(axis=1).sum() == pytest.approx(0.0, abs=1e-9)


def test_kmeans_two_well_separated_blobs():
    rng = np.random.default_rng(91)
    blob_a = rng.normal(0.0, 0.01, size=(20, 2)) + np.array([10.0, 0.0])
    blob_b = rng.normal(0.0, 0.01, size=(20, 2)) + np.array([-10.0, 0.0])
    centroids = kmeans(np.concatenate([blob_a, blob_b]), k=2, seed=3)
    got = sorted(centroids[:, 0].tolist())
    assert got[0] == pytest.approx(-10.0, abs=1e-2)
    assert got[1] == pytest.approx(10.0, abs=1e-2)


def _kmeans_objective(points, centroids):
    d2 = ((points[:, None, :] - centroids[None, :, :].astype(np.float64)) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())


def test_kmeans_beats_random_restart_assignments():
    rng = np.random.default_rng(92)
    points = rng.standard_normal((40, 4))
    got = _kmeans_objective(points, kmeans(points, k=5, seed=7))
    # objective must not exceed the worst of 100 random centroid subsets
    worst = -np.inf
    for s in range(100):
        pick = np.random.default_rng(s).choice(40, size=5, replace=False)
        worst = max(worst, _kmeans_objective(points, points[pick]))
    assert got <= worst


def test_kmeans_deterministic():
    rng = np.random.default_rng(93)
    points = rng.standard_normal((25, 3))
    a = kmeans(points, k=4, seed=5)
    b = kmeans(points, k=4, seed=5)
    assert a.tobytes() == b.tobytes()


def test_kmeans_validation():
    points = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans(points, k=0)
    with pytest.raises(ValueError):
        kmeans(points, k=5)
    with pytest.raises(ValueError):
        kmeans(np.zeros((0, 2)), k=1)
    with pytest.raises(TypeError):  # Lloyd runs at most 100 iterations
        kmeans(points, k=2, max_iters=1)


def test_kmeans_objective_increase_raises(monkeypatch):
    # a distance routine that inflates on every call makes Lloyd's objective
    # rise; the guard is an explicit raise, so it holds under python -O too
    real = anchors_mod._pairwise_sq_dist
    calls = []

    def inflating(points, centers):
        calls.append(1)
        return real(points, centers) * len(calls)

    monkeypatch.setattr(anchors_mod, "_pairwise_sq_dist", inflating)
    points = np.random.default_rng(95).standard_normal((20, 3))
    with pytest.raises(KMeansObjectiveError):
        kmeans(points, k=3, seed=1)


def test_kmeans_duplicate_points_fill_extra_centroids():
    points = np.tile(np.array([[1.0, 2.0]]), (5, 1))
    centroids = kmeans(points, k=3, seed=0)
    np.testing.assert_allclose(centroids, np.tile([[1.0, 2.0]], (3, 1)))


# ---------------------------------------------------------------------------
# persistence


def test_anchor_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(94)
    anchors = AnchorSet(rng.standard_normal((8, 5)).astype(np.float32),
                        np.array([0, 0, 1, 1, 2, 2, 3, 3]),
                        np.array([0, 0, 0, 0, 1, 1, 2, 2]),
                        strategy="closest", per_class=2)
    path = tmp_path / "anchors.bin"
    save_anchor_set(path, anchors)
    loaded = load_anchor_set(path)
    assert loaded.vectors.tobytes() == anchors.vectors.tobytes()
    np.testing.assert_array_equal(loaded.labels, anchors.labels)
    np.testing.assert_array_equal(loaded.sessions, anchors.sessions)
    assert loaded.strategy == "closest"
    assert loaded.per_class == 2


def test_anchor_load_checks_dimension(tmp_path):
    anchors = AnchorSet(np.ones((2, 5), dtype=np.float32), np.array([0, 1]),
                        np.zeros(2))
    path = tmp_path / "anchors.bin"
    save_anchor_set(path, anchors)
    assert load_anchor_set(path, expected_dim=5).dim == 5
    with pytest.raises(ContainerError):
        load_anchor_set(path, expected_dim=104)


@pytest.mark.parametrize("patch", [
    lambda arrays: arrays.pop("vectors"),
    lambda arrays: arrays.pop("labels"),
    lambda arrays: arrays.pop("sessions"),
    lambda arrays: arrays.update(extra=arrays["labels"]),
    lambda arrays: arrays.update(labels=arrays["labels"][:1]),
    lambda arrays: arrays.update(vectors=arrays["vectors"][:, :4])],
    ids=["missing-vectors", "missing-labels", "missing-sessions", "extra-array",
         "short-labels", "narrow-vectors"])
def test_anchor_load_rejects_malformed_arrays(tmp_path, patch):
    path = tmp_path / "anchors.bin"
    save_anchor_set(path, AnchorSet(np.ones((2, 5), dtype=np.float32), np.array([0, 1]),
                                    np.zeros(2)))
    meta, arrays = read_container(path)
    patch(arrays)
    write_container(path, KIND_ANCHORS, meta, arrays)
    with pytest.raises(ContainerError):
        load_anchor_set(path)


@pytest.mark.parametrize("patch", [
    lambda meta: meta.pop("strategy"),
    lambda meta: meta.update(strategy="best"),
    lambda meta: meta.pop("per_class"),
    lambda meta: meta.update(per_class=2.5),
    lambda meta: meta.update(per_class=True),
    lambda meta: meta.pop("dim"),
    lambda meta: meta.update(dim="5"),
    lambda meta: meta.update(dim=0)],
    ids=["missing-strategy", "unknown-strategy", "missing-per-class", "float-per-class",
         "bool-per-class", "missing-dim", "string-dim", "zero-dim"])
def test_anchor_load_rejects_malformed_headers(tmp_path, patch):
    """A hand-built header with one defect is a ContainerError, not a
    KeyError or a message about array shapes."""
    meta = {"strategy": "closest", "per_class": 2, "dim": 5}
    arrays = {"vectors": np.ones((2, 5), dtype=np.float32), "labels": np.array([0, 1]),
              "sessions": np.zeros(2, dtype=np.int64)}
    path = tmp_path / "anchors.bin"
    write_container(path, KIND_ANCHORS, meta, arrays)
    assert load_anchor_set(path).per_class == 2
    patch(meta)
    write_container(path, KIND_ANCHORS, meta, arrays)
    with pytest.raises(ContainerError, match="header"):
        load_anchor_set(path)
