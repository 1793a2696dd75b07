"""Tests for synthetic generation, standardization, segmentation, and
session splitting.

Segment counts are verified against an exhaustive enumeration oracle;
synthetic class separability is verified with an independent DFT-energy
classifier at zero noise.
"""

import numpy as np
import pytest

from anchorinv.data import (Dataset, StandardizationStats, SynthClassSpec,
                            SynthSpec, desk_synth_spec, paired_gain_spec,
                            segment, split_sessions, synth_arrays, zscore_apply,
                            zscore_fit)
from oracles import zscore_invert


# ---------------------------------------------------------------------------
# Dataset container


def test_dataset_basic_accessors():
    x = np.zeros((6, 2, 4), dtype=np.float32)
    y = np.array([0, 0, 1, 1, 3, 3])
    ds = Dataset(x, y)
    assert len(ds) == 6
    assert ds.classes() == [0, 1, 3]
    assert len(ds.subset([0, 2])) == 2
    assert ds.of_classes([1, 3]).classes() == [1, 3]
    assert len(ds.concat(ds)) == 12


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2, 4)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 8)), np.zeros(3))


def test_dataset_subset_copies():
    ds = Dataset(np.ones((3, 1, 2), dtype=np.float32), np.zeros(3))
    sub = ds.subset([0])
    sub.x[0, 0, 0] = 99.0
    assert ds.x[0, 0, 0] == 1.0


# ---------------------------------------------------------------------------
# z-score standardization


def test_zscore_fit_constant_channel_hits_floor():
    x = np.full((5, 2, 10), 3.0)
    x[:, 1, :] = np.linspace(-1, 1, 50).reshape(5, 10)
    stats = zscore_fit(x)
    assert stats.mean[0] == pytest.approx(3.0)
    assert stats.std[0] == pytest.approx(1e-8)


def test_zscore_fit_two_point_channel():
    x = np.zeros((1, 1, 2))
    x[0, 0] = [-1.0, 1.0]
    stats = zscore_fit(x)
    assert stats.mean[0] == pytest.approx(0.0)
    assert stats.std[0] == pytest.approx(1.0)


def test_zscore_fit_matches_two_pass_oracle():
    rng = np.random.default_rng(70)
    x = rng.normal(3.0, 2.5, size=(20, 3, 50))
    stats = zscore_fit(x)
    for c in range(3):
        vals = x[:, c, :].reshape(-1)
        mu = vals.sum() / vals.size
        var = ((vals - mu) ** 2).sum() / vals.size
        assert stats.mean[c] == pytest.approx(mu, abs=1e-9)
        assert stats.std[c] == pytest.approx(np.sqrt(var), abs=1e-9)


def test_zscore_apply_standardizes_training_set():
    rng = np.random.default_rng(71)
    x = rng.normal(-2.0, 4.0, size=(30, 2, 40))
    z = zscore_apply(x, zscore_fit(x))
    for c in range(2):
        vals = z[:, c, :].astype(np.float64).reshape(-1)
        assert abs(vals.mean()) < 1e-6
        assert abs(vals.std() - 1.0) < 1e-6


def test_zscore_identity_stats():
    x = np.random.default_rng(72).standard_normal((4, 2, 8))
    stats = StandardizationStats(mean=np.zeros(2), std=np.ones(2))
    np.testing.assert_allclose(zscore_apply(x, stats), x, rtol=1e-6)


def test_zscore_round_trip():
    rng = np.random.default_rng(73)
    x = rng.normal(5.0, 3.0, size=(10, 3, 20)).astype(np.float32)
    stats = zscore_fit(x)
    back = zscore_invert(zscore_apply(x, stats), stats)
    np.testing.assert_allclose(back, x, atol=1e-5)


def test_zscore_validation():
    with pytest.raises(ValueError):
        zscore_fit(np.zeros((0, 2, 4)))
    with pytest.raises(ValueError):
        zscore_fit(np.zeros((2, 4)))
    stats = StandardizationStats(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(ValueError):
        zscore_apply(np.zeros((1, 2, 4)), stats)
    with pytest.raises(ValueError):
        StandardizationStats(mean=np.zeros(2), std=np.zeros(2))


def test_zscore_uses_training_statistics_for_test():
    rng = np.random.default_rng(74)
    train = rng.normal(0.0, 1.0, size=(20, 1, 30))
    test = rng.normal(10.0, 1.0, size=(20, 1, 30))
    stats = zscore_fit(train)
    z_test = zscore_apply(test, stats)
    # test mean must NOT be re-centered to zero: train stats apply
    assert z_test.mean() > 5.0


# ---------------------------------------------------------------------------
# segmentation


def _segment_count_oracle(length, window, overlap):
    """Enumerate left-aligned window starts one by one."""
    hop = max(int(window * (1.0 - overlap)), 1)
    count, start = 0, 0
    while start + window <= length:
        count += 1
        start += hop
    return count


def test_segment_hourly_recording_yields_119():
    rec = np.zeros((8, 3600))
    assert segment(rec, window=60, overlap=0.5).shape == (119, 8, 60)


def test_segment_no_overlap_thirds():
    rec = np.arange(2 * 30, dtype=np.float64).reshape(2, 30)
    out = segment(rec, window=10, overlap=0.0)
    assert out.shape == (3, 2, 10)
    np.testing.assert_array_equal(out[0], rec[:, :10])
    np.testing.assert_array_equal(out[2], rec[:, 20:])


def test_segment_single_window():
    rec = np.ones((3, 16))
    assert segment(rec, window=16, overlap=0.0).shape == (1, 3, 16)


def test_segment_windows_are_left_aligned_slices():
    rng = np.random.default_rng(75)
    rec = rng.standard_normal((2, 100))
    out = segment(rec, window=25, overlap=0.6)
    hop = int(25 * 0.4)
    for i in range(out.shape[0]):
        np.testing.assert_array_equal(out[i], rec[:, i * hop:i * hop + 25])


def test_segment_count_matches_enumeration_oracle():
    rng = np.random.default_rng(76)
    for _ in range(100):
        window = int(rng.integers(1, 50))
        length = int(rng.integers(window, 500))
        overlap = float(rng.uniform(0.0, 0.99))
        rec = np.zeros((1, length))
        got = segment(rec, window, overlap).shape[0]
        assert got == _segment_count_oracle(length, window, overlap), \
            (length, window, overlap)


def test_segment_validation():
    rec = np.zeros((2, 10))
    with pytest.raises(ValueError):
        segment(rec, window=11, overlap=0.0)
    with pytest.raises(ValueError):
        segment(rec, window=5, overlap=1.0)
    with pytest.raises(ValueError):
        segment(np.zeros(10), window=5, overlap=0.0)


# ---------------------------------------------------------------------------
# synthetic generation


def test_synth_counts_and_labels():
    spec = desk_synth_spec(num_classes=3, train_per_class=7, test_per_class=4)
    train, test = synth_arrays(spec)
    assert len(train) == 21 and len(test) == 12
    assert train.classes() == [0, 1, 2] and test.classes() == [0, 1, 2]
    assert train.x.shape[1:] == (4, 64)


def test_synth_deterministic_and_split_disjoint():
    spec = desk_synth_spec(num_classes=2, train_per_class=5, test_per_class=5)
    train_a, test_a = synth_arrays(spec)
    train_b, test_b = synth_arrays(spec)
    assert train_a.x.tobytes() == train_b.x.tobytes()
    assert test_a.x.tobytes() == test_b.x.tobytes()
    # train and test draw from different seed streams
    assert train_a.x[:5].tobytes() != test_a.x[:5].tobytes()


def test_synth_seed_changes_data():
    a, _ = synth_arrays(desk_synth_spec(num_classes=2, train_per_class=3, seed=5))
    b, _ = synth_arrays(desk_synth_spec(num_classes=2, train_per_class=3, seed=6))
    assert a.x.tobytes() != b.x.tobytes()


def _dft_energy_class(sample, frequencies):
    """Classify by the strongest class frequency bin, averaged over channels."""
    spectrum = np.abs(np.fft.rfft(sample, axis=-1)) ** 2
    energies = [spectrum[:, int(round(f))].mean() for f in frequencies]
    return int(np.argmax(energies))


def test_synth_noise_free_classes_separable_by_dft_oracle():
    spec = SynthSpec(
        classes=(SynthClassSpec(frequency=3.0, noise_sigma=0.0),
                 SynthClassSpec(frequency=8.0, noise_sigma=0.0)),
        train_per_class=0 + 10, test_per_class=10, channels=4, timesteps=64, seed=5)
    train, test = synth_arrays(spec)
    for ds in (train, test):
        preds = [_dft_energy_class(ds.x[i], [3.0, 8.0]) for i in range(len(ds))]
        np.testing.assert_array_equal(preds, ds.y)


def test_synth_channel_gains_scale_channels():
    spec = SynthSpec(
        classes=(SynthClassSpec(frequency=4.0, noise_sigma=0.0, phase_jitter=0.0,
                                channel_gains=(2.0, 0.0, 1.0, 0.5)),),
        train_per_class=3, test_per_class=0, channels=4, timesteps=64, seed=5)
    train, _ = synth_arrays(spec)
    # zero-gain channel is exactly silent; others scale proportionally
    # (RMS over whole cycles is phase-independent, unlike the sampled peak)
    assert np.all(train.x[:, 1, :] == 0.0)
    rms = np.sqrt((train.x.astype(np.float64) ** 2).mean(axis=(0, 2)))
    assert rms[0] == pytest.approx(2.0 * rms[2], rel=1e-6)
    assert rms[3] == pytest.approx(0.5 * rms[2], rel=1e-6)


def test_synth_spec_validation():
    c = SynthClassSpec(frequency=3.0)
    with pytest.raises(ValueError):
        SynthSpec(classes=(c, c), train_per_class=1, test_per_class=1,
                  channels=4, timesteps=64, seed=5)
    with pytest.raises(ValueError):
        SynthClassSpec(frequency=3.0, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SynthClassSpec(frequency=3.0, phase_jitter=1.5)
    with pytest.raises(ValueError):
        SynthSpec(classes=(SynthClassSpec(frequency=3.0, channel_gains=(1.0, 2.0)),),
                  train_per_class=1, test_per_class=1, channels=4, timesteps=64, seed=5)


def test_same_frequency_distinct_gains_allowed():
    spec = SynthSpec(
        classes=(SynthClassSpec(frequency=3.0, channel_gains=(1.0, 0.5)),
                 SynthClassSpec(frequency=3.0, channel_gains=(0.5, 1.0))),
        train_per_class=2, test_per_class=1, channels=2, timesteps=32, seed=5)
    train, _ = synth_arrays(spec)
    assert train.classes() == [0, 1]


def test_paired_gain_spec_structure():
    spec = paired_gain_spec(frequencies=(3.0, 5.0))
    assert len(spec.classes) == 4
    assert [c.frequency for c in spec.classes] == [3.0, 3.0, 5.0, 5.0]
    # mirrored ramps within each pair
    assert spec.classes[0].channel_gains == tuple(reversed(spec.classes[1].channel_gains))
    assert spec.classes[0].channel_gains == spec.classes[2].channel_gains
    assert spec.classes[0].channel_gains[0] == pytest.approx(1.5)
    assert spec.classes[0].channel_gains[-1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# session splitting


def _labelled_dataset(num_classes, per_class=12):
    rng = np.random.default_rng(77)
    x = rng.standard_normal((num_classes * per_class, 2, 8)).astype(np.float32)
    y = np.repeat(np.arange(num_classes), per_class)
    return Dataset(x, y)


def test_split_two_base_two_sessions():
    split = split_sessions(_labelled_dataset(4), base_classes=[0, 1], way=1, shot=10)
    assert len(split.pools) == 2  # 2 incremental sessions after the base
    assert split.base_spec.class_ids == (0, 1)
    assert [s.class_ids for s in split.pool_specs] == [(2,), (3,)]
    assert split.base.classes() == [0, 1]
    assert [p.classes() for p in split.pools] == [[2], [3]]


def test_split_sixteen_class_geometry():
    split = split_sessions(_labelled_dataset(16), base_classes=range(10), way=1, shot=1)
    assert len(split.pools) == 6  # 6 incremental sessions after the base
    assert [s.class_ids for s in split.pool_specs] == [(c,) for c in range(10, 16)]


def test_split_multiway_sessions():
    split = split_sessions(_labelled_dataset(8), base_classes=[0, 1, 2, 3], way=2, shot=5)
    assert [s.class_ids for s in split.pool_specs] == [(4, 5), (6, 7)]


def test_split_classes_through():
    split = split_sessions(_labelled_dataset(4), base_classes=[0, 1], way=1, shot=10)
    assert split.classes_through(0) == [0, 1]
    assert split.classes_through(1) == [0, 1, 2]
    assert split.classes_through(2) == [0, 1, 2, 3]


def test_split_base_and_pools_disjoint():
    split = split_sessions(_labelled_dataset(6), base_classes=[0, 3], way=1, shot=2)
    base_set = set(split.base.classes())
    for pool in split.pools:
        assert base_set.isdisjoint(pool.classes())


def test_split_validation():
    ds = _labelled_dataset(5)
    with pytest.raises(ValueError):
        split_sessions(ds, base_classes=[0, 9], way=1, shot=1)  # class 9 absent
    with pytest.raises(ValueError):
        split_sessions(ds, base_classes=[0, 1], way=2, shot=1)  # 3 classes, 2-way
    with pytest.raises(ValueError):
        split_sessions(ds, base_classes=[0, 1], way=1, shot=0)
