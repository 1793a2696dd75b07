"""Synthetic time-series generation, standardization, segmentation, and
base/incremental session splitting.

The synthetic generator produces class-conditional multichannel sinusoids:
each class owns a distinct base frequency (in cycles per window); samples
differ by a random phase and additive white noise.  Classes are therefore
separable by frequency-bin energy, with difficulty controlled by the noise
level and phase jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import check_count
from .seeds import make_rng

__all__ = [
    "Dataset",
    "SynthClassSpec",
    "SynthSpec",
    "StandardizationStats",
    "zscore_fit",
    "zscore_apply",
    "segment",
    "synth_arrays",
    "SessionSpec",
    "SessionSplit",
    "split_sessions",
    "desk_synth_spec",
    "paired_gain_spec",
]

_STD_FLOOR = 1e-8
_TRAIN_STREAM, _TEST_STREAM = 0, 1


@dataclass
class Dataset:
    """An (N, H, W) float32 sample stack with integer labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float32)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 3 or self.y.shape != (self.x.shape[0],):
            raise ValueError(f"bad dataset shapes x={self.x.shape} y={self.y.shape}")

    def __len__(self) -> int:
        return self.x.shape[0]

    def classes(self) -> list[int]:
        return sorted(int(c) for c in np.unique(self.y))

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.x[idx].copy(), self.y[idx].copy())

    def of_classes(self, class_ids: Sequence[int]) -> "Dataset":
        mask = np.isin(self.y, np.asarray(list(class_ids)))
        return Dataset(self.x[mask].copy(), self.y[mask].copy())

    def concat(self, other: "Dataset") -> "Dataset":
        return Dataset(np.concatenate([self.x, other.x]),
                       np.concatenate([self.y, other.y]))


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class SynthClassSpec:
    """Generative parameters for one class.

    ``channel_gains`` scales the signal per channel; two classes may share a
    frequency as long as their gain profiles differ, which makes them
    separable only through the channel mix (not through spectral energy).
    """

    frequency: float          # cycles per window
    phase_jitter: float = 1.0  # fraction of the full [-pi, pi) phase range
    noise_sigma: float = 0.5
    channel_gains: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 <= self.phase_jitter <= 1.0:
            raise ValueError("phase_jitter must lie in [0, 1]")
        if self.channel_gains is not None:
            object.__setattr__(self, "channel_gains", tuple(float(g) for g in self.channel_gains))


@dataclass(frozen=True)
class SynthSpec:
    classes: tuple[SynthClassSpec, ...]
    train_per_class: int
    test_per_class: int
    channels: int
    timesteps: int
    seed: int

    def __post_init__(self):
        params = [(c.frequency, c.channel_gains) for c in self.classes]
        if len(set(params)) != len(params):
            raise ValueError("class parameter sets must be pairwise distinct")
        for name, least in (("train_per_class", 1), ("test_per_class", 0), ("channels", 1),
                            ("timesteps", 1)):
            check_count(name, getattr(self, name), least)
        for c in self.classes:
            if c.channel_gains is not None and len(c.channel_gains) != self.channels:
                raise ValueError(f"channel_gains length {len(c.channel_gains)} != "
                                 f"channels {self.channels}")


def desk_synth_spec(num_classes: int, train_per_class: int = 30, test_per_class: int = 20,
                    channels: int = 4, timesteps: int = 64, seed: int = 5,
                    noise_sigma: float = 0.5, base_frequency: float = 3.0,
                    frequency_step: float = 1.0) -> SynthSpec:
    """Evenly spaced class frequencies starting at ``base_frequency``."""
    check_count("num_classes", num_classes, 1)
    classes = tuple(
        SynthClassSpec(frequency=base_frequency + frequency_step * c,
                       noise_sigma=noise_sigma)
        for c in range(num_classes))
    return SynthSpec(classes=classes, train_per_class=train_per_class,
                     test_per_class=test_per_class, channels=channels,
                     timesteps=timesteps, seed=seed)


def paired_gain_spec(frequencies: Sequence[float] = (3.0, 5.0),
                     gain_high: float = 1.5, gain_low: float = 0.5,
                     train_per_class: int = 30, test_per_class: int = 20,
                     channels: int = 4, timesteps: int = 64, seed: int = 5,
                     noise_sigma: float = 0.5, phase_jitter: float = 0.5) -> SynthSpec:
    """Two classes per frequency, distinguished by mirrored channel-gain ramps.

    Within a pair the classes share their frequency, so spectral energy alone
    cannot separate them: a model has to weight channels asymmetrically.
    Separating the first pair therefore forces that channel contrast into the
    learned features, and later pairs reuse the same contrast at unseen
    frequencies.
    """
    ramp_down = tuple(np.linspace(gain_high, gain_low, channels).round(6))
    ramp_up = tuple(reversed(ramp_down))
    classes = []
    for f in frequencies:
        for gains in (ramp_down, ramp_up):
            classes.append(SynthClassSpec(frequency=float(f), noise_sigma=noise_sigma,
                                          phase_jitter=phase_jitter,
                                          channel_gains=gains))
    return SynthSpec(classes=tuple(classes), train_per_class=train_per_class,
                     test_per_class=test_per_class, channels=channels,
                     timesteps=timesteps, seed=seed)


def _synth_sample(spec: SynthSpec, cls: SynthClassSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.channels, spec.timesteps
    t = np.arange(w, dtype=np.float64) / w
    phase = cls.phase_jitter * rng.uniform(-np.pi, np.pi)
    # fixed per-channel phase offsets give the spatial conv something to use
    channel_phase = np.linspace(0.0, np.pi / 2, h)[:, None]
    signal = np.sin(2 * np.pi * cls.frequency * t[None, :] + phase + channel_phase)
    if cls.channel_gains is not None:
        signal = signal * np.asarray(cls.channel_gains)[:, None]
    noise = cls.noise_sigma * rng.standard_normal((h, w))
    return (signal + noise).astype(np.float32)


def synth_arrays(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """Generate (train, test) datasets.

    Each sample draws from its own seeded stream keyed by (split, class,
    sample index), so the train and test sets are disjoint by construction
    and any subset regenerates identically.
    """
    def build(split_stream: int, per_class: int) -> Dataset:
        xs, ys = [], []
        for class_id, cls in enumerate(spec.classes):
            for i in range(per_class):
                rng = make_rng(spec.seed, split_stream, class_id, i)
                xs.append(_synth_sample(spec, cls, rng))
                ys.append(class_id)
        if not xs:
            return Dataset(np.zeros((0, spec.channels, spec.timesteps), dtype=np.float32),
                           np.zeros(0, dtype=np.int64))
        return Dataset(np.stack(xs), np.asarray(ys, dtype=np.int64))

    return (build(_TRAIN_STREAM, spec.train_per_class),
            build(_TEST_STREAM, spec.test_per_class))


# ---------------------------------------------------------------------------
# standardization


@dataclass
class StandardizationStats:
    """Per-channel mean and standard deviation fitted on the training split."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean/std must be equal-length vectors")
        if np.any(self.std <= 0):
            raise ValueError("std must be positive")


def zscore_fit(x: np.ndarray) -> StandardizationStats:
    """Per-channel mean/std over every training sample and timestep."""
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[0] == 0:
        raise ValueError(f"expected nonempty (N, H, W) stack, got {x.shape}")
    flat = x.astype(np.float64).transpose(1, 0, 2).reshape(x.shape[1], -1)
    mean = flat.mean(axis=1)
    std = np.maximum(flat.std(axis=1), _STD_FLOOR)
    return StandardizationStats(mean=mean, std=std)


def zscore_apply(x: np.ndarray, stats: StandardizationStats) -> np.ndarray:
    """(x - mean) / std per channel; same stats for train and test."""
    x = np.asarray(x)
    h = stats.mean.shape[0]
    if x.shape[-2] != h:
        raise ValueError(f"channel mismatch: sample has {x.shape[-2]}, stats have {h}")
    return ((x - stats.mean[..., :, None]) / stats.std[..., :, None]).astype(np.float32)


# ---------------------------------------------------------------------------
# segmentation


def segment(recording: np.ndarray, window: int, overlap: float) -> np.ndarray:
    """Cut an (H, L) recording into left-aligned overlapping (H, window) pieces.

    hop = floor(window * (1 - overlap)), clamped to >= 1; the trailing
    remainder shorter than a full window is dropped.
    """
    recording = np.asarray(recording)
    if recording.ndim != 2:
        raise ValueError(f"expected an (H, L) recording, got {recording.shape}")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must lie in [0, 1), got {overlap}")
    length = recording.shape[1]
    if window < 1 or length < window:
        raise ValueError(f"window {window} does not fit recording length {length}")
    hop = max(int(window * (1.0 - overlap)), 1)
    count = (length - window) // hop + 1
    out = np.stack([recording[:, i * hop:i * hop + window] for i in range(count)])
    return out


# ---------------------------------------------------------------------------
# session splitting


@dataclass(frozen=True)
class SessionSpec:
    """Index, class ids, and shots per class of one session."""

    index: int
    class_ids: tuple[int, ...]
    shot: int


@dataclass
class SessionSplit:
    """Session 0 carries the full base training set; later sessions carry
    sampling pools from which trial-specific few-shot sets are drawn."""

    base: Dataset
    base_spec: SessionSpec
    pools: list[Dataset] = field(default_factory=list)
    pool_specs: list[SessionSpec] = field(default_factory=list)

    def classes_through(self, session: int) -> list[int]:
        seen = list(self.base_spec.class_ids)
        for spec in self.pool_specs[:session]:
            seen.extend(spec.class_ids)
        return sorted(seen)


def split_sessions(train: Dataset, base_classes: Sequence[int], way: int,
                   shot: int) -> SessionSplit:
    """Assign classes to sessions: the given base classes form session 0 and
    the remaining classes, in ascending id order, fill `way`-sized sessions.
    """
    base_ids = sorted(int(c) for c in base_classes)
    all_ids = train.classes()
    if len(set(base_ids)) != len(base_ids) or not set(base_ids) <= set(all_ids):
        raise ValueError("base classes must be distinct and present in the dataset")
    incremental = [c for c in all_ids if c not in set(base_ids)]
    if way < 1 or len(incremental) % way != 0:
        raise ValueError(f"{len(incremental)} incremental classes do not fill "
                         f"{way}-way sessions evenly")
    if shot < 1:
        raise ValueError("shot must be >= 1")

    base_spec = SessionSpec(index=0, class_ids=tuple(base_ids), shot=0)
    split = SessionSplit(base=train.of_classes(base_ids), base_spec=base_spec)
    for s in range(len(incremental) // way):
        ids = tuple(incremental[s * way:(s + 1) * way])
        pool = train.of_classes(ids)
        for c in ids:
            have = int(np.sum(pool.y == c))
            if have < shot:
                raise ValueError(f"class {c} has {have} training samples < shot {shot}")
        split.pools.append(pool)
        split.pool_specs.append(SessionSpec(index=s + 1, class_ids=ids, shot=shot))
    return split
