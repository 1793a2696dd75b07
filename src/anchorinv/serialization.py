"""Binary container, dataset manifests, and report files.

Container byte layout (all integers little-endian):

    magic    8 bytes  b"AINVBIN\\0"
    version  u32      currently 1
    kind     u8       1 = model checkpoint, 2 = anchor store
    meta     u32 length + UTF-8 JSON (configuration header)
    count    u32      number of named arrays
    arrays   repeated: u16 name length + UTF-8 name,
                       u8 dtype tag (0 = float32, 1 = int64),
                       u8 ndim, ndim x u32 dims,
                       raw little-endian array values (C order)

Dataset manifests are JSON files listing per-sample payload files; payloads
are raw little-endian float32, row-major H x W, no header (the shape lives
in the manifest).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .data import Dataset
from .model import (DEFAULT_TEMPERATURE, ConvBackbone, ConvBackboneConfig, FeatureStats,
                    ModelState, check_count)
from .autodiff import Tensor

__all__ = [
    "ContainerError",
    "write_container",
    "read_container",
    "save_checkpoint",
    "load_checkpoint",
    "write_manifest_dataset",
    "read_manifest_dataset",
    "canonical_json",
    "file_sha256",
    "KIND_CHECKPOINT",
    "KIND_ANCHORS",
]

_MAGIC = b"AINVBIN\x00"
_VERSION = 1
KIND_CHECKPOINT = 1
KIND_ANCHORS = 2

_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<i8")}
_TAG_OF_KIND = {"f": 0, "i": 1}


class ContainerError(RuntimeError):
    """Corrupt, truncated, or incompatible container file."""


def check_arrays(arrays: dict[str, np.ndarray], expected: dict[str, tuple], path) -> None:
    """ContainerError unless ``arrays`` holds exactly the named arrays of
    ``expected``, each of its (shape, dtype)."""
    missing = sorted(set(expected) - set(arrays))
    extra = sorted(set(arrays) - set(expected))
    if missing or extra:
        raise ContainerError(f"{path}: missing arrays {missing}, unexpected arrays {extra}")
    for name, (shape, dtype) in expected.items():
        arr = arrays[name]
        if arr.shape != shape or arr.dtype != dtype:
            raise ContainerError(f"{path}: array '{name}' is {arr.dtype} {arr.shape}, "
                                 f"expected {np.dtype(dtype)} {shape}")


def write_container(path, kind: int, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    parts = [_MAGIC, struct.pack("<IB", _VERSION, kind)]
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(meta_blob)))
    parts.append(meta_blob)
    parts.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype.kind == "f":
            arr = arr.astype("<f4", copy=False)
        elif arr.dtype.kind in ("i", "u"):
            arr = arr.astype("<i8", copy=False)
        else:
            raise ContainerError(f"unsupported dtype {arr.dtype} for array '{name}'")
        name_blob = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_blob)))
        parts.append(name_blob)
        parts.append(struct.pack("<BB", _TAG_OF_KIND[arr.dtype.kind], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr).tobytes())
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise ContainerError(f"truncated container: {self.path}")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_container(path, expect_kind: int | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    reader = _Reader(Path(path).read_bytes(), path)
    if reader.take(len(_MAGIC)) != _MAGIC:
        raise ContainerError(f"not a container file: {path}")
    version, kind = reader.unpack("<IB")
    if version != _VERSION:
        raise ContainerError(f"container version {version} unsupported (expected {_VERSION})")
    if expect_kind is not None and kind != expect_kind:
        raise ContainerError(f"container kind {kind} != expected {expect_kind}")
    (meta_len,) = reader.unpack("<I")
    try:
        meta = json.loads(reader.take(meta_len).decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError, JSONDecodeError
        raise ContainerError(f"container header of {path} is not UTF-8 JSON: {err}") from err
    if not isinstance(meta, dict):
        raise ContainerError(f"container header of {path} is not a JSON object")
    (count,) = reader.unpack("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as err:
            raise ContainerError(f"array name in {path} is not UTF-8: {err}") from err
        tag, ndim = reader.unpack("<BB")
        if tag not in _DTYPE_TAGS:
            raise ContainerError(f"unknown dtype tag {tag} in {path}")
        dims = reader.unpack(f"<{ndim}I")
        dtype = _DTYPE_TAGS[tag]
        nbytes = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
        data = np.frombuffer(reader.take(nbytes), dtype=dtype).reshape(dims)
        arrays[name] = data.copy()
    return meta, arrays


# ---------------------------------------------------------------------------
# model checkpoints


# the keys of a checkpoint's "backbone_config"; "activation" is always "relu"
# and the header's "temperature" always DEFAULT_TEMPERATURE, kept so that the
# format of checkpoint files does not change
_BACKBONE_KEYS = ("name", "channels", "timesteps", "filters", "temporal_kernel",
                  "temporal_stride", "pool_kernel", "pool_stride")
_ACTIVATION = "relu"


def save_checkpoint(path, state: ModelState) -> None:
    backbone = state.backbone
    meta = {
        "temperature": DEFAULT_TEMPERATURE,
        "classes": state.seen_classes(),
        "backbone_kind": "conv",
        "has_feature_stats": state.feature_stats is not None,
        "backbone_config": dict({key: getattr(backbone.config, key) for key in _BACKBONE_KEYS},
                                activation=_ACTIVATION),
    }
    arrays: dict[str, np.ndarray] = {}
    for name, tensor in backbone.params.items():
        arrays[f"backbone.{name}"] = tensor.data
    for c in state.seen_classes():
        arrays[f"classifier.{c}"] = state.class_weights[c].data
    if state.feature_stats is not None:
        arrays["feature_stats.mean"] = state.feature_stats.mean
        arrays["feature_stats.var"] = state.feature_stats.var
    write_container(path, KIND_CHECKPOINT, meta, arrays)


def _backbone_config(meta: dict, path) -> ConvBackboneConfig:
    """The ConvBackboneConfig a checkpoint's header describes; ContainerError
    for a header ``save_checkpoint`` does not write."""
    if meta.get("backbone_kind") != "conv":
        raise ContainerError(f"unknown backbone kind {meta.get('backbone_kind')!r} in {path}")
    cfg = meta.get("backbone_config")
    keys = {*_BACKBONE_KEYS, "activation"}
    if not isinstance(cfg, dict) or set(cfg) != keys:
        raise ContainerError(f"backbone config in {path} does not have the keys {sorted(keys)}")
    if cfg["activation"] != _ACTIVATION:
        raise ContainerError(f"unknown activation {cfg['activation']!r} in {path}")
    try:
        return ConvBackboneConfig(**{key: cfg[key] for key in _BACKBONE_KEYS})
    except (TypeError, ValueError) as err:
        raise ContainerError(f"bad backbone config in {path}: {err}") from err


def load_checkpoint(path) -> ModelState:
    """The ModelState ``save_checkpoint`` wrote; ContainerError for a header
    it does not write, or a missing, extra or wrongly shaped array."""
    meta, arrays = read_container(path, expect_kind=KIND_CHECKPOINT)
    cfg = _backbone_config(meta, path)
    if meta.get("temperature") != DEFAULT_TEMPERATURE:
        raise ContainerError(f"temperature {meta.get('temperature')!r} in {path} is not "
                             f"{DEFAULT_TEMPERATURE}")
    classes = meta.get("classes")
    if not isinstance(classes, list) or not all(type(c) is int for c in classes):
        raise ContainerError(f"class list {classes!r} in {path} is not a list of ints")
    f, h, kt, d = cfg.filters, cfg.channels, cfg.temporal_kernel, cfg.feature_dim
    expected = {"backbone.temporal_w": (f, 1, 1, kt), "backbone.temporal_b": (f,),
                "backbone.spatial_w": (f, f, h, 1), "backbone.spatial_b": (f,)}
    expected.update({f"classifier.{c}": (d,) for c in classes})
    if meta.get("has_feature_stats"):
        expected.update({"feature_stats.mean": (d,), "feature_stats.var": (d,)})
    check_arrays(arrays, {name: (shape, np.float32) for name, shape in expected.items()}, path)

    params = {name: Tensor(arrays[f"backbone.{name}"])
              for name in ("temporal_w", "temporal_b", "spatial_w", "spatial_b")}
    state = ModelState(ConvBackbone(cfg, params))
    for c in classes:
        state.register_class(c, arrays[f"classifier.{c}"])
    if meta.get("has_feature_stats"):
        state.feature_stats = FeatureStats(mean=arrays["feature_stats.mean"],
                                           var=arrays["feature_stats.var"])
    return state


# ---------------------------------------------------------------------------
# dataset manifests


def write_manifest_dataset(root, dataset: Dataset, split: str,
                           synthetic: bool = False) -> Path:
    """Write per-sample raw float32 payloads plus a JSON manifest; returns the
    manifest path.  Every entry's ``subject_id`` is 0 and the manifest's
    ``sample_rate`` 1.0, kept so that the manifest format does not change."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    n, h, w = dataset.x.shape
    entries = []
    for i in range(n):
        rel = f"{split}_{i:05d}.f32"
        payload = np.ascontiguousarray(dataset.x[i], dtype="<f4")
        (root / rel).write_bytes(payload.tobytes())
        entries.append({
            "file": rel,
            "class_id": int(dataset.y[i]),
            "subject_id": 0,
            "split": split,
            "synthetic": bool(synthetic),
        })
    manifest = {
        "version": 1,
        "channels": int(h),
        "timesteps": int(w),
        "sample_rate": 1.0,
        "entries": entries,
    }
    path = root / f"manifest_{split}.json"
    path.write_text(canonical_json(manifest))
    return path


def read_manifest_dataset(manifest_path) -> Dataset:
    """The Dataset a manifest lists; ContainerError naming the manifest unless
    it is a valid JSON object with int ``channels`` and ``timesteps`` of at
    least 1 and an ``entries`` list whose every entry has a ``file`` and an
    int ``class_id``."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as err:
        raise ContainerError(f"manifest {manifest_path} is not valid JSON: {err}") from err
    if not isinstance(manifest, dict):
        raise ContainerError(f"manifest {manifest_path} is not a JSON object")
    missing = [key for key in ("channels", "timesteps", "entries") if key not in manifest]
    if missing:
        raise ContainerError(f"manifest {manifest_path} lacks the keys {missing}")
    h, w = manifest["channels"], manifest["timesteps"]
    try:
        check_count("channels", h, 1)
        check_count("timesteps", w, 1)
    except ValueError as err:
        raise ContainerError(f"manifest {manifest_path}: {err}") from err
    if not isinstance(manifest["entries"], list):
        raise ContainerError(f"manifest {manifest_path} has entries that are not a list: "
                             f"{manifest['entries']!r}")
    xs, ys = [], []
    for entry in manifest["entries"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("file"), str) \
                or type(entry.get("class_id")) is not int:
            raise ContainerError(f"manifest {manifest_path} has an entry without a file "
                                 f"or an int class_id: {entry!r}")
        blob = (manifest_path.parent / entry["file"]).read_bytes()
        arr = np.frombuffer(blob, dtype="<f4")
        if arr.size != h * w:
            raise ContainerError(f"payload {entry['file']} has {arr.size} values, "
                                 f"expected {h * w}")
        xs.append(arr.reshape(h, w).copy())
        ys.append(int(entry["class_id"]))
    if not xs:
        return Dataset(np.zeros((0, h, w), dtype=np.float32), np.zeros(0, dtype=np.int64))
    return Dataset(np.stack(xs), np.asarray(ys, dtype=np.int64))


# ---------------------------------------------------------------------------
# report encoding


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def file_sha256(path) -> str:
    import hashlib
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
