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

Every JSON input (configs, manifests, reports, checkpoint headers) is typed
by ``read_json``, against the annotations of the fields it fills.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import struct
import types
import typing
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .model import (DEFAULT_TEMPERATURE, ConvBackbone, ConvBackboneConfig, FeatureStats,
                    ModelState)
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
    "load_json",
    "read_json",
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


# a checkpoint's "backbone_config" also gives "activation", always "relu",
# and the header's "temperature" is always DEFAULT_TEMPERATURE; both are kept
# so that the format of checkpoint files does not change
_ACTIVATION = "relu"


def save_checkpoint(path, state: ModelState) -> None:
    backbone = state.backbone
    meta = {
        "temperature": DEFAULT_TEMPERATURE,
        "classes": state.seen_classes(),
        "backbone_kind": "conv",
        "has_feature_stats": state.feature_stats is not None,
        "backbone_config": dict(dataclasses.asdict(backbone.config), activation=_ACTIVATION),
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
    where = f"backbone config in {path}"
    cfg = dict(read_json(meta.get("backbone_config"), dict, ContainerError, where))
    activation = cfg.pop("activation", None)
    if activation != _ACTIVATION:
        raise ContainerError(f"unknown activation {activation!r} in {path}")
    return read_json(cfg, ConvBackboneConfig, ContainerError, where)


def load_checkpoint(path) -> ModelState:
    """The ModelState ``save_checkpoint`` wrote; ContainerError for a header
    it does not write, or a missing, extra or wrongly shaped array."""
    meta, arrays = read_container(path, expect_kind=KIND_CHECKPOINT)
    cfg = _backbone_config(meta, path)
    if meta.get("temperature") != DEFAULT_TEMPERATURE:
        raise ContainerError(f"temperature {meta.get('temperature')!r} in {path} is not "
                             f"{DEFAULT_TEMPERATURE}")
    classes = read_json(meta.get("classes"), list[int], ContainerError, f"class list in {path}")
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


# a dataset manifest and its entries, as write_manifest_dataset writes them
class _ManifestEntry(NamedTuple):
    file: str
    class_id: int
    subject_id: int = 0
    split: str = ""
    synthetic: bool = False


class _Manifest(NamedTuple):
    channels: int
    timesteps: int
    entries: list[_ManifestEntry]
    version: int = 1
    sample_rate: float = 1.0


def read_manifest_dataset(manifest_path) -> Dataset:
    """The Dataset a manifest lists; ContainerError naming the manifest unless
    it is a JSON object that ``read_json`` reads as a ``_Manifest`` with
    ``channels`` and ``timesteps`` of at least 1."""
    manifest_path = Path(manifest_path)
    where = f"manifest {manifest_path}"
    manifest = read_json(load_json(manifest_path, ContainerError, where), _Manifest,
                         ContainerError, where)
    h, w = manifest.channels, manifest.timesteps
    for name, value in (("channels", h), ("timesteps", w)):
        if value < 1:
            raise ContainerError(f"bad {where}: {name} must be >= 1, got {value}")
    xs, ys = [], []
    for entry in manifest.entries:
        blob = (manifest_path.parent / entry.file).read_bytes()
        arr = np.frombuffer(blob, dtype="<f4")
        if arr.size != h * w:
            raise ContainerError(f"payload {entry.file} has {arr.size} values, "
                                 f"expected {h * w}")
        xs.append(arr.reshape(h, w).copy())
        ys.append(entry.class_id)
    if not xs:
        return Dataset(np.zeros((0, h, w), dtype=np.float32), np.zeros(0, dtype=np.int64))
    return Dataset(np.stack(xs), np.asarray(ys, dtype=np.int64))


# ---------------------------------------------------------------------------
# JSON encoding and typed reading


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path, error: type[Exception], where: str):
    """The JSON value in the file ``path``; ``error`` naming ``where`` unless
    the file holds valid JSON."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise error(f"{where} is not valid JSON: {err}") from err


def read_json(value, hint, error: type[Exception], where: str, base: dict | None = None):
    """``value``, a parsed JSON value, read as the type ``hint``: ``int`` (not
    a bool), ``float`` (an int stays an int), ``bool``, ``str``, ``None``, a
    ``Literal``, ``list[T]``, ``tuple[T, ...]`` (from a list), ``dict`` or
    ``dict[str, T]``, a union, or a record: a dataclass, NamedTuple or function
    called with a JSON object, each key one of its fields (parameters) and read
    as the field's annotation.  A field without a default must be a key,
    unless it is in ``base``, keyword arguments that the keys override.

    ``error`` ``bad <where>: ...`` names the path of the first part that does
    not fit, such as ``entries[3].class_id``, or gives the TypeError or
    ValueError the record raises, such as a range rule of ``__post_init__``.
    """
    try:
        return _read(value, hint, "", base)
    except ValueError as err:  # _read and _build raise nothing else
        raise error(f"bad {where}: {err}") from None


_SCALARS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
            type(None): "null"}


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_describe, args))
    if origin is typing.Literal:
        return f"one of {list(args)}"
    return "a list" if origin in (list, tuple) else _SCALARS.get(hint, "a JSON object")


def _read(value, hint, path: str, base: dict | None = None):
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        for arg in args:
            try:
                return _read(value, arg, path)
            except ValueError:
                pass
    elif origin is typing.Literal:
        if any(type(value) is type(arg) and value == arg for arg in args):
            return value
    elif origin in (list, tuple):
        if isinstance(value, list):
            items = (_read(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
            return origin(items) if args else value
    elif origin is dict:
        if isinstance(value, dict):  # a JSON object's keys are strings
            return {k: _read(v, args[1], f"{path}.{k}" if path else k)
                    for k, v in value.items()} if args else value
    elif hint in _SCALARS:  # a bool is an int to isinstance, never to a reader
        if isinstance(value, (int, float) if hint is float else hint) and (
                hint is bool or not isinstance(value, bool)):
            return value
    elif isinstance(value, dict):
        return _build(value, hint, path, base or {})
    subject = f"{path} must be" if path else "not"
    raise ValueError(f"{subject} {_describe(hint)}, got {value!r:.80}")


def _build(value: dict, target, path: str, base: dict):
    """``target`` called with the JSON object ``value``'s fields over ``base``."""
    at = f"{path}: " if path else ""
    params = inspect.signature(target).parameters
    unknown = sorted(set(value) - set(params))
    if unknown:
        raise ValueError(f"{at}unknown keys {unknown}; valid keys: {sorted(params)}")
    missing = sorted(name for name, p in params.items()
                     if p.default is p.empty and name not in value and name not in base)
    if missing:
        raise ValueError(f"{at}missing keys {missing}")
    hints = typing.get_type_hints(target)
    kwargs = dict(base, **{k: _read(v, hints[k], f"{path}.{k}" if path else k)
                           for k, v in value.items()})
    try:
        return target(**kwargs)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{at}{err}") from err


def file_sha256(path) -> str:
    import hashlib
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
