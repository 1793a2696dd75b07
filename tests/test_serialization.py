"""Round-trip and corruption tests for the binary container format, model
checkpoints, dataset manifests, and canonical JSON helpers."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from anchorinv.anchors import load_anchor_set
from anchorinv.data import Dataset
from anchorinv.model import BACKBONE_PRESETS, ConvBackbone, FeatureStats, ModelState, embed_batch
from anchorinv.autodiff import Tensor
from anchorinv.serialization import (KIND_ANCHORS, KIND_CHECKPOINT,
                                     ContainerError, canonical_json,
                                     file_sha256, load_checkpoint,
                                     read_container, read_manifest_dataset,
                                     save_checkpoint, write_container,
                                     write_manifest_dataset)


# ---------------------------------------------------------------------------
# container round trips


def test_container_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(100)
    path = tmp_path / "c.bin"
    arrays = {
        "weights": rng.standard_normal((3, 4)).astype(np.float32),
        "labels": np.array([5, -2, 7], dtype=np.int64),
        "scalar": np.float32(2.5),
        "cube": rng.standard_normal((2, 3, 2)).astype(np.float32),
    }
    meta = {"epoch": 12, "name": "base", "nested": {"lr": 0.001}}
    write_container(path, KIND_CHECKPOINT, meta, arrays)
    got_meta, got = read_container(path)
    assert got_meta == meta
    assert sorted(got) == sorted(arrays)
    for name in arrays:
        expect = np.asarray(arrays[name])
        assert got[name].dtype == expect.dtype
        assert got[name].shape == expect.shape
        assert got[name].tobytes() == expect.tobytes()


def test_container_write_deterministic(tmp_path):
    arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3)}
    write_container(tmp_path / "x.bin", KIND_ANCHORS, {"k": 1}, arrays)
    write_container(tmp_path / "y.bin", KIND_ANCHORS, {"k": 1}, arrays)
    assert (tmp_path / "x.bin").read_bytes() == (tmp_path / "y.bin").read_bytes()


def test_container_float64_narrowed_to_float32(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, KIND_ANCHORS, {}, {"v": np.array([1.0, 2.0])})
    _, got = read_container(path)
    assert got["v"].dtype == np.float32


def test_container_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ContainerError):
        write_container(tmp_path / "c.bin", KIND_ANCHORS, {},
                        {"v": np.array([1 + 2j])})


def test_container_kind_check(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, KIND_ANCHORS, {}, {})
    read_container(path, expect_kind=KIND_ANCHORS)
    with pytest.raises(ContainerError):
        read_container(path, expect_kind=KIND_CHECKPOINT)


def test_container_bad_magic(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ContainerError):
        read_container(path)


def test_container_truncated(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, KIND_ANCHORS, {"a": 1},
                    {"v": np.ones((4, 4), dtype=np.float32)})
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(blob[:len(blob) - 10])
    with pytest.raises(ContainerError):
        read_container(clipped)


def test_container_bad_version(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, KIND_ANCHORS, {}, {})
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError):
        read_container(path)


@pytest.mark.parametrize("load,kind", [(load_anchor_set, KIND_ANCHORS),
                                       (load_checkpoint, KIND_CHECKPOINT)],
                         ids=["anchors", "checkpoint"])
@pytest.mark.parametrize("header", [b"[1, 2]", b'{"a": "\xff"}', b'{"a": 1'],
                         ids=["list", "not-utf8", "invalid-json"])
def test_loaders_reject_a_header_that_is_not_a_json_object(tmp_path, load, kind, header):
    """A header that is not UTF-8 JSON, or is JSON but not an object, is a
    ContainerError from ``read_container``, before a loader reads a key."""
    path = tmp_path / "c.bin"
    write_container(path, kind, {}, {})
    blob = path.read_bytes()
    # magic (8 bytes), version (4) and kind (1); then the header's u32 length,
    # the header "{}" and the u32 array count
    path.write_bytes(blob[:13] + struct.pack("<I", len(header)) + header + blob[-4:])
    with pytest.raises(ContainerError, match="header"):
        read_container(path)
    with pytest.raises(ContainerError, match="header"):
        load(path)


@pytest.mark.parametrize("load,kind", [(load_anchor_set, KIND_ANCHORS),
                                       (load_checkpoint, KIND_CHECKPOINT)],
                         ids=["anchors", "checkpoint"])
def test_loaders_reject_an_array_name_that_is_not_utf8(tmp_path, load, kind):
    path = tmp_path / "c.bin"
    write_container(path, kind, {}, {"ab": np.zeros(1, np.float32)})
    blob = path.read_bytes()
    # the name's u16 length (2) is followed by its two bytes
    at = blob.index(struct.pack("<H", 2) + b"ab") + 2
    path.write_bytes(blob[:at] + b"\xff\xfe" + blob[at + 2:])
    with pytest.raises(ContainerError, match="array name"):
        read_container(path)
    with pytest.raises(ContainerError, match="array name"):
        load(path)


# ---------------------------------------------------------------------------
# model checkpoints


def test_checkpoint_round_trip_conv(tmp_path):
    config = BACKBONE_PRESETS["desk"]
    state = ModelState(ConvBackbone.initialize(config, seed=3))
    rng = np.random.default_rng(101)
    state.register_class(0, rng.standard_normal(state.feature_dim))
    state.register_class(1, rng.standard_normal(state.feature_dim))
    path = tmp_path / "model.bin"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.seen_classes() == [0, 1]
    for name, tensor in state.backbone.params.items():
        assert loaded.backbone.params[name].data.tobytes() == tensor.data.tobytes()
        assert not loaded.backbone.params[name].requires_grad  # loaded at rest, frozen
    for c in (0, 1):
        assert (loaded.class_weights[c].data.tobytes()
                == state.class_weights[c].data.tobytes())
    # same inputs produce identical features after the round trip
    x = rng.standard_normal((2, config.channels, config.timesteps)).astype(np.float32)
    np.testing.assert_array_equal(embed_batch(loaded, x).data, embed_batch(state, x).data)


def test_checkpoint_preserves_feature_stats(tmp_path):
    state = ModelState(ConvBackbone.initialize(BACKBONE_PRESETS["desk"], seed=4))
    state.feature_stats = FeatureStats(mean=np.full(state.feature_dim, 0.25,
                                                    dtype=np.float32),
                                       var=np.full(state.feature_dim, 2.0,
                                                   dtype=np.float32))
    path = tmp_path / "model.bin"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.feature_stats.mean, state.feature_stats.mean)
    np.testing.assert_array_equal(loaded.feature_stats.var, state.feature_stats.var)


def _desk_state():
    state = ModelState(ConvBackbone.initialize(BACKBONE_PRESETS["desk"], seed=4))
    rng = np.random.default_rng(103)
    for c in (0, 3):
        state.register_class(c, rng.standard_normal(state.feature_dim).astype(np.float32))
    state.feature_stats = FeatureStats(mean=np.full(state.feature_dim, 0.25, dtype=np.float32),
                                       var=np.full(state.feature_dim, 2.0, dtype=np.float32))
    return state


def test_checkpoint_format_is_unchanged(tmp_path):
    # the format is pinned to the byte, "activation": "relu" included, so
    # that every checkpoint written so far still loads
    path = tmp_path / "model.bin"
    save_checkpoint(path, _desk_state())
    assert file_sha256(path) == \
        "ce77dfdcf859adf0e09cb839cc139cd80c5627d90dc13431dbde71bfe4e1f42f"
    meta, _ = read_container(path)
    assert meta["backbone_kind"] == "conv" and meta["backbone_config"]["activation"] == "relu"
    loaded = load_checkpoint(path)
    assert loaded.backbone.config == BACKBONE_PRESETS["desk"]
    assert loaded.seen_classes() == [0, 3]


@pytest.mark.parametrize("patch", [
    lambda meta: meta.update(backbone_kind="identity"),
    lambda meta: meta.update(backbone_kind="linear"),
    lambda meta: meta.update(backbone_kind="mlp"),
    lambda meta: meta["backbone_config"].update(dilation=2),
    lambda meta: meta["backbone_config"].pop("pool_stride"),
    lambda meta: meta["backbone_config"].update(activation="identity"),
    lambda meta: meta["backbone_config"].update(filters=0),
    lambda meta: meta["backbone_config"].update(filters="8"),
    lambda meta: meta.update(temperature=1.0),
    lambda meta: meta.update(classes=["0", "3"]),
    lambda meta: meta["backbone_config"].update(channels=4.0),
    lambda meta: meta["backbone_config"].update(temporal_stride=True)],
    ids=["identity-kind", "linear-kind", "unknown-kind", "extra-key", "missing-key",
         "identity-activation", "zero-filters", "string-filters", "temperature",
         "string-classes", "float-channels", "bool-stride"])
def test_load_checkpoint_rejects_a_malformed_header(tmp_path, patch):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _desk_state())
    meta, arrays = read_container(path)
    patch(meta)
    write_container(path, KIND_CHECKPOINT, meta, arrays)
    with pytest.raises(ContainerError):
        load_checkpoint(path)


@pytest.mark.parametrize("patch", [
    lambda arrays: arrays.pop("backbone.spatial_w"),
    lambda arrays: arrays.pop("classifier.3"),
    lambda arrays: arrays.pop("feature_stats.var"),
    lambda arrays: arrays.update({"classifier.5": arrays["classifier.3"]}),
    lambda arrays: arrays.update({"backbone.spatial_w": np.zeros((2, 8, 4, 1), np.float32)}),
    lambda arrays: arrays.update({"classifier.0": arrays["classifier.0"][:-1]}),
    lambda arrays: arrays.update({"backbone.temporal_b": np.zeros(8, np.int64)})],
    ids=["missing-backbone", "missing-classifier", "missing-stats", "extra-classifier",
         "short-spatial-w", "short-classifier", "integer-bias"])
def test_load_checkpoint_rejects_malformed_arrays(tmp_path, patch):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _desk_state())
    meta, arrays = read_container(path)
    patch(arrays)
    write_container(path, KIND_CHECKPOINT, meta, arrays)
    with pytest.raises(ContainerError):
        load_checkpoint(path)


def test_checkpoint_wrong_kind_file(tmp_path):
    path = tmp_path / "anchors.bin"
    write_container(path, KIND_ANCHORS, {}, {})
    with pytest.raises(ContainerError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# dataset manifests


def test_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(103)
    x = rng.standard_normal((5, 3, 8)).astype(np.float32)
    y = np.array([0, 1, 1, 2, 0], dtype=np.int64)
    manifest_path = write_manifest_dataset(tmp_path, Dataset(x, y), "train", synthetic=True)
    assert manifest_path.name == "manifest_train.json"
    loaded = read_manifest_dataset(manifest_path)
    assert loaded.x.dtype == np.float32
    assert loaded.x.tobytes() == x.tobytes()
    np.testing.assert_array_equal(loaded.y, y)


def test_manifest_payloads_are_raw_float32(tmp_path):
    x = np.arange(6, dtype=np.float32).reshape(1, 2, 3)
    write_manifest_dataset(tmp_path, Dataset(x, np.array([7])), "test")
    blob = (tmp_path / "test_00000.f32").read_bytes()
    assert blob == x[0].tobytes()
    manifest = json.loads((tmp_path / "manifest_test.json").read_text())
    assert manifest["channels"] == 2
    assert manifest["timesteps"] == 3
    assert manifest["entries"][0]["class_id"] == 7


def test_manifest_size_mismatch(tmp_path):
    x = np.zeros((1, 2, 3), dtype=np.float32)
    path = write_manifest_dataset(tmp_path, Dataset(x, np.array([0])), "train")
    (tmp_path / "train_00000.f32").write_bytes(b"\x00" * 8)  # 2 floats, not 6
    with pytest.raises(ContainerError):
        read_manifest_dataset(path)


@pytest.mark.parametrize("patch,match", [
    (lambda manifest: [manifest], "not a JSON object"),
    (lambda manifest: {k: v for k, v in manifest.items() if k != "channels"}, "channels"),
    (lambda manifest: {k: v for k, v in manifest.items() if k != "timesteps"}, "timesteps"),
    (lambda manifest: {k: v for k, v in manifest.items() if k != "entries"}, "entries"),
    (lambda manifest: dict(manifest, channels=2.9), "channels must be an integer"),
    (lambda manifest: dict(manifest, channels=True, timesteps=6), "channels must be an integer"),
    (lambda manifest: dict(manifest, timesteps=0), "timesteps must be >= 1"),
    (lambda manifest: dict(manifest, entries=[{"class_id": 0}]),
     re.escape("entries[0]: missing keys ['file']")),
    (lambda manifest: dict(manifest, entries=[{"file": "train_00000.f32"}]),
     re.escape("entries[0]: missing keys ['class_id']")),
    (lambda manifest: dict(manifest, entries=[{"file": "train_00000.f32", "class_id": 1.5}]),
     re.escape("entries[0].class_id must be an integer, got 1.5")),
    (lambda manifest: json.dumps(manifest)[:-1], "not valid JSON"),
    (lambda manifest: dict(manifest, entries=5), "entries must be a list, got 5"),
    (lambda manifest: dict(manifest, sample_rate="1.0"), "sample_rate must be a number, got '1.0'"),
    (lambda manifest: dict(manifest, comment="hand-made"), re.escape("unknown keys ['comment']")),
    (lambda manifest: dict(manifest, entries=[dict(manifest["entries"][0], synthetic="no")]),
     re.escape("entries[0].synthetic must be true or false, got 'no'")),
    (lambda manifest: dict(manifest, entries=[dict(manifest["entries"][0], subject_id=0.5)]),
     re.escape("entries[0].subject_id must be an integer, got 0.5"))],
    ids=["list-root", "no-channels", "no-timesteps", "no-entries", "float-channels",
         "bool-channels", "zero-timesteps", "no-file", "no-class", "float-class",
         "invalid-json", "int-entries", "string-sample-rate", "unknown-key",
         "string-synthetic", "float-subject"])
def test_manifest_malformed_is_a_container_error_naming_it(tmp_path, patch, match):
    x = np.zeros((1, 2, 3), dtype=np.float32)
    path = write_manifest_dataset(tmp_path, Dataset(x, np.array([0])), "train")
    patched = patch(json.loads(path.read_text()))  # a str is written as it is
    path.write_text(patched if isinstance(patched, str) else json.dumps(patched))
    with pytest.raises(ContainerError, match=match) as info:
        read_manifest_dataset(path)
    assert str(path) in str(info.value)


def test_manifest_empty_dataset(tmp_path):
    empty = Dataset(np.zeros((0, 4, 8), dtype=np.float32), np.zeros(0, dtype=np.int64))
    path = write_manifest_dataset(tmp_path, empty, "train")
    loaded = read_manifest_dataset(path)
    assert loaded.x.shape == (0, 4, 8)


def test_manifest_subject_ids(tmp_path):
    x = np.zeros((2, 1, 4), dtype=np.float32)
    write_manifest_dataset(tmp_path, Dataset(x, np.array([0, 1])), "train")
    manifest = json.loads((tmp_path / "manifest_train.json").read_text())
    # format constants: one subject, one sample per time step
    assert [e["subject_id"] for e in manifest["entries"]] == [0, 0]
    assert manifest["sample_rate"] == 1.0
    for name in ("subject_ids", "sample_rate"):
        with pytest.raises(TypeError):
            write_manifest_dataset(tmp_path, Dataset(x, np.array([0, 1])), "train",
                                   **{name: 1})


# ---------------------------------------------------------------------------
# canonical JSON / hashing


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert " " not in a


def test_file_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    payload = b"some bytes \x00\x01\x02"
    path.write_bytes(payload)
    assert file_sha256(path) == hashlib.sha256(payload).hexdigest()
