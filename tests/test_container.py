import json

import numpy as np
import pytest

from avrobust.container import (
    ClipRecord,
    read_feature_file,
    read_manifest,
    tensor_bytes,
    tensor_from_bytes,
    write_feature_file,
    write_manifest,
)
from avrobust.errors import FormatError, ValidationError


def test_round_trip_matches_at_float32(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((400, 64))
    path = tmp_path / "feat.avfb"
    write_feature_file(path, x)
    back = read_feature_file(path)
    assert back.dtype == np.dtype("<f4")
    np.testing.assert_array_equal(back, x.astype(np.float32))


def test_round_trip_float64_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 3, 2))
    path = tmp_path / "delta.avfb"
    write_feature_file(path, x, dtype="float64")
    back = read_feature_file(path)
    assert back.dtype == np.dtype("<f8")
    np.testing.assert_array_equal(back, x)


def test_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad.avfb"
    good = tensor_bytes(np.ones((2, 2)))
    path.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(FormatError, match="offset 0"):
        read_feature_file(path)


def test_bad_version_and_dtype_offsets():
    good = bytearray(tensor_bytes(np.ones((2, 2))))
    bad_version = bytes(good[:4]) + bytes([9]) + bytes(good[5:])
    with pytest.raises(FormatError, match="offset 4"):
        tensor_from_bytes(bad_version)
    bad_dtype = bytes(good[:5]) + bytes([7]) + bytes(good[6:])
    with pytest.raises(FormatError, match="offset 5"):
        tensor_from_bytes(bad_dtype)


def test_truncated_payload_names_offset(tmp_path):
    path = tmp_path / "short.avfb"
    path.write_bytes(tensor_bytes(np.ones((4, 4)))[:-8])
    with pytest.raises(FormatError, match="truncated payload"):
        read_feature_file(path)


def test_degenerate_tensor_rejected_at_write(tmp_path):
    with pytest.raises(ValidationError):
        write_feature_file(tmp_path / "zero.avfb", np.zeros((0, 0)))
    with pytest.raises(ValidationError):
        write_feature_file(tmp_path / "scalar.avfb", np.float64(3.0))


def test_non_finite_rejected(tmp_path):
    with pytest.raises(ValidationError):
        write_feature_file(tmp_path / "nan.avfb", np.array([[np.nan]]))


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "extra.avfb"
    path.write_bytes(tensor_bytes(np.ones((2, 2))) + b"junk")
    with pytest.raises(FormatError, match="trailing garbage"):
        read_feature_file(path)


def _records():
    return [
        ClipRecord("clip_000", "feat/clip_000.avfb", "vid/clip_000.avfb", [0, 2], "train", 11),
        ClipRecord("clip_001", "feat/clip_001.avfb", "vid/clip_001.avfb", [1], "eval", 12),
    ]


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, _records())
    back = read_manifest(path, require_paths=False)
    assert back == _records()
    # stable re-serialization
    first = path.read_bytes()
    write_manifest(path, back)
    assert path.read_bytes() == first


def test_manifest_duplicate_ids_rejected(tmp_path):
    recs = _records()
    recs[1].id = recs[0].id
    with pytest.raises(ValidationError):
        write_manifest(tmp_path / "m.jsonl", recs)


def test_manifest_unresolvable_path(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, _records())
    with pytest.raises(ValidationError, match="unresolvable"):
        read_manifest(path)


@pytest.mark.parametrize("key, value", [("seed", "x"), ("labels", 3), ("labels", ["a"])])
def test_manifest_bad_value_is_format_error(tmp_path, key, value):
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, _records())
    first, rest = path.read_text().split("\n", 1)
    obj = json.loads(first)
    obj[key] = value
    path.write_text(json.dumps(obj) + "\n" + rest)
    with pytest.raises(FormatError, match="line 1: bad value"):
        read_manifest(path, require_paths=False)
