"""Binary tensor container (AVFB) and the JSONL dataset manifest.

AVFB layout, little-endian:

    offset 0   magic  b"AVFB"
    offset 4   version u8 = 1
    offset 5   dtype   u8 (0 = float32, 1 = float64)
    offset 6   ndim    u8
    offset 7   reserved u8 = 0
    offset 8   ndim * u64 extents
    then       row-major payload

Feature files are written as float32; checkpoints and perturbations use
the float64 code so their round-trips are bit-exact.  Writes go to a
temp file in the same directory and are renamed into place.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"AVFB"
VERSION = 1
DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype("float32"): 0, np.dtype("float64"): 1}


def tensor_bytes(array, dtype="float32"):
    """Serialize an ndarray to AVFB bytes."""
    arr = np.asarray(array)
    if arr.ndim == 0 or any(e == 0 for e in arr.shape):
        raise ValidationError(f"refusing to write degenerate tensor of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("refusing to write non-finite tensor")
    target = np.dtype(dtype)
    code = _CODE_FOR[target]
    header = MAGIC + struct.pack("<BBBB", VERSION, code, arr.ndim, 0)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + np.ascontiguousarray(arr, dtype=DTYPE_CODES[code]).tobytes()


def tensor_from_bytes(buf, offset=0):
    """Parse one AVFB block; returns (array, end_offset)."""
    base = offset
    if len(buf) < base + 8:
        raise FormatError(f"truncated header at offset {base}: need 8 bytes")
    if buf[base:base + 4] != MAGIC:
        raise FormatError(f"bad magic {buf[base:base + 4]!r} at offset {base}")
    version, code, ndim, reserved = struct.unpack_from("<BBBB", buf, base + 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version} at offset {base + 4}")
    if code not in DTYPE_CODES:
        raise FormatError(f"unknown dtype code {code} at offset {base + 5}")
    if reserved != 0:
        raise FormatError(f"nonzero reserved byte at offset {base + 7}")
    shape_end = base + 8 + 8 * ndim
    if len(buf) < shape_end:
        raise FormatError(f"truncated extents at offset {base + 8}")
    shape = struct.unpack_from(f"<{ndim}Q", buf, base + 8)
    if ndim == 0 or any(e == 0 for e in shape):
        raise FormatError(f"degenerate shape {shape} at offset {base + 8}")
    dtype = DTYPE_CODES[code]
    count = int(np.prod(shape))
    payload_end = shape_end + count * dtype.itemsize
    if len(buf) < payload_end:
        raise FormatError(
            f"truncated payload at offset {shape_end}: expected {count * dtype.itemsize} bytes")
    arr = np.frombuffer(buf[shape_end:payload_end], dtype=dtype).reshape(shape)
    return arr.copy(), payload_end


def json_field(obj, key, source, kind=None):
    """``obj[key]`` of a parsed JSON object; a missing key, or a value that is
    not a ``kind`` when one is given, is a ``FormatError`` naming ``source``
    and the key."""
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{source}: missing key {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise FormatError(f"{source}: key {key!r} holds {type(value).__name__}, "
                          f"not {kind.__name__}")
    return value


def atomic_write_bytes(path, data):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_feature_file(path, array, dtype="float32"):
    atomic_write_bytes(path, tensor_bytes(array, dtype=dtype))


def read_feature_file(path):
    data = Path(path).read_bytes()
    arr, end = tensor_from_bytes(data)
    if end != len(data):
        raise FormatError(f"trailing garbage after payload at offset {end}")
    return arr


@dataclass
class ClipRecord:
    id: str
    features: str
    video: str
    labels: list[int]
    split: str
    seed: int

    def to_json(self):
        return json.dumps(
            {"id": self.id, "features": self.features, "video": self.video,
             "labels": list(self.labels), "split": self.split, "seed": self.seed},
            sort_keys=True)


def write_manifest(path, records):
    """Write clip records as one JSON object per line.

    Validates id uniqueness and split disjointness before touching disk.
    """
    seen: dict[str, str] = {}
    for rec in records:
        if rec.id in seen:
            raise ValidationError(f"duplicate clip id {rec.id!r} in manifest")
        seen[rec.id] = rec.split
    body = "".join(rec.to_json() + "\n" for rec in records)
    atomic_write_bytes(path, body.encode("utf-8"))


def read_manifest(path, require_paths=True):
    path = Path(path)
    records = []
    ids = set()
    for lineno, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"manifest line {lineno}: invalid JSON ({exc})") from exc
        source = f"{path} line {lineno}"
        v = {key: json_field(obj, key, source)
             for key in ("id", "features", "video", "labels", "split", "seed")}
        try:
            rec = ClipRecord(
                id=str(v["id"]), features=str(v["features"]), video=str(v["video"]),
                labels=[int(x) for x in v["labels"]], split=str(v["split"]),
                seed=int(v["seed"]))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{source}: bad value ({exc})") from exc
        if rec.id in ids:
            raise ValidationError(f"manifest line {lineno}: duplicate clip id {rec.id!r}")
        ids.add(rec.id)
        if rec.split not in ("train", "eval"):
            raise ValidationError(f"manifest line {lineno}: unknown split {rec.split!r}")
        if require_paths:
            for field in (rec.features, rec.video):
                if not (path.parent / field).exists():
                    raise ValidationError(
                        f"manifest line {lineno}: unresolvable path {field!r}")
        records.append(rec)
    return records
