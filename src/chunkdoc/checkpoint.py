"""One container for every model checkpoint (PV-DM, aggregator, SVM).

Layout, all little-endian:

    b"CHUNKDOC"      8-byte magic
    u32              length n of the JSON header in bytes
    n bytes          UTF-8 JSON: {"kind", "version", "header", "arrays"}
    array data       each array's raw bytes, in header order, every array
                     starting at an offset that is a multiple of 8

`kind` names the model ("pvdm", "aggregator", "svm") so one model's file is
never read as another's. `version` is the container version, VERSION; a file
with any other version is refused. `header` holds the model's scalars and
strings, and `arrays` lists each array as [name, dtype, shape].

Saves are deterministic: the bytes depend only on the model, so the header
holds no timestamp, path or host data. A save goes through `atomic_write`,
so a failed save leaves the previous checkpoint as it was. Every unreadable
file (truncated, bad magic, wrong kind, unsupported version, corrupt header)
raises IOError.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CHUNKDOC"
VERSION = 1
_ALIGN = 8
_PREFIX = len(MAGIC) + 4


def _aligned(pos: int) -> int:
    return -(-pos // _ALIGN) * _ALIGN


def atomic_write(path, data: str | bytes) -> None:
    """Write `data` (a str as UTF-8) to a temporary file beside `path`, then
    rename it over `path`, so a failed write leaves `path` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(path, kind: str, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `header` (JSON-serializable) and the named arrays to `path` atomically."""
    data = {}
    for name, a in arrays.items():
        a = np.asarray(a)
        data[name] = np.asarray(a, dtype=a.dtype.newbyteorder("<"), order="C")
    meta = json.dumps({
        "kind": kind, "version": VERSION, "header": header,
        "arrays": [[name, a.dtype.str, list(a.shape)] for name, a in data.items()],
    }, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC + struct.pack("<I", len(meta)) + meta]
    pos = _PREFIX + len(meta)
    for a in data.values():
        pad = _aligned(pos) - pos
        parts.append(b"\0" * pad + a.tobytes())
        pos += pad + a.nbytes
    atomic_write(path, b"".join(parts))


def load(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint of `kind`; returns (header, arrays). Arrays are writable."""
    with open(path, "rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)  # one writable buffer, filled in place
        del buf[f.readinto(buf):]
    if buf[:len(MAGIC)] != MAGIC:
        raise IOError(f"{path}: not a chunkdoc checkpoint (bad magic {bytes(buf[:8])!r})")
    if len(buf) < _PREFIX:
        raise IOError(f"{path}: truncated checkpoint")
    (n,) = struct.unpack_from("<I", buf, len(MAGIC))
    pos = _PREFIX + n
    if len(buf) < pos:
        raise IOError(f"{path}: truncated checkpoint")
    try:
        meta = json.loads(buf[_PREFIX:pos])
        version, got_kind, header, specs = (meta["version"], meta["kind"], meta["header"],
                                            meta["arrays"])
    except (ValueError, TypeError, KeyError) as exc:
        raise IOError(f"{path}: corrupt checkpoint header ({exc})") from None
    if version != VERSION:
        raise IOError(f"{path}: unsupported checkpoint version {version} (expected {VERSION})")
    if got_kind != kind:
        raise IOError(f"{path}: checkpoint holds a {got_kind!r} model, not {kind!r}")
    arrays = {}
    try:
        for name, dtype, shape in specs:
            dtype, count = np.dtype(dtype), math.prod(shape)
            if min(shape, default=0) < 0:
                raise ValueError(f"negative shape {shape}")
            pos = _aligned(pos)
            end = pos + count * dtype.itemsize
            if end > len(buf):
                raise IOError(f"{path}: truncated checkpoint")
            arrays[name] = np.frombuffer(buf, dtype, count, pos).reshape(shape)
            pos = end
    except (ValueError, TypeError) as exc:
        raise IOError(f"{path}: corrupt checkpoint header ({exc})") from None
    if pos != len(buf):
        raise IOError(f"{path}: {len(buf) - pos} unexpected trailing bytes")
    return header, arrays
