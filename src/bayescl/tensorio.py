"""Versioned binary container for named float64 tensors plus a JSON config.

Layout: magic ``BCLT``, u32 version, u32 header length, header JSON
(ascii, sorted keys), then the concatenated little-endian float64
payloads. The header carries a tensor directory with name, shape, byte
offset, and a CRC-32 per tensor, so truncation and corruption are both
detectable on load.
"""

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"BCLT"
VERSION = 1


class ContainerError(ValueError):
    """Malformed, truncated, or corrupted tensor container."""


def write_tensors(path, config, tensors):
    """Write ``tensors`` (dict name -> ndarray) with a ``config`` document.

    Tensor order follows dict insertion order; identical inputs produce
    byte-identical files.
    """
    entries = []
    payload = bytearray()
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)  # note: tobytes() emits C order
        raw = arr.astype("<f8", copy=False).tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": len(raw),
                "crc32": zlib.crc32(raw),
            }
        )
        payload.extend(raw)
    header = json.dumps(
        {"config": config, "tensors": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header)))
        fh.write(header)
        fh.write(payload)


def read_tensors(path):
    """Read a container, verifying version and per-tensor checksums.

    Returns (config, dict name -> ndarray). A tensor named twice in the
    directory, or holding a NaN or an infinity, raises ``ContainerError``.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise ContainerError(f"{path}: not a tensor container (bad magic)")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != VERSION:
        raise ContainerError(
            f"{path}: unsupported container version {version} (expected {VERSION})"
        )
    if len(blob) < 12 + header_len:
        raise ContainerError(f"{path}: truncated container header")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: corrupt container header: {exc}") from None
    if not (isinstance(header, dict) and "config" in header
            and isinstance(header.get("tensors"), list)):
        raise ContainerError(f"{path}: container header lacks a config or tensor directory")
    payload = blob[12 + header_len :]
    tensors = {}
    for entry in header["tensors"]:
        name, shape, start, nbytes, crc = _directory_entry(path, entry)
        if name in tensors:
            raise ContainerError(f"{path}: tensor {name!r} named twice in the directory")
        if start + nbytes > len(payload):
            raise ContainerError(f"{path}: truncated payload for tensor {name!r}")
        raw = payload[start : start + nbytes]
        if zlib.crc32(raw) != crc:
            raise ContainerError(f"{path}: checksum mismatch for tensor {name!r}")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if not np.isfinite(arr).all():
            raise ContainerError(f"{path}: non-finite value in tensor {name!r}")
        tensors[name] = arr.reshape(shape)
    return header["config"], tensors


def _directory_entry(path, entry):
    """(name, shape, offset, nbytes, crc32) of one directory entry, checked."""
    keys = ("name", "shape", "offset", "nbytes", "crc32")
    if not isinstance(entry, dict) or any(k not in entry for k in keys):
        raise ContainerError(f"{path}: malformed tensor directory entry {entry!r}")
    name, shape, start, nbytes, crc = (entry[k] for k in keys)
    counts = [start, nbytes, crc, *shape] if isinstance(shape, list) else [None]
    if not isinstance(name, str) or not all(type(v) is int and v >= 0 for v in counts):  # no bool
        raise ContainerError(f"{path}: malformed tensor directory entry {entry!r}")
    if 8 * math.prod(shape) != nbytes:
        raise ContainerError(
            f"{path}: tensor {name!r} has shape {shape} but {nbytes} payload bytes"
        )
    return name, shape, start, nbytes, crc
