import json
import re
import struct
import zlib

import numpy as np
import pytest

from bayescl.tensorio import MAGIC, VERSION, ContainerError, read_tensors


def write_raw(path, header, payload=b""):
    raw = json.dumps(header).encode("ascii")
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(raw)) + raw + payload)


def directory_entry(name, shape, payload):
    return {"name": name, "shape": shape, "offset": 0, "nbytes": len(payload),
            "crc32": zlib.crc32(payload)}


def test_shape_disagreeing_with_nbytes_rejected(tmp_path):
    path = tmp_path / "shape.bclt"
    payload = np.zeros(6).tobytes()
    write_raw(path, {"config": {}, "tensors": [directory_entry("a", [4, 2], payload)]}, payload)
    with pytest.raises(ContainerError, match=re.escape(str(path)) + ".*shape"):
        read_tensors(path)


def test_missing_tensor_directory_rejected(tmp_path):
    path = tmp_path / "nodir.bclt"
    write_raw(path, {"config": {}})
    with pytest.raises(ContainerError, match=re.escape(str(path)) + ".*directory"):
        read_tensors(path)


def test_header_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "list.bclt"
    write_raw(path, [1, 2, 3])
    with pytest.raises(ContainerError, match=re.escape(str(path)) + ".*directory"):
        read_tensors(path)


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "a", "shape": [1]},
        {"name": "a", "shape": "1", "offset": 0, "nbytes": 8, "crc32": 0},
        {"name": "a", "shape": [1], "offset": -8, "nbytes": 8, "crc32": 0},
        {"name": ["a"], "shape": [1], "offset": 0, "nbytes": 8, "crc32": 0},
        7,
    ],
)
def test_malformed_directory_entry_rejected(tmp_path, entry):
    path = tmp_path / "entry.bclt"
    write_raw(path, {"config": {}, "tensors": [entry]}, np.zeros(1).tobytes())
    with pytest.raises(ContainerError, match=re.escape(str(path)) + ".*malformed"):
        read_tensors(path)
