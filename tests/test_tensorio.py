import json
import re
import struct
import zlib

import numpy as np
import pytest

from bayescl import encoder as E
from bayescl import head as H
from bayescl import training as T
from bayescl.tensorio import MAGIC, VERSION, ContainerError, read_tensors, write_tensors


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


def save_checkpoint(path):
    cfg = E.EncoderConfig(embed_dim=4, hidden_dims=(5,), feature_dim=3, seed=2)
    params = dict(E.init_params(cfg), rho_alpha=np.asarray(0.25), rho_beta=np.asarray(-0.5))
    T.save_checkpoint(params, cfg, path)


def save_head(path):
    head = H.HeadState(H.PriorParams(0.25, -0.75))
    head.add_class("alpha", np.ones((2, 3)))
    head.add_class("beta", np.zeros((3, 3)))
    H.save_head(head, path)


@pytest.mark.parametrize(
    "save, load, old, new",
    [
        (save_checkpoint, T.load_checkpoint, b'"stats-mlp"', b'"stats-mlq"'),
        (save_checkpoint, T.load_checkpoint, b'"embed_dim"', b'"embed_dia"'),
        (save_checkpoint, T.load_checkpoint, b'"encoder"', b'"encodez"'),
        (save_head, H.load_head, b'"rho_alpha"', b'"rho_alphz"'),
        (save_head, H.load_head, b'"classes"', b'"classez"'),
        (save_head, H.load_head, b'"n":2', b'"n":0'),
    ],
    ids=["checkpoint-architecture", "checkpoint-embed_dim-key", "checkpoint-encoder-key",
         "head-rho_alpha-key", "head-classes-key", "head-class-without-observations"],
)
def test_header_field_edit_raises_container_error_naming_path(tmp_path, save, load, old, new):
    # the tensor CRCs do not cover the JSON header, so these edits reach the parsers
    path = tmp_path / "file.bclt"
    save(path)
    load(path)
    blob = path.read_bytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(ContainerError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize(
    "save, load, tensor",
    [
        (save_checkpoint, T.load_checkpoint, "mlp.0.w"),
        (save_checkpoint, T.load_checkpoint, "rho_alpha"),
        (save_head, H.load_head, "class.1.sum_z2"),
    ],
    ids=["checkpoint-weight", "checkpoint-prior", "head-statistics"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_raises_container_error_naming_path_and_tensor(
        tmp_path, save, load, tensor, bad):
    # rewritten through write_tensors, so the CRCs hold and only the value is wrong
    path = tmp_path / "file.bclt"
    save(path)
    config, tensors = read_tensors(path)
    tensors[tensor] = np.full_like(tensors[tensor], bad)
    write_tensors(path, config, tensors)
    message = f"{path}: non-finite value in tensor {tensor!r}"
    with pytest.raises(ContainerError, match=f"^{re.escape(message)}$"):
        load(path)
