"""Flipped and truncated bytes of every file format the package reads.

Each reader must either return or raise its module's typed error naming
the file; any other exception is a reader bug.
"""

import io
import json
import re
import struct
import wave
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescl import audio
from bayescl import encoder as E
from bayescl import head as H
from bayescl import training as T
from bayescl.tensorio import ContainerError, read_tensors, write_tensors

HEADER_BYTES = 64  # most flips land here, where the readers parse fields


def container_bytes(path):
    rng = np.random.default_rng(0)
    tensors = {"w": rng.normal(size=(3, 4)), "b": np.zeros(4), "rho": np.asarray(0.5)}
    write_tensors(path, {"kind": "meta-checkpoint", "encoder": {"embed_dim": 4}}, tensors)
    return path.read_bytes()


def checkpoint_bytes(path):
    cfg = E.EncoderConfig(embed_dim=3, hidden_dims=(4,), feature_dim=2, seed=0)
    params = dict(E.init_params(cfg), rho_alpha=np.asarray(0.25), rho_beta=np.asarray(-0.5))
    T.save_checkpoint(params, cfg, path)
    return path.read_bytes()


def head_bytes(path):
    head = H.HeadState(H.PriorParams(0.25, -0.75))
    head.add_class("a", np.random.default_rng(3).normal(size=(2, 3)))
    head.add_class(7, np.ones((1, 3)))
    H.save_head(head, path)
    return path.read_bytes()


def dump_bytes(path):
    audio.write_feature_dump(path, np.random.default_rng(1).normal(size=(20, 13)))
    return path.read_bytes()


def wav_bytes(path):
    pcm = (np.random.default_rng(2).uniform(-0.5, 0.5, 1600) * 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(pcm.tobytes())
    return buf.getvalue()


FORMATS = {
    "container": (container_bytes, read_tensors, ContainerError),
    "checkpoint": (checkpoint_bytes, T.load_checkpoint, ContainerError),
    "head snapshot": (head_bytes, H.load_head, ContainerError),
    "feature dump": (dump_bytes, audio.read_feature_dump, audio.AudioFormatError),
    "wav": (wav_bytes, audio.load_wav, audio.AudioFormatError),
}


@st.composite
def mutations(draw, size):
    """(flips, keep): byte positions to XOR with a mask, then a length cut."""
    pos = st.one_of(st.integers(0, min(size, HEADER_BYTES) - 1), st.integers(0, size - 1))
    flips = draw(st.lists(st.tuples(pos, st.integers(1, 255)), max_size=4))
    keep = draw(st.one_of(st.just(size), st.integers(0, size)))
    return flips, keep


def mutate(blob, flips, keep):
    out = bytearray(blob)
    for i, mask in flips:
        out[i] ^= mask
    return bytes(out[:keep])


@pytest.mark.parametrize("fmt", FORMATS)
def test_mutated_file_raises_only_the_typed_error_naming_it(fmt, tmp_path_factory):
    make, read, error = FORMATS[fmt]
    path = tmp_path_factory.mktemp("fuzz") / "sample.bin"
    blob = make(path)
    path.write_bytes(blob)
    read(path)  # the unmutated file reads

    @settings(max_examples=200, deadline=None)
    @given(mutations(len(blob)))
    def check(mutation):
        path.write_bytes(mutate(blob, *mutation))
        try:
            read(path)
        except error as exc:
            assert str(path) in str(exc)

    check()


def test_a_bool_is_never_a_count_in_a_head_snapshot(tmp_path):
    path = tmp_path / "head.bin"
    config = {
        "kind": "head-snapshot",
        "prior": {"rho_alpha": 0.0, "rho_beta": 0.0},
        "classes": [{"id": "a", "n": True}],
    }
    write_tensors(path, config, {"class.0.sum_z": np.ones(3), "class.0.sum_z2": np.ones(3)})
    with pytest.raises(ContainerError, match=f"^{re.escape(str(path))}: malformed head snapshot"):
        H.load_head(path)


def hand_built_container(path, tensors, config=None):
    """A container laid out byte by byte from (name, shape, values) triples
    taken as they are, with CRCs that match: what ``write_tensors``, which
    takes a dict of arrays and refuses a value that is not finite, cannot
    write (a bool in a shape, a name twice, a NaN)."""
    entries, payload = [], b""
    for name, shape, values in tensors:
        raw = np.asarray(values, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": shape, "offset": len(payload),
                        "nbytes": len(raw), "crc32": zlib.crc32(raw)})
        payload += raw
    header = json.dumps({"config": config or {}, "tensors": entries}).encode("ascii")
    path.write_bytes(b"BCLT" + struct.pack("<II", 1, len(header)) + header + payload)


def rewrite_tensor(path, name, value):
    """Rewrite the container at ``path`` by hand with every element of
    tensor ``name`` set to ``value``, the CRCs matching the new payload."""
    config, tensors = read_tensors(path)
    tensors[name] = np.full_like(tensors[name], value)
    hand_built_container(path, [(k, list(v.shape), v) for k, v in tensors.items()], config)


def test_a_bool_is_never_a_count_in_a_tensor_directory(tmp_path):
    path = tmp_path / "t.bin"
    hand_built_container(path, [("t", [True], 1.0)])
    with pytest.raises(ContainerError, match=f"^{re.escape(str(path))}: malformed tensor directory"):
        read_tensors(path)


def test_a_tensor_named_twice_in_a_directory_is_rejected(tmp_path):
    # the last copy would silently win
    path = tmp_path / "t.bin"
    hand_built_container(path, [("t", [1], 1.0), ("u", [1], 1.0), ("t", [1], 1.0)])
    with pytest.raises(
        ContainerError, match=rf"^{re.escape(str(path))}: tensor 't' named twice in the directory$"
    ):
        read_tensors(path)
