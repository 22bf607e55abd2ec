"""16 kHz mono audio ingestion and a fixed MFCC front end.

Pipeline: pre-emphasis (per clip, memory reset) -> 25 ms frames every
10 ms -> Hamming window -> magnitude-squared FFT -> mel filterbank -> log
with floor -> orthonormal DCT-II -> first 13 coefficients. The module
constants below are the front end's only settings; no dump, checkpoint
or command records them.

The WAV reader parses RIFF chunks directly so it can accept both 16-bit
integer PCM and 32-bit IEEE float, and reject everything else with a
message naming the offending property.
"""

import struct
from pathlib import Path

import numpy as np

REQUIRED_SAMPLE_RATE = 16000
FRAME_LENGTH = 400  # 25 ms at 16 kHz
FRAME_SHIFT = 160  # 10 ms
N_MELS = 40
N_CEPS = 13
PRE_EMPHASIS = 0.97
LOG_FLOOR = 1e-10
FFT_SIZE = 512

__all__ = [
    "AudioFormatError",
    "load_wav",
    "mel_filterbank",
    "mfcc_matrices",
    "extract_mfcc",
    "dct_matrix",
    "write_feature_dump",
    "read_feature_dump",
]


class AudioFormatError(ValueError):
    """Unsupported or malformed audio input."""


def load_wav(path):
    """Read a RIFF/WAVE file: 16 kHz, mono, 16-bit PCM or 32-bit float.

    Returns the samples as a float64 array. Integer samples are scaled by
    1/32768, so they lie in [-1, 1); float samples must already be within
    [-1, 1], so NaN and infinity are rejected.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack("<I", blob[pos + 4 : pos + 8])
        body = blob[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise AudioFormatError(f"{path}: truncated {cid.decode(errors='replace')!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise AudioFormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word aligned
    if fmt is None or data is None:
        raise AudioFormatError(f"{path}: missing fmt or data chunk")
    codec, channels, rate, _byte_rate, _block, bits = fmt
    if channels != 1:
        raise AudioFormatError(f"{path}: expected mono, got {channels} channels")
    if rate != REQUIRED_SAMPLE_RATE:
        raise AudioFormatError(
            f"{path}: unsupported sample rate: {rate} Hz (expected {REQUIRED_SAMPLE_RATE})"
        )
    if codec == 1:  # integer PCM
        if bits != 16:
            raise AudioFormatError(f"{path}: unsupported PCM bit depth {bits} (expected 16)")
        samples = _samples(path, data, "<i2").astype(np.float64) / 32768.0
    elif codec == 3:  # IEEE float
        if bits != 32:
            raise AudioFormatError(f"{path}: unsupported float bit depth {bits} (expected 32)")
        samples = _samples(path, data, "<f4").astype(np.float64)
        if not (np.abs(samples) <= 1.0).all():  # false for NaN too
            raise AudioFormatError(f"{path}: float samples must be finite and within [-1, 1]")
    else:
        raise AudioFormatError(f"{path}: unsupported codec (format tag {codec})")
    return samples


def _samples(path, data, dtype):
    width = np.dtype(dtype).itemsize
    if len(data) % width:
        raise AudioFormatError(
            f"{path}: data chunk of {len(data)} bytes is not a whole number "
            f"of {width}-byte samples"
        )
    return np.frombuffer(data, dtype=dtype)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank():
    """Triangular mel filters at the FFT bin frequencies, (N_MELS, FFT_SIZE // 2 + 1).

    Filters span 0 Hz to Nyquist with mel-spaced centers. Each row peaks at
    exactly 1 at the bin nearest its center, has contiguous support and
    overlaps its neighbours.
    """
    nyquist = REQUIRED_SAMPLE_RATE / 2.0
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(nyquist), N_MELS + 2))
    bin_freqs = np.arange(FFT_SIZE // 2 + 1) * (REQUIRED_SAMPLE_RATE / FFT_SIZE)
    # one row per filter: lo, center and hi are (N_MELS, 1) columns
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs - lo) / (center - lo)
    falling = (hi - bin_freqs) / (hi - center)
    tri = np.maximum(0.0, np.minimum(rising, falling))
    return tri / tri.max(axis=1)[:, None]


def dct_matrix(n):
    """Orthonormal DCT-II matrix (n x n); D @ D.T is the identity."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2.0 * n))
    d[0] = np.sqrt(1.0 / n)
    return d


def mfcc_matrices():
    """The (Hamming window, mel filterbank, DCT) that ``extract_mfcc`` applies.

    Build them once and pass them to every ``extract_mfcc`` call.
    """
    return np.hamming(FRAME_LENGTH), mel_filterbank(), dct_matrix(N_MELS).T[:, :N_CEPS]


def extract_mfcc(samples, matrices):
    """The (T, N_CEPS) MFCC array of ``load_wav``'s samples, T = (len - 400) // 160 + 1.

    ``matrices`` is ``mfcc_matrices()``. A clip shorter than one frame
    raises ``AudioFormatError``.
    """
    if len(samples) < FRAME_LENGTH:
        raise AudioFormatError(
            f"clip has {len(samples)} samples, shorter than one frame ({FRAME_LENGTH})"
        )
    window, bank, dct = matrices
    # pre-emphasis with per-clip memory reset: y[0] = x[0]
    y = np.empty_like(samples)
    y[0] = samples[0]
    y[1:] = samples[1:] - PRE_EMPHASIS * samples[:-1]

    # frame t is y[t*shift : t*shift + frame_length], a view, not a copy
    starts = np.lib.stride_tricks.sliding_window_view(y, FRAME_LENGTH)
    frames = starts[::FRAME_SHIFT] * window

    power = np.abs(np.fft.rfft(frames, n=FFT_SIZE, axis=1)) ** 2
    energies = power @ bank.T
    logmel = np.log(np.maximum(energies, LOG_FLOOR))
    return logmel @ dct


# --- feature dump files -----------------------------------------------------
# little-endian header: magic "MFCC", u32 version=1, u32 T, u32 n_ceps,
# then T*n_ceps float64 values.

FEATURE_MAGIC = b"MFCC"
FEATURE_VERSION = 1


def write_feature_dump(path, frames):
    frames = np.ascontiguousarray(np.asarray(frames, dtype=np.float64))
    if frames.ndim != 2:
        raise ValueError("feature dump expects a (T, n_ceps) matrix")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, frames.shape[0], frames.shape[1]))
        fh.write(frames.astype("<f8", copy=False).tobytes())


def read_feature_dump(path):
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != FEATURE_MAGIC:
        raise AudioFormatError(f"{path}: not a feature dump (bad magic)")
    version, t, n_ceps = struct.unpack("<III", blob[4:16])
    if version != FEATURE_VERSION:
        raise AudioFormatError(f"{path}: unsupported feature dump version {version}")
    if t == 0 or n_ceps == 0:
        raise AudioFormatError(f"{path}: empty feature dump ({t} frames x {n_ceps} coefficients)")
    expected = 16 + 8 * t * n_ceps
    if len(blob) < expected:
        raise AudioFormatError(f"{path}: truncated feature dump")
    if len(blob) > expected:
        raise AudioFormatError(f"{path}: {len(blob) - expected} trailing bytes after the frames")
    frames = np.frombuffer(blob[16:], dtype="<f8").astype(np.float64).reshape(t, n_ceps)
    if not np.isfinite(frames).all():
        raise AudioFormatError(f"{path}: non-finite value in the frames")
    return frames
