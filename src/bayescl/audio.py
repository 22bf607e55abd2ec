"""16 kHz mono audio ingestion and MFCC feature extraction.

Pipeline: pre-emphasis (per clip, memory reset) -> framing -> Hamming
window -> magnitude-squared FFT -> mel filterbank -> log with floor ->
orthonormal DCT-II -> first ``n_ceps`` coefficients.

The WAV reader parses RIFF chunks directly so it can accept both 16-bit
integer PCM and 32-bit IEEE float, and reject everything else with a
message naming the offending property.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REQUIRED_SAMPLE_RATE = 16000

__all__ = [
    "AudioFormatError",
    "Waveform",
    "MfccConfig",
    "MfccMatrix",
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


@dataclass
class Waveform:
    samples: np.ndarray  # floats in [-1, 1]
    sample_rate: int = REQUIRED_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate != REQUIRED_SAMPLE_RATE:
            raise AudioFormatError(
                f"unsupported sample rate: {self.sample_rate} Hz "
                f"(expected {REQUIRED_SAMPLE_RATE})"
            )

    def __len__(self):
        return len(self.samples)


@dataclass
class MfccConfig:
    frame_length: int = 400  # 25 ms at 16 kHz
    frame_shift: int = 160  # 10 ms
    n_mels: int = 40
    n_ceps: int = 13
    pre_emphasis: float = 0.97
    log_floor: float = 1e-10
    fft_size: int = 512

    def __post_init__(self):
        if self.n_ceps > self.n_mels:
            raise ValueError("n_ceps must not exceed n_mels")
        if self.frame_shift > self.frame_length:
            raise ValueError("frame_shift must not exceed frame_length")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")
        if self.fft_size < self.frame_length or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two >= frame_length")

    def to_dict(self):
        return {
            "frame_length": self.frame_length,
            "frame_shift": self.frame_shift,
            "n_mels": self.n_mels,
            "n_ceps": self.n_ceps,
            "pre_emphasis": self.pre_emphasis,
            "log_floor": self.log_floor,
            "fft_size": self.fft_size,
        }


@dataclass
class MfccMatrix:
    frames: np.ndarray  # (T, n_ceps)

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def n_ceps(self):
        return self.frames.shape[1]


def load_wav(path):
    """Read a RIFF/WAVE file: 16 kHz, mono, 16-bit PCM or 32-bit float.

    Integer samples are scaled by 1/32768, so the result lies in [-1, 1).
    Float samples must already be within [-1, 1].
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
        if samples.size and np.max(np.abs(samples)) > 1.0:
            raise AudioFormatError(f"{path}: float samples outside [-1, 1]")
    else:
        raise AudioFormatError(f"{path}: unsupported codec (format tag {codec})")
    return Waveform(samples, rate)


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


def mel_filterbank(config, fft_size):
    """Triangular mel filters sampled at FFT bin frequencies.

    Filters span 0 Hz to Nyquist with mel-spaced centers. Each row is
    scaled to a peak of exactly 1 at the bin nearest its center; rows
    have contiguous support and adjacent rows overlap. Raises when the
    FFT grid is too coarse to honor those properties.
    """
    if fft_size < config.frame_length or fft_size & (fft_size - 1):
        raise ValueError("fft_size must be a power of two >= frame_length")
    n_bins = fft_size // 2 + 1
    nyquist = REQUIRED_SAMPLE_RATE / 2.0
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(nyquist), config.n_mels + 2))
    bin_freqs = np.arange(n_bins) * (REQUIRED_SAMPLE_RATE / fft_size)
    # one row per filter: lo, center and hi are (n_mels, 1) columns
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs - lo) / (center - lo)
    falling = (hi - bin_freqs) / (hi - center)
    tri = np.maximum(0.0, np.minimum(rising, falling))
    peak = tri.max(axis=1)
    empty = np.flatnonzero(peak <= 0.0)
    if empty.size:
        raise ValueError(
            f"n_mels={config.n_mels} too large for fft_size={fft_size}: "
            f"filter {empty[0]} has empty support"
        )
    bank = tri / peak[:, None]
    apart = np.flatnonzero(~np.any((bank[:-1] > 0) & (bank[1:] > 0), axis=1))
    if apart.size:
        m = apart[0]
        raise ValueError(
            f"n_mels={config.n_mels} too large for fft_size={fft_size}: "
            f"filters {m} and {m + 1} do not overlap"
        )
    return bank


def dct_matrix(n):
    """Orthonormal DCT-II matrix (n x n); D @ D.T is the identity."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2.0 * n))
    d[0] = np.sqrt(1.0 / n)
    return d


def mfcc_matrices(config):
    """The (Hamming window, mel filterbank, DCT) that ``extract_mfcc`` applies.

    They depend only on ``config``: build them once and pass them to every
    ``extract_mfcc`` call that uses the same config.
    """
    return (
        np.hamming(config.frame_length),
        mel_filterbank(config, config.fft_size),
        dct_matrix(config.n_mels).T[:, : config.n_ceps],
    )


def extract_mfcc(wave, config, matrices=None):
    """MFCC matrix of shape (T, n_ceps) with T = (len-frame)/shift + 1.

    ``matrices`` is ``mfcc_matrices(config)``; it is built here when omitted.
    """
    x = wave.samples
    if len(x) < config.frame_length:
        raise ValueError(
            f"clip has {len(x)} samples, shorter than one frame ({config.frame_length})"
        )
    window, bank, dct = mfcc_matrices(config) if matrices is None else matrices
    # pre-emphasis with per-clip memory reset: y[0] = x[0]
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - config.pre_emphasis * x[:-1]

    # frame t is y[t*shift : t*shift + frame_length], a view, not a copy
    starts = np.lib.stride_tricks.sliding_window_view(y, config.frame_length)
    frames = starts[:: config.frame_shift] * window

    power = np.abs(np.fft.rfft(frames, n=config.fft_size, axis=1)) ** 2
    energies = power @ bank.T
    logmel = np.log(np.maximum(energies, config.log_floor))
    return MfccMatrix(logmel @ dct)


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
    return np.frombuffer(blob[16:], dtype="<f8").astype(np.float64).reshape(t, n_ceps)
