import re
import struct
import wave

import numpy as np
import pytest

from bayescl import audio


def write_pcm16(path, samples, rate=16000, channels=1):
    data = np.asarray(samples)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(data.astype("<i2").tobytes())


def write_float32(path, samples, rate=16000):
    data = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, rate, rate * 4, 4, 32)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def write_codec(path, codec_tag, rate=16000, bits=16, channels=1, data=b"\x00" * 64):
    fmt = struct.pack("<HHIIHH", codec_tag, channels, rate, rate * 2, 2, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


class TestLoadWav:
    def test_one_second_of_silence(self, tmp_path):
        p = tmp_path / "silence.wav"
        write_pcm16(p, np.zeros(16000, dtype=np.int16))
        samples = audio.load_wav(p)
        assert samples.dtype == np.float64 and samples.shape == (16000,)
        assert not samples.any()

    def test_full_scale_negative_maps_to_minus_one(self, tmp_path):
        p = tmp_path / "fs.wav"
        write_pcm16(p, np.full(500, -32768, dtype=np.int16))
        assert audio.load_wav(p).min() == -1.0

    def test_wrong_sample_rate_rejected(self, tmp_path):
        p = tmp_path / "8k.wav"
        write_pcm16(p, np.zeros(800, dtype=np.int16), rate=8000)
        with pytest.raises(audio.AudioFormatError, match="sample rate"):
            audio.load_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        write_pcm16(p, np.zeros(1600, dtype=np.int16), channels=2)
        with pytest.raises(audio.AudioFormatError, match="mono"):
            audio.load_wav(p)

    def test_odd_length_pcm16_data_rejected(self, tmp_path):
        p = tmp_path / "odd.wav"
        write_codec(p, codec_tag=1, data=b"\x00" * 63)
        with pytest.raises(audio.AudioFormatError, match=re.escape(str(p)) + ".*whole number"):
            audio.load_wav(p)

    def test_unknown_codec_rejected(self, tmp_path):
        p = tmp_path / "ulaw.wav"
        write_codec(p, codec_tag=7)
        with pytest.raises(audio.AudioFormatError, match="codec"):
            audio.load_wav(p)

    def test_float32_round_trip(self, tmp_path):
        p = tmp_path / "f32.wav"
        ref = np.sin(np.linspace(0, 20, 1000)).astype(np.float32)
        write_float32(p, ref)
        samples = audio.load_wav(p)
        assert samples.dtype == np.float64
        np.testing.assert_array_equal(samples, ref.astype(np.float64))

    def test_float_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "loud.wav"
        write_float32(p, np.array([0.0, 1.5], dtype=np.float32))
        with pytest.raises(audio.AudioFormatError, match=r"\[-1, 1\]"):
            audio.load_wav(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample_rejected(self, tmp_path, bad):
        # one bad sample in a 1,000-sample clip
        p = tmp_path / "bad.wav"
        samples = np.zeros(1000, dtype=np.float32)
        samples[500] = bad
        write_float32(p, samples)
        message = re.escape(f"{p}: float samples must be finite")
        with pytest.raises(audio.AudioFormatError, match=message):
            audio.load_wav(p)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "trunc.wav"
        write_pcm16(p, np.zeros(1000, dtype=np.int16))
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 700])
        with pytest.raises(audio.AudioFormatError, match="truncated"):
            audio.load_wav(p)

    def test_non_wav_rejected(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"definitely not audio")
        with pytest.raises(audio.AudioFormatError, match="RIFF"):
            audio.load_wav(p)


class TestMfccConfig:
    """The front end's fixed constants."""

    def test_defaults_are_16khz_frame_geometry(self):
        geometry = (audio.FRAME_LENGTH, audio.FRAME_SHIFT, audio.N_MELS, audio.N_CEPS)
        assert geometry == (400, 160, 40, 13)
        assert audio.FFT_SIZE == 512 and audio.REQUIRED_SAMPLE_RATE == 16000


def loop_mel_filterbank(n_mels, fft_size):
    """Reference filterbank: one filter per loop step."""
    n_bins = fft_size // 2 + 1
    nyquist = audio.REQUIRED_SAMPLE_RATE / 2.0
    edges = audio._mel_to_hz(np.linspace(0.0, audio._hz_to_mel(nyquist), n_mels + 2))
    bin_freqs = np.arange(n_bins) * (audio.REQUIRED_SAMPLE_RATE / fft_size)
    bank = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        bank[m] = tri / tri.max()
    return bank


class TestMelFilterbank:
    @pytest.mark.parametrize("fft_size", [512, 1024, 2048, 4096])
    @pytest.mark.parametrize("n_mels", [1, 2, 13, 26, 40, 64, 80, 100, 128, 200, 300])
    def test_matches_per_filter_loop(self, n_mels, fft_size, monkeypatch):
        # the program builds only the 40 x 512 bank; the other sizes check the
        # broadcast against the loop, also on grids too coarse for the filters,
        # where both give the same empty (NaN) or non-overlapping rows
        monkeypatch.setattr(audio, "N_MELS", n_mels)
        monkeypatch.setattr(audio, "FFT_SIZE", fft_size)
        with np.errstate(invalid="ignore"):
            bank = audio.mel_filterbank()
            ref = loop_mel_filterbank(n_mels, fft_size)
        np.testing.assert_array_equal(bank, ref)

    def test_every_row_peaks_at_exactly_one(self):
        bank = audio.mel_filterbank()
        assert bank.shape == (40, 257)
        for row in bank:
            assert row.max() == 1.0
            assert (row == 1.0).sum() == 1

    def test_rows_are_non_negative_with_contiguous_support(self):
        bank = audio.mel_filterbank()
        assert bank.min() >= 0.0
        for row in bank:
            support = np.flatnonzero(row)
            assert np.all(np.diff(support) == 1)

    def test_adjacent_filters_overlap(self):
        bank = audio.mel_filterbank()
        for m in range(len(bank) - 1):
            assert np.any((bank[m] > 0) & (bank[m + 1] > 0))

    def test_centers_ordered_by_frequency(self):
        bank = audio.mel_filterbank()
        centers = [int(np.argmax(row)) for row in bank]
        assert centers == sorted(centers)
        assert all(b > a for a, b in zip(centers, centers[1:]))


class TestExtractMfcc:
    MATRICES = audio.mfcc_matrices()

    def mfcc(self, samples):
        return audio.extract_mfcc(samples, self.MATRICES)

    def test_one_second_clip_yields_98_by_13(self):
        m = self.mfcc(np.zeros(16000))
        assert m.shape == (98, 13) and m.dtype == np.float64

    def test_silence_has_analytic_coefficients(self):
        m = self.mfcc(np.zeros(16000))
        c0 = np.sqrt(1.0 / 40.0) * 40.0 * np.log(audio.LOG_FLOOR)
        assert np.all(m == m[0])  # every frame identical
        assert m[0, 0] == pytest.approx(c0, abs=1e-9)
        np.testing.assert_allclose(m[:, 1:], 0.0, atol=1e-9)

    def test_amplitude_scaling_shifts_only_c0(self):
        rng = np.random.default_rng(0)
        sig = 0.1 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
        sig += 0.02 * rng.normal(size=16000)
        a = self.mfcc(sig)
        b = self.mfcc(2.0 * sig)
        shift = np.sqrt(1.0 / 40.0) * 40.0 * np.log(4.0)
        np.testing.assert_allclose(b[:, 0] - a[:, 0], shift, atol=1e-9)
        np.testing.assert_allclose(b[:, 1:], a[:, 1:], atol=1e-9)

    def test_prepending_one_shift_of_zeros_shifts_frames(self):
        rng = np.random.default_rng(1)
        sig = rng.uniform(-0.5, 0.5, size=8000)
        base = self.mfcc(sig)
        padded = self.mfcc(np.concatenate([np.zeros(160), sig]))
        np.testing.assert_allclose(padded[1:], base[: padded.shape[0] - 1], atol=1e-9)

    def test_short_clip_rejected(self):
        with pytest.raises(audio.AudioFormatError, match="399 samples, shorter than one frame"):
            self.mfcc(np.zeros(399))

    def test_output_deterministic_and_finite(self):
        rng = np.random.default_rng(2)
        sig = rng.uniform(-1, 1, size=5000)
        a = self.mfcc(sig)
        b = self.mfcc(sig)
        assert a.tobytes() == b.tobytes()
        assert np.all(np.isfinite(a))

    def test_dct_orthonormal_reconstruction(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=40)
        d = audio.dct_matrix(40)
        np.testing.assert_allclose(d.T @ (d @ v), v, atol=1e-9)

    @pytest.mark.parametrize("n", [400, 401, 559, 560, 561, 8000, 16000])
    def test_matches_per_clip_matrices_and_gathered_frames(self, n):
        sig = np.random.default_rng(n).uniform(-1, 1, size=n)
        shared = self.mfcc(sig)
        per_clip = audio.extract_mfcc(sig, audio.mfcc_matrices())
        ref = gathered_mfcc(sig)
        assert shared.tobytes() == per_clip.tobytes() == ref.tobytes()


def gathered_mfcc(x):
    """Reference MFCC: frames cut with an index gather, matrices built per clip."""
    length, shift = audio.FRAME_LENGTH, audio.FRAME_SHIFT
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - audio.PRE_EMPHASIS * x[:-1]
    t = (len(x) - length) // shift + 1
    idx = np.arange(length)[None, :] + shift * np.arange(t)[:, None]
    frames = y[idx] * np.hamming(length)
    power = np.abs(np.fft.rfft(frames, n=audio.FFT_SIZE, axis=1)) ** 2
    energies = power @ audio.mel_filterbank().T
    logmel = np.log(np.maximum(energies, audio.LOG_FLOOR))
    return logmel @ audio.dct_matrix(audio.N_MELS).T[:, : audio.N_CEPS]


class TestFeatureDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(17, 13))
        p = tmp_path / "x.mfcc"
        audio.write_feature_dump(p, frames)
        back = audio.read_feature_dump(p)
        assert back.tobytes() == frames.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.mfcc"
        p.write_bytes(b"WHAT" + b"\x00" * 32)
        with pytest.raises(audio.AudioFormatError, match="magic"):
            audio.read_feature_dump(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_value_rejected(self, tmp_path, bad):
        frames = np.ones((4, 3))
        frames[2, 1] = bad
        p = tmp_path / "nan.mfcc"
        # by hand: write_feature_dump refuses the value
        p.write_bytes(b"MFCC" + struct.pack("<III", 1, 4, 3) + frames.astype("<f8").tobytes())
        with pytest.raises(audio.AudioFormatError, match=re.escape(f"{p}: non-finite value")):
            audio.read_feature_dump(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writer_refuses_a_non_finite_value_before_opening_the_file(self, tmp_path, bad):
        # the reader's own message; no new file, and an old one keeps its bytes
        frames = np.ones((4, 3))
        frames[3, 2] = bad
        new, old = tmp_path / "new.mfcc", tmp_path / "old.mfcc"
        message = f"{new}: non-finite value in the frames"
        with pytest.raises(audio.AudioFormatError, match=f"^{re.escape(message)}$"):
            audio.write_feature_dump(new, frames)
        assert not new.exists()
        audio.write_feature_dump(old, np.ones((4, 3)))
        blob = old.read_bytes()
        with pytest.raises(audio.AudioFormatError, match="non-finite value in the frames"):
            audio.write_feature_dump(old, frames)
        assert old.read_bytes() == blob

    def test_truncation_rejected(self, tmp_path):
        p = tmp_path / "t.mfcc"
        audio.write_feature_dump(p, np.ones((4, 3)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(audio.AudioFormatError, match="truncated"):
            audio.read_feature_dump(p)

    def test_header_narrower_than_payload_rejected(self, tmp_path):
        # a 20 x 13 payload under a header that says 12 coefficients
        p = tmp_path / "w.mfcc"
        audio.write_feature_dump(p, np.ones((20, 13)))
        blob = bytearray(p.read_bytes())
        blob[12:16] = struct.pack("<I", 12)
        p.write_bytes(bytes(blob))
        with pytest.raises(audio.AudioFormatError, match=re.escape(f"{p}: 160 trailing bytes")):
            audio.read_feature_dump(p)

    @pytest.mark.parametrize("field", [8, 12], ids=["frames", "coefficients"])
    def test_zero_count_header_rejected(self, tmp_path, field):
        p = tmp_path / "z.mfcc"
        audio.write_feature_dump(p, np.ones((20, 13)))
        blob = bytearray(p.read_bytes())
        blob[field : field + 4] = struct.pack("<I", 0)
        p.write_bytes(bytes(blob))
        with pytest.raises(audio.AudioFormatError, match=re.escape(f"{p}: empty feature dump")):
            audio.read_feature_dump(p)

    def test_version_checked(self, tmp_path):
        p = tmp_path / "v.mfcc"
        audio.write_feature_dump(p, np.ones((2, 2)))
        blob = bytearray(p.read_bytes())
        blob[4] = 9
        p.write_bytes(bytes(blob))
        with pytest.raises(audio.AudioFormatError, match="version"):
            audio.read_feature_dump(p)
