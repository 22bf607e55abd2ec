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
        wav = audio.load_wav(p)
        assert len(wav) == 16000
        assert not wav.samples.any()

    def test_full_scale_negative_maps_to_minus_one(self, tmp_path):
        p = tmp_path / "fs.wav"
        write_pcm16(p, np.full(500, -32768, dtype=np.int16))
        wav = audio.load_wav(p)
        assert wav.samples.min() == -1.0

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
        wav = audio.load_wav(p)
        np.testing.assert_array_equal(wav.samples, ref.astype(np.float64))

    def test_float_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "loud.wav"
        write_float32(p, np.array([0.0, 1.5], dtype=np.float32))
        with pytest.raises(audio.AudioFormatError, match=r"\[-1, 1\]"):
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
    def test_defaults_are_16khz_frame_geometry(self):
        cfg = audio.MfccConfig()
        assert (cfg.frame_length, cfg.frame_shift, cfg.n_mels, cfg.n_ceps) == (400, 160, 40, 13)

    def test_ceps_must_fit_in_mels(self):
        with pytest.raises(ValueError, match="n_ceps"):
            audio.MfccConfig(n_mels=10, n_ceps=12)

    def test_shift_must_fit_in_frame(self):
        with pytest.raises(ValueError, match="frame_shift"):
            audio.MfccConfig(frame_length=160, frame_shift=400)

    def test_fft_size_must_cover_frame(self):
        with pytest.raises(ValueError, match="fft_size"):
            audio.MfccConfig(fft_size=256)


def loop_mel_filterbank(config, fft_size):
    """Reference filterbank: one filter per loop step, then each adjacent pair."""
    n_bins = fft_size // 2 + 1
    nyquist = audio.REQUIRED_SAMPLE_RATE / 2.0
    edges = audio._mel_to_hz(np.linspace(0.0, audio._hz_to_mel(nyquist), config.n_mels + 2))
    bin_freqs = np.arange(n_bins) * (audio.REQUIRED_SAMPLE_RATE / fft_size)
    bank = np.zeros((config.n_mels, n_bins))
    for m in range(config.n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        peak = tri.max()
        if peak <= 0.0:
            raise ValueError(
                f"n_mels={config.n_mels} too large for fft_size={fft_size}: "
                f"filter {m} has empty support"
            )
        bank[m] = tri / peak
    for m in range(config.n_mels - 1):
        if not np.any((bank[m] > 0) & (bank[m + 1] > 0)):
            raise ValueError(
                f"n_mels={config.n_mels} too large for fft_size={fft_size}: "
                f"filters {m} and {m + 1} do not overlap"
            )
    return bank


def filterbank_outcome(fn, config, fft_size):
    try:
        return fn(config, fft_size).tobytes()
    except ValueError as exc:
        return str(exc)


class TestMelFilterbank:
    CFG = audio.MfccConfig()

    @pytest.mark.parametrize("fft_size", [512, 1024, 2048, 4096])
    @pytest.mark.parametrize("n_mels", [1, 2, 13, 26, 40, 64, 80, 100, 128, 200, 300])
    def test_matches_per_filter_loop(self, n_mels, fft_size):
        cfg = audio.MfccConfig(n_mels=n_mels, n_ceps=1, fft_size=fft_size)
        assert filterbank_outcome(audio.mel_filterbank, cfg, fft_size) == (
            filterbank_outcome(loop_mel_filterbank, cfg, fft_size)
        )

    @pytest.mark.parametrize(
        "n_mels, fft_size, message",
        [
            (80, 512, "filters 2 and 3 do not overlap"),
            (300, 2048, "filters 3 and 4 do not overlap"),
            (128, 512, "filter 0 has empty support"),
        ],
    )
    def test_errors_name_the_first_bad_filter(self, n_mels, fft_size, message):
        cfg = audio.MfccConfig(n_mels=n_mels, n_ceps=1, fft_size=fft_size)
        for fn in (audio.mel_filterbank, loop_mel_filterbank):
            with pytest.raises(ValueError, match=message):
                fn(cfg, fft_size)

    def test_every_row_peaks_at_exactly_one(self):
        bank = audio.mel_filterbank(self.CFG, 512)
        for row in bank:
            assert row.max() == 1.0
            assert (row == 1.0).sum() == 1

    def test_rows_are_non_negative_with_contiguous_support(self):
        bank = audio.mel_filterbank(self.CFG, 512)
        assert bank.min() >= 0.0
        for row in bank:
            support = np.flatnonzero(row)
            assert np.all(np.diff(support) == 1)

    def test_adjacent_filters_overlap(self):
        bank = audio.mel_filterbank(self.CFG, 512)
        for m in range(len(bank) - 1):
            assert np.any((bank[m] > 0) & (bank[m + 1] > 0))

    def test_centers_ordered_by_frequency(self):
        bank = audio.mel_filterbank(self.CFG, 512)
        centers = [int(np.argmax(row)) for row in bank]
        assert centers == sorted(centers)
        assert all(b > a for a, b in zip(centers, centers[1:]))

    def test_too_many_mels_rejected(self):
        cfg = audio.MfccConfig(n_mels=300, n_ceps=13)
        with pytest.raises(ValueError, match="too large"):
            audio.mel_filterbank(cfg, 512)


class TestExtractMfcc:
    CFG = audio.MfccConfig()

    def test_one_second_clip_yields_98_by_13(self):
        wave_ = audio.Waveform(np.zeros(16000))
        m = audio.extract_mfcc(wave_, self.CFG)
        assert m.frames.shape == (98, 13)

    def test_silence_has_analytic_coefficients(self):
        m = audio.extract_mfcc(audio.Waveform(np.zeros(16000)), self.CFG).frames
        c0 = np.sqrt(1.0 / 40.0) * 40.0 * np.log(self.CFG.log_floor)
        assert np.all(m == m[0])  # every frame identical
        assert m[0, 0] == pytest.approx(c0, abs=1e-9)
        np.testing.assert_allclose(m[:, 1:], 0.0, atol=1e-9)

    def test_amplitude_scaling_shifts_only_c0(self):
        rng = np.random.default_rng(0)
        sig = 0.1 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
        sig += 0.02 * rng.normal(size=16000)
        a = audio.extract_mfcc(audio.Waveform(sig), self.CFG).frames
        b = audio.extract_mfcc(audio.Waveform(2.0 * sig), self.CFG).frames
        shift = np.sqrt(1.0 / 40.0) * 40.0 * np.log(4.0)
        np.testing.assert_allclose(b[:, 0] - a[:, 0], shift, atol=1e-9)
        np.testing.assert_allclose(b[:, 1:], a[:, 1:], atol=1e-9)

    def test_prepending_one_shift_of_zeros_shifts_frames(self):
        rng = np.random.default_rng(1)
        sig = rng.uniform(-0.5, 0.5, size=8000)
        base = audio.extract_mfcc(audio.Waveform(sig), self.CFG).frames
        padded = audio.extract_mfcc(
            audio.Waveform(np.concatenate([np.zeros(160), sig])), self.CFG
        ).frames
        np.testing.assert_allclose(padded[1:], base[: padded.shape[0] - 1], atol=1e-9)

    def test_short_clip_rejected(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            audio.extract_mfcc(audio.Waveform(np.zeros(399)), self.CFG)

    def test_output_deterministic_and_finite(self):
        rng = np.random.default_rng(2)
        sig = rng.uniform(-1, 1, size=5000)
        a = audio.extract_mfcc(audio.Waveform(sig), self.CFG).frames
        b = audio.extract_mfcc(audio.Waveform(sig), self.CFG).frames
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
        cfg = self.CFG
        matrices = audio.mfcc_matrices(cfg)
        once = audio.extract_mfcc(audio.Waveform(sig), cfg, matrices).frames
        per_clip = audio.extract_mfcc(audio.Waveform(sig), cfg).frames
        ref = gathered_mfcc(sig, cfg)
        assert once.tobytes() == per_clip.tobytes() == ref.tobytes()


def gathered_mfcc(x, config):
    """Reference MFCC: frames cut with an index gather, matrices built per clip."""
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - config.pre_emphasis * x[:-1]
    t = (len(x) - config.frame_length) // config.frame_shift + 1
    idx = np.arange(config.frame_length)[None, :] + config.frame_shift * np.arange(t)[:, None]
    frames = y[idx] * np.hamming(config.frame_length)
    power = np.abs(np.fft.rfft(frames, n=config.fft_size, axis=1)) ** 2
    energies = power @ audio.mel_filterbank(config, config.fft_size).T
    logmel = np.log(np.maximum(energies, config.log_floor))
    return logmel @ audio.dct_matrix(config.n_mels).T[:, : config.n_ceps]


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
