"""Synthetic spoken-word corpus: 16 kHz mono 16-bit WAV clips from a seed.

Each word is a sequence of tone segments whose two frequencies are drawn
per word, so words differ in spectral pattern. Every clip jitters those
frequencies, the segment boundaries and the clip length, and adds white
noise, so that classification is not perfect.
"""

import json
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
SEGMENTS = 3  # tone segments per word


def _clip(rng, pattern, noise_std, min_len, max_len, jitter):
    n = int(rng.integers(min_len, max_len + 1))
    n_seg = pattern.shape[0]
    cuts = np.linspace(0, n, n_seg + 1)
    cuts[1:-1] += rng.uniform(-0.15, 0.15, n_seg - 1) * (n / n_seg)
    cuts = cuts.astype(int)
    t = np.arange(n) / SAMPLE_RATE
    x = np.zeros(n)
    for i in range(n_seg):
        a, b = cuts[i], cuts[i + 1]
        freqs = pattern[i] * (1.0 + rng.normal(0.0, jitter, 2))
        phases = rng.uniform(0.0, 2.0 * np.pi, 2)
        seg = t[a:b, None] * freqs[None, :] * 2.0 * np.pi + phases[None, :]
        x[a:b] = np.sin(seg).sum(axis=1) * rng.uniform(0.6, 1.0)
    ramp = min(400, n // 4)
    x[:ramp] *= np.linspace(0.0, 1.0, ramp)
    x[-ramp:] *= np.linspace(1.0, 0.0, ramp)
    x += rng.normal(0.0, noise_std, n)
    x *= 0.8 / np.max(np.abs(x))
    return np.round(x * 32767.0).astype("<i2")


def write_wav(path, pcm):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def write_corpus(root, seed, n_words, clips_per_split, noise_std, jitter, min_len, max_len):
    """Write ``n_words`` x 2 x ``clips_per_split`` clips and a manifest.

    Clip lengths are drawn from [``min_len``, ``max_len``] samples. Returns
    the manifest path; its records use paths relative to ``root``.
    """
    root = Path(root)
    rng = np.random.default_rng(seed)
    patterns = rng.uniform(200.0, 3500.0, size=(n_words, SEGMENTS, 2))
    records = []
    for w in range(n_words):
        word = f"word{w:03d}"
        (root / word).mkdir(parents=True, exist_ok=True)
        for split in ("train", "test"):
            for k in range(clips_per_split):
                rel = f"{word}/{split}{k:02d}.wav"
                write_wav(root / rel, _clip(rng, patterns[w], noise_std, min_len, max_len, jitter))
                records.append({"word": word, "path": rel, "split": split})
    manifest = root / "manifest.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return manifest
