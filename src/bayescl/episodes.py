"""Sample registry, class splits, episode sampling, and synthetic tasks.

A registry maps class ids to sample references: in-memory arrays for
synthetic data, or paths of feature dumps for real data.
Episodes draw N classes and K+Q samples per class without replacement
within the episode; across episodes sampling is with replacement.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import audio

__all__ = [
    "EpisodeSpec",
    "Episode",
    "SampleRegistry",
    "SynthTaskConfig",
    "split_classes",
    "sample_episode",
    "synth_registry",
    "resolve_sample",
    "read_manifest",
]


@dataclass
class EpisodeSpec:
    ways: int = 25
    shots: int = 5
    query_shots: int = 5

    def __post_init__(self):
        if self.ways < 1 or self.shots < 1 or self.query_shots < 1:
            raise ValueError("ways, shots and query_shots must be >= 1")

    @property
    def samples_per_class(self):
        return self.shots + self.query_shots


@dataclass
class Episode:
    """Support and query references in class-major order.

    With K support and Q query shots per class, support row i belongs to
    ``class_ids[i // K]`` and query row j to ``class_ids[j // Q]``. Every
    consumer (``head.episode_loss``, ``training.episode_head``) reads the
    classes from row position, so this is the one place the layout lives.
    """

    class_ids: list
    support: list  # sample references, K per class
    query: list  # sample references, Q per class


@dataclass
class SampleRegistry:
    classes: dict = field(default_factory=dict)

    @property
    def class_ids(self):
        return list(self.classes)

    @property
    def n_classes(self):
        return len(self.classes)

    def add(self, class_id, ref):
        self.classes.setdefault(class_id, []).append(ref)

    def subset(self, class_ids):
        missing = [c for c in class_ids if c not in self.classes]
        if missing:
            raise KeyError(f"classes not in registry: {missing[:5]}")
        return SampleRegistry({c: self.classes[c] for c in class_ids})

    def require(self, ways, per_class):
        """Raise with a named deficit if an episode spec cannot be satisfied."""
        if self.n_classes < ways:
            raise ValueError(
                f"registry has {self.n_classes} classes, episode needs {ways}"
            )
        short = {
            c: len(refs) for c, refs in self.classes.items() if len(refs) < per_class
        }
        if short:
            worst = sorted(short.items(), key=lambda kv: kv[1])[:5]
            raise ValueError(
                f"{len(short)} classes have fewer than {per_class} samples, e.g. {worst}"
            )


def read_manifest(path):
    """Parse a newline-delimited JSON manifest of labelled samples.

    Each line is an object with keys ``word``, ``path``, ``split``. The
    word names the directory ``prepare`` writes its dumps to, so it must
    be a single path component.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed manifest line: {exc}") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            for key in ("word", "path", "split"):
                if key not in rec:
                    raise ValueError(f"{path}:{lineno}: missing key {key!r}")
            word = rec["word"]
            if not isinstance(word, str) or word in ("", ".", "..") or "/" in word:
                raise ValueError(f"{path}:{lineno}: word must be one path component, got {word!r}")
            if not isinstance(rec["path"], str) or not rec["path"]:
                raise ValueError(
                    f"{path}:{lineno}: path must be a non-empty string, got {rec['path']!r}"
                )
            if rec["split"] not in ("train", "test"):
                raise ValueError(
                    f"{path}:{lineno}: split must be 'train' or 'test', got {rec['split']!r}"
                )
            records.append(rec)
    if not records:
        raise ValueError(f"{path}: manifest is empty")
    return records


def registry_from_manifest(path, split):
    """Registry of file references for one split, insertion-ordered by word."""
    reg = SampleRegistry()
    for rec in read_manifest(path):
        if rec["split"] == split:
            reg.add(rec["word"], str(Path(rec["path"])))
    return reg


def split_classes(class_ids, ratio, seed):
    """Deterministic shuffled class split; first part gets round(ratio*n)."""
    class_ids = list(class_ids)
    if len(class_ids) < 2:
        raise ValueError("need at least 2 classes to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(class_ids))
    n_first = round(ratio * len(class_ids))
    first = [class_ids[i] for i in sorted(order[:n_first])]
    second = [class_ids[i] for i in sorted(order[n_first:])]
    return first, second


def sample_episode(registry, spec, rng):
    """Draw an N-way-K-shot episode with Q queries per class.

    Classes and per-class samples are drawn without replacement; support
    and query partition the K+Q draws, so they are disjoint per class.
    """
    registry.require(spec.ways, spec.samples_per_class)
    ids = registry.class_ids
    chosen = [ids[i] for i in rng.choice(len(ids), size=spec.ways, replace=False)]
    support, query = [], []
    for cid in chosen:
        refs = registry.classes[cid]
        picks = rng.choice(len(refs), size=spec.samples_per_class, replace=False)
        support += [refs[j] for j in picks[: spec.shots]]
        query += [refs[j] for j in picks[spec.shots :]]
    return Episode(chosen, support, query)


@dataclass
class SynthTaskConfig:
    """Gaussian class clusters standing in for embedded speech data.

    ``class_sep`` scales the spread of class means, ``within_std`` the
    spread of samples around their mean; their ratio controls task
    difficulty. Samples are ``latent_dim`` vectors.
    """

    latent_dim: int = 16
    class_sep: float = 10.0
    within_std: float = 1.0

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if not (math.isfinite(self.class_sep) and self.class_sep > 0):
            raise ValueError(f"class_sep must be finite and > 0, got {self.class_sep}")
        if not (math.isfinite(self.within_std) and self.within_std >= 0):
            raise ValueError(f"within_std must be finite and >= 0, got {self.within_std}")


def _synth_sample(cfg, mean, rng):
    vec = mean if cfg.within_std == 0 else rng.normal(mean, cfg.within_std)
    return np.asarray(vec, dtype=np.float64)


def synth_registry(cfg, n_classes, samples_per_class, rng, prefix="w"):
    """Registry of pre-drawn synthetic samples for ``n_classes`` classes."""
    reg = SampleRegistry()
    means = rng.normal(0.0, cfg.class_sep, size=(n_classes, cfg.latent_dim))
    for i in range(n_classes):
        cid = f"{prefix}{i:04d}"
        for _ in range(samples_per_class):
            reg.add(cid, _synth_sample(cfg, means[i], rng))
    return reg


def resolve_sample(ref):
    """Materialize a sample reference as a feature array.

    Arrays pass through; a path is read as a feature dump (``prepare``
    writes them), so any other file raises ``AudioFormatError``.
    """
    if isinstance(ref, np.ndarray):
        return ref
    return audio.read_feature_dump(str(ref))
