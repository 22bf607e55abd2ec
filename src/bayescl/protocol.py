"""Class-incremental evaluation: ingest classes in blocks, score at each block.

Per episode, ``max_classes`` test classes are drawn and introduced
``increment`` at a time. At each checkpoint every introduced word's
query shots are classified against all classes seen so far.

An episode is drawn by ``episodes.sample_episode`` and its head built
by ``training.episode_head``, as in validation during training, so any
method that draws from the same episode seed sees the same words in the
same order and the same support and query picks. Its support and query
forwards share one set of layer arrays.

A class density is fixed once its support shots are added, and the
query shots are drawn up front, so a query's score against a class does
not depend on the checkpoint. Each checkpoint therefore scores every
query of the episode against only the ``increment`` classes it adds
(``class_scores`` on that range of head rows) and folds that block into
each query's running (max, argmax) with a strict ``>``. So the guess at
checkpoint n is ``np.argmax`` over the first n classes, which takes the
first maximum: ties go to the earliest-inserted class, and a query that
goes wrong can never recover, since its competitors only grow while the
existing scores stay fixed. No episode holds more than one block of
(max_classes * query_shots, increment) scores. The checkpoints' calls
share one ``head.ScoringPool``, opened for the episode and joined before
it returns. Episodes run in turn, in the calling process.

``EvalReport.runtime`` sums over episodes:
``support_ingest_s`` (drawing, embedding and ``add_class``), and within
it ``draw_s`` (``sample_episode``), ``embed_s`` (the support and query
forwards) and ``add_class_s`` (building the head); ``query_eval_s``
(everything after), and within it ``score_s`` (the ``class_scores``
calls, one per checkpoint) and ``argmax_s`` (the rest of the checkpoint
loop: opening and joining the scoring pool, folding each block into the
running argmax and marking each query right or wrong); and ``total_s``,
the whole run. ``EvalReport.scoring_threads`` is the number of threads
``class_scores`` ran on for a checkpoint's block (``head.scoring_threads``).
"""

import csv
import json
import os
import time
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .episodes import EpisodeSpec, sample_episode
from .head import ScoringPool, class_scores, scoring_threads
from .training import encoder_inputs, episode_head

__all__ = [
    "ProtocolConfig",
    "EpisodeTrace",
    "AccuracyMatrix",
    "EvalReport",
    "run_protocol",
    "per_word_volatility",
    "monotone_violations",
    "emit_report",
]

VOLATILITY_DEFINITION = (
    "pooled |accuracy delta| over all (episode, word, consecutive checkpoint) "
    "pairs where both checkpoints are defined; std is the population std of "
    "that pooled collection"
)


@dataclass
class ProtocolConfig:
    increment: int = 25
    max_classes: int = 200
    shots: int = 5
    query_shots: int = 5
    episodes: int = 10
    seed: int = 0
    # init-only: perfbench still passes workers=1; goes when the benchmark drops it
    workers: InitVar[int] = 1

    def __post_init__(self, workers):
        if self.increment < 1 or self.max_classes < self.increment:
            raise ValueError("need 1 <= increment <= max_classes")
        if self.max_classes % self.increment:
            raise ValueError("max_classes must be divisible by increment")
        if self.shots < 1 or self.query_shots < 1:
            raise ValueError("shots and query_shots must be >= 1")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if workers != 1:
            raise ValueError(f"workers must be 1, got {workers}")

    @property
    def checkpoints(self):
        return list(range(self.increment, self.max_classes + 1, self.increment))


@dataclass
class EpisodeTrace:
    """One episode's words (in introduction order) and their accuracies.

    ``acc[w, t]`` is the percentage of the word's query shots classified
    correctly at checkpoint t; NaN before the word is introduced.
    ``correct[w, t, q]`` is the 0/1 outcome per query shot (-1 before
    introduction). ``introduced_at[w]`` is the class count of the first
    checkpoint that includes the word.
    """

    words: list
    introduced_at: np.ndarray
    acc: np.ndarray
    correct: np.ndarray


@dataclass
class AccuracyMatrix:
    checkpoints: list
    query_shots: int
    episodes: list = field(default_factory=list)


@dataclass
class EvalReport:
    checkpoints: list
    mean_accuracy: list
    ci_low: list
    ci_high: list
    volatility_mean: float
    volatility_std: float
    n_pairs: int
    runtime: dict
    scoring_threads: int


def _merge_block(best, guess, block, c0):
    """Fold ``block``, the scores of classes c0, c0 + 1, ..., into each
    query's running maximum ``best`` and its class ``guess``, in place.

    A strict ``>`` keeps the earlier class on a tie, so after every block
    ``guess`` is ``np.argmax`` over all the columns merged so far."""
    idx = np.argmax(block, axis=1)
    top = np.take_along_axis(block, idx[:, None], axis=1)[:, 0]
    better = top > best
    best[better] = top[better]
    guess[better] = idx[better] + c0


def _run_episode(params, prior, registry, cfg, episode_seed):
    rng = np.random.default_rng(episode_seed)
    q = cfg.query_shots

    t0 = time.perf_counter()
    episode = sample_episode(registry, EpisodeSpec(cfg.max_classes, cfg.shots, q), rng)
    t1 = time.perf_counter()
    runtime = {"draw_s": t1 - t0}
    # arrays: run_protocol passes encoder_inputs
    head, query_z = episode_head(params, prior, episode, runtime)
    t2 = time.perf_counter()

    # row w*q + j is query j of word w; head row w is word w's class
    truth = np.repeat(np.arange(cfg.max_classes), q)
    best = np.full(len(truth), -np.inf)
    guess = np.zeros(len(truth), dtype=np.intp)
    checkpoints = cfg.checkpoints
    correct = np.full((cfg.max_classes, len(checkpoints), q), -1, dtype=np.int8)
    threads = scoring_threads(len(truth), cfg.increment, query_z.shape[1])
    score_s = 0.0
    with ScoringPool(threads) as pool:
        for t, n in enumerate(checkpoints):
            c0 = n - cfg.increment
            t3 = time.perf_counter()
            block = class_scores(head, query_z, slice(c0, n), pool)
            score_s += time.perf_counter() - t3
            _merge_block(best, guess, block, c0)
            correct[:n, t] = (guess[: n * q] == truth[: n * q]).reshape(n, q)
    t4 = time.perf_counter()
    acc = np.where(correct[:, :, 0] >= 0, 100.0 * correct.mean(axis=2), np.nan)
    introduced_at = np.repeat(checkpoints, cfg.increment)
    t5 = time.perf_counter()
    runtime.update(support_ingest_s=t2 - t0, query_eval_s=t5 - t2,
                   score_s=score_s, argmax_s=t4 - t2 - score_s)
    return EpisodeTrace(episode.class_ids, introduced_at, acc, correct), runtime, threads


def run_protocol(params, prior, registry, cfg):
    """Evaluate frozen meta-parameters; returns (AccuracyMatrix, EvalReport).

    The registry's files are read, and its clips pooled, once before
    any episode (``encoder_inputs``).
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.episodes)
    t_start = time.perf_counter()
    registry = encoder_inputs(registry)
    results = [_run_episode(params, prior, registry, cfg, s) for s in seeds]
    matrix = AccuracyMatrix(cfg.checkpoints, cfg.query_shots, [r[0] for r in results])
    runtime = {k: sum(r[1][k] for r in results) for k in results[0][1]}

    per_episode_means = np.array(
        [np.nanmean(tr.acc, axis=0) for tr in matrix.episodes]
    )  # (episodes, checkpoints); at every checkpoint all introduced words count
    mean_acc = per_episode_means.mean(axis=0)
    # population std across episode means; width 0 when episodes == 1
    std = per_episode_means.std(axis=0, ddof=0)
    half = 1.96 * std / np.sqrt(cfg.episodes)
    if len(cfg.checkpoints) > 1:
        vol_mean, vol_std, n_pairs = _volatility(matrix)
    else:  # a single checkpoint has no consecutive pairs to compare
        vol_mean, vol_std, n_pairs = float("nan"), float("nan"), 0
    report = EvalReport(
        checkpoints=cfg.checkpoints,
        mean_accuracy=list(mean_acc),
        ci_low=list(mean_acc - half),
        ci_high=list(mean_acc + half),
        volatility_mean=vol_mean,
        volatility_std=vol_std,
        n_pairs=n_pairs,
        runtime={**runtime, "total_s": time.perf_counter() - t_start},
        scoring_threads=max(r[2] for r in results),
    )
    return matrix, report


def _volatility(matrix):
    # masked diffs flatten in (episode, word, checkpoint) order
    diffs = []
    for tr in matrix.episodes:
        a = tr.acc
        both = ~np.isnan(a[:, :-1]) & ~np.isnan(a[:, 1:])
        diffs.append(np.abs(a[:, 1:] - a[:, :-1])[both])
    d = np.concatenate(diffs)
    if not d.size:
        raise ValueError("no consecutive checkpoint pairs to compare")
    return float(d.mean()), float(d.std(ddof=0)), int(d.size)


def per_word_volatility(matrix):
    """Mean and population std of |accuracy change| between consecutive
    checkpoints, pooled over episodes, words, and checkpoint pairs."""
    mean, std, _ = _volatility(matrix)
    return mean, std


def monotone_violations(matrix):
    """Count per-query correct-after-incorrect transitions across checkpoints.

    Zero for any frozen-encoder run: a wrong query can never become right
    again because existing class densities are constants and the running
    maximum only grows.
    """
    bad = 0
    for tr in matrix.episodes:
        c = np.moveaxis(tr.correct, 1, -1)  # (word, query, checkpoint)
        # index of the latest defined checkpoint up to each one (-1: none)
        seen = np.maximum.accumulate(
            np.where(c >= 0, np.arange(c.shape[-1]), -1), axis=-1
        )[..., :-1]
        before = np.take_along_axis(c, np.maximum(seen, 0), axis=-1)
        bad += int(np.count_nonzero((c[..., 1:] > 0) & (seen >= 0) & (before == 0)))
    return bad


def _numpy_build():
    # the SIMD extensions numpy dispatches to on this CPU (numpy >= 1.26
    # lists them), less any that NPY_DISABLE_CPU_FEATURES switches off
    simd = getattr(getattr(np, "__config__", None), "CONFIG", {}).get("SIMD Extensions", {})
    return {
        "version": np.__version__,
        "simd_found": simd.get("found"),
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES", ""),
    }


def _fmt(x):
    return f"{float(x):.17g}"


def emit_report(report, matrix, out_dir):
    """Write curve.csv, volatility.csv, per_word.csv, and summary.json.

    Floats are serialized with 17 significant digits; re-running with the
    same seed reproduces the CSVs byte for byte on the same machine and
    numpy build. Across machines the bits can differ: numpy's float64
    ``log`` rounds differently on its AVX-512 and AVX2/baseline paths, so
    summary.json records numpy's version and SIMD dispatch (``_numpy_build``).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "curve.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["checkpoint_classes", "mean_accuracy", "ci_low", "ci_high"])
        for cp, m, lo, hi in zip(
            report.checkpoints, report.mean_accuracy, report.ci_low, report.ci_high
        ):
            w.writerow([cp, _fmt(m), _fmt(lo), _fmt(hi)])

    with open(out / "volatility.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mean", "std", "n_pairs"])
        w.writerow([_fmt(report.volatility_mean), _fmt(report.volatility_std), report.n_pairs])

    with open(out / "per_word.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["episode", "word", "introduced_at"]
        header += [f"acc_{cp}" for cp in matrix.checkpoints]
        w.writerow(header)
        for e, tr in enumerate(matrix.episodes):
            for i, word in enumerate(tr.words):
                row = [e, word, int(tr.introduced_at[i])]
                row += [
                    "" if np.isnan(v) else _fmt(v) for v in tr.acc[i]
                ]
                w.writerow(row)

    summary = {
        "checkpoints": report.checkpoints,
        "episodes": len(matrix.episodes),
        "query_shots": matrix.query_shots,
        "mean_accuracy_first": report.mean_accuracy[0],
        "mean_accuracy_last": report.mean_accuracy[-1],
        "volatility": {
            "mean": report.volatility_mean,
            "std": report.volatility_std,
            "n_pairs": report.n_pairs,
            "definition": VOLATILITY_DEFINITION,
        },
        "runtime": report.runtime,
        "scoring_threads": report.scoring_threads,
        "numpy": _numpy_build(),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
