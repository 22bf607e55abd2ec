"""Class-incremental evaluation: ingest classes in blocks, score at each block.

Per episode, ``max_classes`` test classes are drawn and introduced
``increment`` at a time. At each checkpoint every introduced word's
query shots are classified against all classes seen so far.

A class density is fixed once its support shots are added, and the
query shots are drawn up front, so a query's score against a class does
not depend on the checkpoint. Each episode therefore embeds all its
support and query shots in one batch each, adds every class to the
head, and computes one (max_classes * query_shots, max_classes) score
matrix. The accuracy at checkpoint n is the argmax over the first n
columns of the rows of the first n words. argmax takes the first
maximum, so ties go to the earliest-inserted class, and a query that
goes wrong can never recover: its competitors only grow while the
existing scores stay fixed.
"""

import csv
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .encoder import embed_batch_values
from .episodes import resolve_sample
from .head import HeadState, class_scores
from .training import encoder_params

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
    workers: int = 1

    def __post_init__(self):
        if self.increment < 1 or self.max_classes < self.increment:
            raise ValueError("need 1 <= increment <= max_classes")
        if self.max_classes % self.increment:
            raise ValueError("max_classes must be divisible by increment")
        if self.shots < 1 or self.query_shots < 1:
            raise ValueError("shots and query_shots must be >= 1")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")

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


def _run_episode(params, prior, registry, cfg, episode_seed):
    rng = np.random.default_rng(episode_seed)
    registry.require(cfg.max_classes, cfg.shots + cfg.query_shots)
    ids = registry.class_ids
    order = [ids[i] for i in rng.choice(len(ids), size=cfg.max_classes, replace=False)]
    enc = encoder_params(params)
    k, q = cfg.shots, cfg.query_shots

    t0 = time.perf_counter()
    support, queries = [], []
    for cid in order:
        refs = registry.classes[cid]
        picks = rng.choice(len(refs), size=k + q, replace=False)
        support += [resolve_sample(refs[j]) for j in picks[:k]]
        queries += [resolve_sample(refs[j]) for j in picks[k:]]
    support_z = embed_batch_values(support, enc)
    query_z = embed_batch_values(queries, enc)
    head = HeadState(prior)
    for w, cid in enumerate(order):
        head.add_class(cid, support_z[w * k : (w + 1) * k])
    t1 = time.perf_counter()

    # row w*q + j is query j of word w; column w is word w's class
    scores = class_scores(head, query_z)
    truth = np.repeat(np.arange(cfg.max_classes), q)
    checkpoints = cfg.checkpoints
    correct = np.full((cfg.max_classes, len(checkpoints), q), -1, dtype=np.int8)
    for t, n in enumerate(checkpoints):
        hits = np.argmax(scores[: n * q, :n], axis=1) == truth[: n * q]
        correct[:n, t] = hits.reshape(n, q)
    acc = np.where(correct[:, :, 0] >= 0, 100.0 * correct.mean(axis=2), np.nan)
    introduced_at = np.repeat(checkpoints, cfg.increment)
    query_time = time.perf_counter() - t1
    return EpisodeTrace(order, introduced_at, acc, correct), t1 - t0, query_time


_worker_job = None  # (params, prior, registry, cfg) inside a protocol worker process


def _init_worker(params, prior, registry, cfg):
    global _worker_job
    _worker_job = (params, prior, registry, cfg)


def _worker_episode(episode_seed):
    return _run_episode(*_worker_job, episode_seed)


def run_protocol(params, prior, registry, cfg):
    """Evaluate frozen meta-parameters; returns (AccuracyMatrix, EvalReport).

    With ``cfg.workers > 1`` episodes run in worker processes; the model
    and registry are sent to each worker once, and each job is a seed.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.episodes)
    t_start = time.perf_counter()
    if cfg.workers > 1:
        with ProcessPoolExecutor(
            max_workers=cfg.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(params, prior, registry, cfg),
        ) as pool:
            results = list(pool.map(_worker_episode, seeds))
    else:
        results = [_run_episode(params, prior, registry, cfg, s) for s in seeds]
    matrix = AccuracyMatrix(cfg.checkpoints, cfg.query_shots, [r[0] for r in results])
    support_time = sum(r[1] for r in results)
    query_time = sum(r[2] for r in results)

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
        runtime={
            "support_ingest_s": support_time,
            "query_eval_s": query_time,
            "total_s": time.perf_counter() - t_start,
        },
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


def _fmt(x):
    return f"{float(x):.17g}"


def emit_report(report, matrix, out_dir):
    """Write curve.csv, volatility.csv, per_word.csv, and summary.json.

    Floats are serialized with 17 significant digits; re-running with the
    same seed reproduces the CSVs byte for byte.
    """
    out = out_dir
    from pathlib import Path

    out = Path(out)
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
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
