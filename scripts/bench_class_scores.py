"""Time ``head.class_scores`` on one thread and on the default thread count.

    PYTHONPATH=src python scripts/bench_class_scores.py [--out BENCH_class_scores.json]

For each shape (M queries x C classes x d dimensions) a seeded head of
5-shot classes scores seeded queries. The two thread settings alternate
call by call after one warm-up call each, so drift on the host reaches
both alike. Each row gives the median and quartiles of the wall times
and the sha256 of the score bytes, which must agree between the two
settings. One thread runs the same kernel as before the span split.
"""

import hashlib
import time

import numpy as np

import benchlib
from bayescl import head as H

SHAPES = ((1000, 200, 64, 15), (5000, 1000, 64, 5))  # M, C, d, timed calls per setting


def make_inputs(m, c, d, seed=0):
    rng = np.random.default_rng(seed)
    head = H.HeadState(H.PriorParams(0.3, -0.2))
    for k in range(c):
        head.add_class(k, rng.normal(rng.normal(0, 2, size=d), 1.0, size=(5, d)))
    return head, rng.normal(0, 2, size=(m, d))


def time_shape(m, c, d, repeats):
    head, Z = make_inputs(m, c, d)
    # "1" scores on a one-thread pool (it starts no thread), "default" on
    # the pool each call opens for itself
    settings = {"1": H.ScoringPool(1), "default": None}
    threads = {"1": 1, "default": H.scoring_threads(m, c, d)}
    digests, walls = {}, {name: [] for name in settings}
    for name, pool in settings.items():  # warm-up, and the bytes
        digests[name] = hashlib.sha256(H.class_scores(head, Z, pool=pool).tobytes()).hexdigest()
    if len(set(digests.values())) != 1:
        raise SystemExit(f"{m}x{c}x{d}: scores differ between thread counts: {digests}")
    for _ in range(repeats):
        for name, pool in settings.items():
            t0 = time.perf_counter()
            H.class_scores(head, Z, pool=pool)
            walls[name].append(time.perf_counter() - t0)
    rows = []
    for name in settings:
        q1, med, q3 = benchlib.quartiles(walls[name])
        rows.append({
            "queries": m, "classes": c, "dim": d, "threads": threads[name], "setting": name,
            "calls": repeats, "median_ms": 1e3 * med, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3,
            "sha256": digests[name],
        })
    return rows


def main():
    args = benchlib.arguments(__doc__, "BENCH_class_scores.json")
    rows = [row for m, c, d, repeats in SHAPES for row in time_shape(m, c, d, repeats)]
    for row in rows:
        print(f"{row['queries']}x{row['classes']}x{row['dim']} threads={row['threads']}: "
              f"{row['median_ms']:.1f} ms (q1 {row['q1_ms']:.1f}, q3 {row['q3_ms']:.1f})")
    benchlib.write_result("scripts/bench_class_scores.py", rows, args.out)


if __name__ == "__main__":
    main()
