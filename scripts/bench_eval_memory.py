"""Peak RSS, minor faults and wall time of ``synth-eval`` at the criterion-8 size and at 1,000 classes.

    PYTHONPATH=src python scripts/bench_eval_memory.py [--tree NAME=DIR ...] [--repeats N]
        [--out BENCH_eval_memory.json]

Every run is the CLI of one source tree (``python -m bayescl.cli`` with
``PYTHONPATH=DIR/src``) in a fresh interpreter, so its peak RSS is that
one process's high-water mark, read from ``os.wait4`` (``ru_maxrss``),
as are its minor page faults (``ru_minflt``), and its wall time includes
interpreter start-up and imports. Give
``--tree`` twice, say a checkout of the parent commit and the working
tree, to measure both with the same harness; without it the tree this
script sits in runs alone.

Set-up, untimed: one ``synth-train`` checkpoint of the criterion-7 model
(as ``scripts/bench_workers.py`` trains it) but at class separation 1.4,
as perfbench's synth workloads use, written by the first tree. At the
default separation of 10 every query is right, so every ``per_word.csv``
reads 100 and its hash would check little.
Then each size runs on each tree once to warm the file cache, and
``--repeats`` times measured, the trees alternating and their order
reversing every repeat. BLAS is pinned to one thread per process, as
perfbench pins it; ``class_scores`` keeps its default threads. Sizes:

- ``criterion-8``: 200 test classes, increment 25, 5+5 shots, 10 episodes;
- ``1000-classes``: 1,000 test classes, increment 100, 5+5 shots, 2 episodes.

Each row gives the median, minimum and maximum peak RSS, the median
minor faults, the median and quartiles of the wall times, the medians of
the run's own ``support_ingest_s`` and ``score_s`` (from its
``summary.json``, summed over episodes), and the sha256 of
``per_word.csv``, which must agree across trees and repeats.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from bayescl.pool import BLAS_VARS  # noqa: E402
from bayescl.protocol import _numpy_build  # noqa: E402

TRAIN = ["synth-train", "--latent-dim", "16", "--class-sep", "1.4", "--within-std", "1",
         "--classes", "80", "--val-classes", "20", "--samples-per-class", "20",
         "--ways", "10", "--shots", "5", "--query-shots", "5", "--batch-episodes", "4",
         "--embed-dim", "64", "--steps", "500", "--validation-every", "100", "--seed", "1"]
SIZES = {
    "criterion-8": ["--test-classes", "200", "--samples-per-class", "12", "--increment", "25",
                    "--max-classes", "200", "--shots", "5", "--query-shots", "5",
                    "--episodes", "10", "--seed", "2"],
    "1000-classes": ["--test-classes", "1000", "--samples-per-class", "12",
                     "--increment", "100", "--max-classes", "1000", "--shots", "5",
                     "--query-shots", "5", "--episodes", "2", "--seed", "2"],
}


def run_cli(tree, argv):
    """(wall s, peak RSS MB, minor faults) of one CLI run of ``tree``; a failing run
    stops the bench."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(dict.fromkeys(BLAS_VARS, "1"), PYTHONPATH=f"{tree}/src")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "bayescl.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{tree}: {argv[0]} exited {proc.returncode}: {stderr.strip()}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt  # ru_maxrss: KB on Linux


def bench(trees, repeats, work):
    ckpt = work / "model.ckpt"
    run_cli(next(iter(trees.values())), [*TRAIN, "--out", str(ckpt)])
    report = work / "report"

    def synth_eval(tree, size):
        shutil.rmtree(report, ignore_errors=True)
        wall, rss, faults = run_cli(tree, ["synth-eval", "--ckpt", str(ckpt), "--out",
                                           str(report), *SIZES[size]])
        runtime = json.loads((report / "summary.json").read_text())["runtime"]
        sha = hashlib.sha256((report / "per_word.csv").read_bytes()).hexdigest()
        return (wall, rss, faults, runtime["support_ingest_s"], runtime["score_s"]), sha

    rows = []
    for size in SIZES:
        names = list(trees)
        runs = {name: [] for name in names}
        digests = {synth_eval(trees[name], size)[1] for name in names}  # warm-up
        for r in range(repeats):
            for name in names[::-1] if r % 2 else names:
                run, sha = synth_eval(trees[name], size)
                runs[name].append(run)
                digests.add(sha)
        if len(digests) != 1:
            raise SystemExit(f"{size}: per_word.csv differs between runs: {sorted(digests)}")
        for name in names:
            walls, rss, faults, ingest, score = zip(*runs[name])
            q1, med, q3 = statistics.quantiles(walls, n=4)
            rows.append({"size": size, "tree": name, "runs": repeats,
                         "argv": ["synth-eval", *SIZES[size]],
                         "peak_rss_mb": statistics.median(rss),
                         "peak_rss_mb_min": min(rss), "peak_rss_mb_max": max(rss),
                         "minor_faults": statistics.median(faults),
                         "median_s": med, "q1_s": q1, "q3_s": q3,
                         "support_ingest_s": statistics.median(ingest),
                         "score_s": statistics.median(score),
                         "per_word_sha256": next(iter(digests))})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="NAME=DIR",
                        help="a source tree to measure (repeatable; default: this one)")
    parser.add_argument("--repeats", type=int, default=3, help="measured runs per tree and size")
    parser.add_argument("--out", default="BENCH_eval_memory.json")
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be >= 2 for quartiles")
    trees = dict(t.split("=", 1) for t in args.tree) if args.tree else {"tree": str(REPO)}
    with tempfile.TemporaryDirectory(prefix="bench_eval_memory_") as work:
        rows = bench(trees, args.repeats, Path(work))
    for row in rows:
        print(f"{row['size']} {row['tree']}: {row['peak_rss_mb']:.1f} MB peak RSS "
              f"({row['peak_rss_mb_min']:.1f}-{row['peak_rss_mb_max']:.1f}), "
              f"{row['minor_faults']:.0f} minor faults, "
              f"{row['median_s']:.3f} s (q1 {row['q1_s']:.3f}, q3 {row['q3_s']:.3f}), "
              f"support_ingest_s {row['support_ingest_s']:.3f}, score_s {row['score_s']:.3f}")
    result = {
        "harness": "scripts/bench_eval_memory.py",
        "machine": {
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": _numpy_build(),  # as a protocol run's summary.json records it
        },
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
