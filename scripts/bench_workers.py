"""Time ``prepare`` and the criterion-8 ``synth-eval`` at one and two workers.

    PYTHONPATH=src python scripts/bench_workers.py [--tree NAME=DIR ...] [--repeats N]
        [--out BENCH_workers.json]

Every timed run is the CLI of one source tree (``python -m bayescl.cli``
with ``PYTHONPATH=DIR/src``) in a fresh interpreter, so its wall time
includes interpreter start-up and imports. Give ``--tree`` twice, say a
checkout of the parent commit and the working tree, to time both with the
same harness; without it the tree this script sits in runs alone.

Set-up, untimed: a seeded 2,400-clip corpus (``perfbench/corpus.py``, 40
words, 30 clips per split, the audio-pipeline workload's clip settings)
and one ``synth-train`` checkpoint of the criterion-7 model, written by the
first tree. Then each (tree, BLAS, workers) setting runs each command
once to warm the file cache, and ``--repeats`` times timed. The settings
alternate run by run, and their order reverses every repeat, so drift on
the host reaches them alike. BLAS is either pinned to one thread per
process, as perfbench pins it, or left at OpenBLAS's default of one
thread per core, as a user runs it. Where ``pool.spawn_map`` starts its
workers with one BLAS thread (``pool.BLAS_VARS``), the default reaches
only the parent process; where it does not, two workers at the default
put two BLAS threads per worker on each core. ``prepare`` starts from an
empty features directory every run. ``synth-eval`` runs the criterion-8
protocol: 200 test classes, increment 25, 5+5 shots, 10 episodes.

Each row gives the median and quartiles of the wall times and the sha256
of the outputs (every file ``prepare`` writes; ``synth-eval``'s three
CSVs), which must agree across every setting.
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
from perfbench import corpus  # noqa: E402

WORKERS = (1, 2)
WORDS, CLIPS_PER_SPLIT = 40, 30
TRAIN = ["synth-train", "--latent-dim", "16", "--class-sep", "10", "--within-std", "1",
         "--classes", "80", "--val-classes", "20", "--samples-per-class", "20",
         "--ways", "10", "--shots", "5", "--query-shots", "5", "--batch-episodes", "4",
         "--embed-dim", "64", "--steps", "500", "--validation-every", "100", "--seed", "1"]
PROTOCOL = ["--test-classes", "200", "--samples-per-class", "12", "--increment", "25",
            "--max-classes", "200", "--shots", "5", "--query-shots", "5",
            "--episodes", "10", "--seed", "2"]
REPORT_FILES = ("curve.csv", "per_word.csv", "volatility.csv")


def run_cli(tree, blas, argv):
    """The wall time of one CLI run of ``tree``; a failing run stops the bench."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update({k: blas for k in BLAS_VARS if blas != "default"}, PYTHONPATH=f"{tree}/src")
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "bayescl.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if done.returncode:
        raise SystemExit(f"{tree}: {argv[0]} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return wall


def digest(root, names):
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (root / name).read_bytes())
    return h.hexdigest()


def bench(trees, repeats, work):
    wav = work / "wav"
    manifest = corpus.write_corpus(wav, seed=0, n_words=WORDS, clips_per_split=CLIPS_PER_SPLIT,
                                   noise_std=1.0, jitter=0.05, min_len=8000, max_len=16000)
    ckpt = work / "model.ckpt"
    run_cli(next(iter(trees.values())), "1", [*TRAIN, "--out", str(ckpt)])
    features, report = work / "features", work / "report"

    def prepare(tree, blas, workers):
        shutil.rmtree(features, ignore_errors=True)
        wall = run_cli(tree, blas, ["prepare", "--manifest", str(manifest),
                                    "--audio-root", str(wav), "--features-dir", str(features),
                                    "--workers", str(workers)])
        names = sorted(p.relative_to(features).as_posix()
                       for p in features.rglob("*") if p.is_file())
        return wall, digest(features, names)

    def synth_eval(tree, blas, workers):
        shutil.rmtree(report, ignore_errors=True)
        wall = run_cli(tree, blas, ["synth-eval", "--ckpt", str(ckpt), "--out", str(report),
                                    "--workers", str(workers), *PROTOCOL])
        return wall, digest(report, REPORT_FILES)

    settings = [(name, blas, w) for name in trees for blas in ("1", "default") for w in WORKERS]
    rows = []
    for command, run in (("prepare", prepare), ("synth-eval", synth_eval)):
        walls = {s: [] for s in settings}
        digests = {(name, blas, w): {run(trees[name], blas, w)[1]}  # warm-up
                   for name, blas, w in settings}
        for r in range(repeats):
            for name, blas, w in settings[::-1] if r % 2 else settings:
                wall, sha = run(trees[name], blas, w)
                walls[name, blas, w].append(wall)
                digests[name, blas, w].add(sha)
        if len(set().union(*digests.values())) != 1:
            raise SystemExit(f"{command}: outputs differ between settings: {digests}")
        for s in settings:
            q1, med, q3 = statistics.quantiles(walls[s], n=4)
            row = {"command": command, "tree": s[0], "blas_threads": s[1], "workers": s[2],
                   "runs": repeats, "median_s": med, "q1_s": q1, "q3_s": q3,
                   "sha256": digests[s].pop()}
            if command == "prepare":
                clips = 2 * WORDS * CLIPS_PER_SPLIT
                row.update(clips=clips, clips_per_s=clips / med)
            rows.append(row)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="NAME=DIR",
                        help="a source tree to time (repeatable; default: this one)")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per setting")
    parser.add_argument("--out", default="BENCH_workers.json")
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be >= 2 for quartiles")
    trees = dict(t.split("=", 1) for t in args.tree) if args.tree else {"tree": str(REPO)}
    with tempfile.TemporaryDirectory(prefix="bench_workers_") as work:
        rows = bench(trees, args.repeats, Path(work))
    for row in rows:
        rate = f", {row['clips_per_s']:.0f} clips/s" if "clips_per_s" in row else ""
        print(f"{row['command']} {row['tree']} blas={row['blas_threads']} "
              f"workers={row['workers']}: "
              f"{row['median_s']:.3f} s (q1 {row['q1_s']:.3f}, q3 {row['q3_s']:.3f}){rate}")
    result = {
        "harness": "scripts/bench_workers.py",
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
