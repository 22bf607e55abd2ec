"""Wall time, steps/s, minor faults per episode and peak RSS of ``synth-train`` at perfbench's
synth-train size and at the criterion-7 size.

    PYTHONPATH=src python scripts/bench_train_memory.py [--tree NAME=DIR ...] [--repeats N]
        [--out BENCH_train.json]

Every run is the CLI of one source tree (``python -m bayescl.cli`` with
``PYTHONPATH=DIR/src``) in a fresh interpreter, so its peak RSS is that
one process's high-water mark, read from ``os.wait4`` (``ru_maxrss``),
as are its minor page faults (``ru_minflt``), and its wall time includes
interpreter start-up and imports. Give ``--tree`` twice, say a checkout
of the parent commit and the working tree, to measure both with the same
harness; without it the tree this script sits in runs alone.

Each size runs on each tree once to warm the file cache, then
``--repeats`` times measured, the trees alternating and their order
reversing every repeat. BLAS is pinned to one thread per process, as
perfbench pins it. Each measured run is followed by its one-step twin
(the same flags with ``--steps 1``): it draws the same data, validates
once and writes the same files, so the difference between the two is the
other steps alone. Sizes:

- ``perfbench-synth-train``: perfbench's synth-train operation (16-d
  vectors at class separation 1.4, 80 + 20 classes of 20 samples, 10-way
  5+5-shot, 4 episodes per step, 50 steps, 20 validation episodes once);
- ``criterion-7``: the criterion-7 model as ``scripts/bench_workers.py``
  trains it (class separation 10, 500 steps, validation every 100).

Each row gives the median, minimum and maximum peak RSS, the median and
quartiles of the wall times, ``steps_per_s`` (the steps after the first
over the median of the wall-time differences to the twin), the median
minor faults of the run and ``minor_faults_per_episode`` (the median of
the fault differences to the twin, over those steps' episodes), and the
sha256 of the checkpoint, its ``.best`` and its ``.log.csv``, which must
agree across trees and repeats.
"""

import argparse
import hashlib
import json
import os
import platform
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

BATCH_EPISODES = 4
COMMON = ["synth-train", "--latent-dim", "16", "--within-std", "1", "--classes", "80",
          "--val-classes", "20", "--samples-per-class", "20", "--ways", "10", "--shots", "5",
          "--query-shots", "5", "--batch-episodes", str(BATCH_EPISODES), "--embed-dim", "64"]
SIZES = {
    "perfbench-synth-train": (50, [*COMMON, "--class-sep", "1.4", "--validation-every", "50",
                                   "--seed", "1"]),
    "criterion-7": (500, [*COMMON, "--class-sep", "10", "--validation-every", "100",
                          "--seed", "1"]),
}
OUTPUTS = {"ckpt_sha256": "", "best_sha256": ".best", "log_sha256": ".log.csv"}


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

    def synth_train(tree, size):
        steps, argv = SIZES[size]
        run = run_cli(tree, [*argv, "--steps", str(steps), "--out", str(ckpt)])
        sha = {key: hashlib.sha256(Path(f"{ckpt}{suffix}").read_bytes()).hexdigest()
               for key, suffix in OUTPUTS.items()}
        twin = run_cli(tree, [*argv, "--steps", "1", "--out", str(work / "twin.ckpt")])
        return run, twin, json.dumps(sha, sort_keys=True)

    rows = []
    for size, (steps, argv) in SIZES.items():
        names = list(trees)
        runs = {name: [] for name in names}
        digests = {synth_train(trees[name], size)[2] for name in names}  # warm-up
        for r in range(repeats):
            for name in names[::-1] if r % 2 else names:
                run, twin, sha = synth_train(trees[name], size)
                runs[name].append((run, twin))
                digests.add(sha)
        if len(digests) != 1:
            raise SystemExit(f"{size}: the run's files differ between runs: {sorted(digests)}")
        for name in names:
            walls = [run[0] for run, _ in runs[name]]
            rss = [run[1] for run, _ in runs[name]]
            q1, med, q3 = statistics.quantiles(walls, n=4)
            later = steps - 1
            rows.append({"size": size, "tree": name, "runs": repeats,
                         "argv": [*argv, "--steps", str(steps)],
                         "peak_rss_mb": statistics.median(rss),
                         "peak_rss_mb_min": min(rss), "peak_rss_mb_max": max(rss),
                         "median_s": med, "q1_s": q1, "q3_s": q3,
                         "steps_per_s": later / statistics.median(
                             run[0] - twin[0] for run, twin in runs[name]),
                         "minor_faults": statistics.median(run[2] for run, _ in runs[name]),
                         "minor_faults_per_episode": statistics.median(
                             run[2] - twin[2] for run, twin in runs[name])
                         / (later * BATCH_EPISODES),
                         **json.loads(next(iter(digests)))})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="NAME=DIR",
                        help="a source tree to measure (repeatable; default: this one)")
    parser.add_argument("--repeats", type=int, default=3, help="measured runs per tree and size")
    parser.add_argument("--out", default="BENCH_train.json")
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be >= 2 for quartiles")
    trees = dict(t.split("=", 1) for t in args.tree) if args.tree else {"tree": str(REPO)}
    with tempfile.TemporaryDirectory(prefix="bench_train_memory_") as work:
        rows = bench(trees, args.repeats, Path(work))
    for row in rows:
        print(f"{row['size']} {row['tree']}: {row['peak_rss_mb']:.2f} MB peak RSS "
              f"({row['peak_rss_mb_min']:.2f}-{row['peak_rss_mb_max']:.2f}), "
              f"{row['median_s']:.3f} s (q1 {row['q1_s']:.3f}, q3 {row['q3_s']:.3f}), "
              f"{row['steps_per_s']:.1f} steps/s, {row['minor_faults']:.0f} minor faults, "
              f"{row['minor_faults_per_episode']:.1f} per episode")
    result = {
        "harness": "scripts/bench_train_memory.py",
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
