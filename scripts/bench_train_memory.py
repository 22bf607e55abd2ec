"""Wall time, steps/s, minor faults per episode and peak RSS of ``synth-train`` at perfbench's
synth-train size and at the criterion-7 size.

    PYTHONPATH=src python scripts/bench_train_memory.py [--tree NAME=DIR ...] [--repeats N]
        [--out BENCH_train.json]

Each run is one ``synth-train`` of one tree in a fresh interpreter;
``scripts/benchlib.py`` says how the trees, the warm-up, the alternating
repeats and the paired statistic work. BLAS is pinned to one thread per
process, as perfbench pins it. Each measured run is followed by its
one-step twin (the same flags with ``--steps 1``): it draws the same data,
validates once and writes the same files, so the difference between the
two is the other steps alone. Sizes:

- ``perfbench-synth-train``: perfbench's synth-train operation (16-d
  vectors at class separation 1.4, 80 + 20 classes of 20 samples, 10-way
  5+5-shot, 4 episodes per step, 50 steps, 20 validation episodes once);
- ``criterion-7``: the criterion-7 model (class separation 10, 500 steps,
  validation every 100).

Each row gives benchlib's wall and memory statistics of the run (not its
twin), ``steps_per_s`` (the steps after the first over the median of the
wall-time differences to the twin), ``minor_faults_per_episode`` (the
median of the fault differences to the twin, over those steps' episodes),
and the sha256 of the checkpoint, its ``.best`` and its ``.log.csv``, which
must agree across trees and repeats.
"""

import hashlib
import json
import statistics
from pathlib import Path

import benchlib

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


def bench(trees, repeats, work):
    ckpt = work / "model.ckpt"

    def synth_train(setting):
        name, size = setting
        steps, argv = SIZES[size]
        run = benchlib.run_cli(trees[name], [*argv, "--steps", str(steps), "--out", str(ckpt)])
        sha = {key: hashlib.sha256(Path(f"{ckpt}{suffix}").read_bytes()).hexdigest()
               for key, suffix in OUTPUTS.items()}
        twin = benchlib.run_cli(trees[name], [*argv, "--steps", "1",
                                              "--out", str(work / "twin.ckpt")])
        return (run, twin), json.dumps(sha, sort_keys=True)

    rows = []
    for size, (steps, argv) in SIZES.items():
        runs, sha = benchlib.alternate([(name, size) for name in trees], repeats, synth_train)
        stats = benchlib.summarise({s: [run for run, _ in done] for s, done in runs.items()},
                                   memory=True)
        later = steps - 1
        for (name, _), done in runs.items():
            rows.append({"size": size, "tree": name, "runs": repeats,
                         "argv": [*argv, "--steps", str(steps)], **stats[name, size],
                         "steps_per_s": later / statistics.median(
                             run.wall - twin.wall for run, twin in done),
                         "minor_faults_per_episode": statistics.median(
                             run.faults - twin.faults for run, twin in done)
                         / (later * BATCH_EPISODES),
                         **json.loads(sha)})
    return rows


def describe(row):
    return (f"{row['size']} {row['tree']}: {row['peak_rss_mb']:.2f} MB peak RSS "
            f"({row['peak_rss_mb_min']:.2f}-{row['peak_rss_mb_max']:.2f}), "
            f"{row['median_s']:.3f} s (q1 {row['q1_s']:.3f}, q3 {row['q3_s']:.3f}), "
            f"{row['steps_per_s']:.1f} steps/s, {row['minor_faults']:.0f} minor faults, "
            f"{row['minor_faults_per_episode']:.1f} per episode")


if __name__ == "__main__":
    benchlib.measure(__doc__, "scripts/bench_train_memory.py", "BENCH_train.json", 3,
                     bench, describe)
