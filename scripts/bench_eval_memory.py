"""Peak RSS, minor faults and wall time of ``synth-eval`` at the criterion-8 size and at 1,000 classes.

    PYTHONPATH=src python scripts/bench_eval_memory.py [--tree NAME=DIR ...] [--repeats N]
        [--out BENCH_eval_memory.json]

Each run is one ``synth-eval`` of one tree in a fresh interpreter;
``scripts/benchlib.py`` says how the trees, the warm-up, the alternating
repeats and the paired statistic work.

Set-up, untimed: one ``synth-train`` checkpoint of the criterion-7 model
(as ``scripts/bench_workers.py`` trains it) but at class separation 1.4,
as perfbench's synth workloads use, written by the first tree. At the
default separation of 10 every query is right, so every ``per_word.csv``
reads 100 and its hash would check little.
Then each size runs on each tree. BLAS is pinned to one thread per
process, as perfbench pins it; ``class_scores`` keeps its default threads.
Sizes:

- ``criterion-8``: 200 test classes, increment 25, 5+5 shots, 10 episodes;
- ``1000-classes``: 1,000 test classes, increment 100, 5+5 shots, 2 episodes.

Each row gives benchlib's wall and memory statistics, the medians of the
run's own ``support_ingest_s`` and ``score_s`` (from its
``summary.json``, summed over episodes), and the sha256 of
``per_word.csv``, which must agree across trees and repeats.
"""

import hashlib
import json
import shutil
import statistics

import benchlib

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


def bench(trees, repeats, work):
    ckpt = work / "model.ckpt"
    benchlib.run_cli(next(iter(trees.values())), [*TRAIN, "--out", str(ckpt)])
    report = work / "report"

    def synth_eval(setting):
        name, size = setting
        shutil.rmtree(report, ignore_errors=True)
        run = benchlib.run_cli(trees[name], ["synth-eval", "--ckpt", str(ckpt), "--out",
                                             str(report), *SIZES[size]])
        runtime = json.loads((report / "summary.json").read_text())["runtime"]
        sha = hashlib.sha256((report / "per_word.csv").read_bytes()).hexdigest()
        return (run, runtime["support_ingest_s"], runtime["score_s"]), sha

    rows = []
    for size in SIZES:
        runs, sha = benchlib.alternate([(name, size) for name in trees], repeats, synth_eval)
        stats = benchlib.summarise({s: [r[0] for r in done] for s, done in runs.items()},
                                   memory=True)
        for (name, _), done in runs.items():
            _, ingest, score = zip(*done)
            rows.append({"size": size, "tree": name, "runs": repeats,
                         "argv": ["synth-eval", *SIZES[size]], **stats[name, size],
                         "support_ingest_s": statistics.median(ingest),
                         "score_s": statistics.median(score), "per_word_sha256": sha})
    return rows


def describe(row):
    return (f"{row['size']} {row['tree']}: {row['peak_rss_mb']:.1f} MB peak RSS "
            f"({row['peak_rss_mb_min']:.1f}-{row['peak_rss_mb_max']:.1f}), "
            f"{row['minor_faults']:.0f} minor faults, "
            f"{row['median_s']:.3f} s (q1 {row['q1_s']:.3f}, q3 {row['q3_s']:.3f}), "
            f"support_ingest_s {row['support_ingest_s']:.3f}, score_s {row['score_s']:.3f}")


if __name__ == "__main__":
    benchlib.measure(__doc__, "scripts/bench_eval_memory.py", "BENCH_eval_memory.json", 3,
                     bench, describe)
