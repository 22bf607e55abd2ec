"""Time ``prepare`` and the criterion-8 ``synth-eval`` at one and two workers.

    PYTHONPATH=src python scripts/bench_workers.py [--tree NAME=DIR ...] [--repeats N]
        [--out BENCH_workers.json]

Each timed run is one command of one tree in a fresh interpreter;
``scripts/benchlib.py`` says how the trees, the warm-up, the alternating
repeats and the paired statistic work.

Set-up, untimed: a seeded 2,400-clip corpus (``perfbench/corpus.py``, 40
words, 30 clips per split, the audio-pipeline workload's clip settings)
and one ``synth-train`` checkpoint of the criterion-7 model, written by the
first tree. Then each command runs at each (tree, BLAS, workers) setting.
BLAS is either pinned to one thread per process, as perfbench pins it, or
left at OpenBLAS's default of one thread per core, as a user runs it.
Where ``pool.spawn_map`` starts its workers with one BLAS thread
(``pool.BLAS_VARS``), the default reaches only the parent process; where
it does not, two workers at the default put two BLAS threads per worker on
each core. ``prepare`` starts from an empty features directory every run.
``synth-eval`` runs the criterion-8 protocol: 200 test classes, increment
25, 5+5 shots, 10 episodes.

Each row gives benchlib's wall statistics and the sha256 of the outputs
(every file ``prepare`` writes, with the dump paths in its
``features.jsonl`` taken relative to the features directory;
``synth-eval``'s three CSVs), which must agree across every setting.
"""

import hashlib
import shutil
import sys

import benchlib

sys.path.insert(0, str(benchlib.REPO))

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


def digest(root, names):
    """sha256 of the files ``names`` under ``root``, with the text
    ``root/`` cut wherever a file holds it, so the digest does not depend on
    where ``root`` is."""
    h = hashlib.sha256()
    prefix = f"{root}/".encode()
    for name in names:
        h.update(name.encode() + b"\0" + (root / name).read_bytes().replace(prefix, b""))
    return h.hexdigest()


def features_digest(features):
    """The ``digest`` of every file ``prepare`` wrote under ``features``."""
    return digest(features, sorted(p.relative_to(features).as_posix()
                                   for p in features.rglob("*") if p.is_file()))


def bench(trees, repeats, work):
    wav = work / "wav"
    manifest = corpus.write_corpus(wav, seed=0, n_words=WORDS, clips_per_split=CLIPS_PER_SPLIT,
                                   noise_std=1.0, jitter=0.05, min_len=8000, max_len=16000)
    ckpt = work / "model.ckpt"
    benchlib.run_cli(next(iter(trees.values())), [*TRAIN, "--out", str(ckpt)])
    features, report = work / "features", work / "report"

    def prepare(setting):
        name, _, blas, workers = setting
        shutil.rmtree(features, ignore_errors=True)
        run = benchlib.run_cli(trees[name], ["prepare", "--manifest", str(manifest),
                                             "--audio-root", str(wav),
                                             "--features-dir", str(features),
                                             "--workers", str(workers)], blas)
        return run, features_digest(features)

    def synth_eval(setting):
        name, _, blas, workers = setting
        shutil.rmtree(report, ignore_errors=True)
        run = benchlib.run_cli(trees[name], ["synth-eval", "--ckpt", str(ckpt), "--out",
                                             str(report), "--workers", str(workers),
                                             *PROTOCOL], blas)
        return run, digest(report, REPORT_FILES)

    rows = []
    for command, run in (("prepare", prepare), ("synth-eval", synth_eval)):
        settings = [(name, command, blas, w)
                    for name in trees for blas in ("1", "default") for w in WORKERS]
        runs, sha = benchlib.alternate(settings, repeats, run)
        stats = benchlib.summarise(runs, memory=False)
        for name, _, blas, w in settings:
            row = {"command": command, "tree": name, "blas_threads": blas, "workers": w,
                   "runs": repeats, **stats[name, command, blas, w], "sha256": sha}
            if command == "prepare":
                clips = 2 * WORDS * CLIPS_PER_SPLIT
                row.update(clips=clips, clips_per_s=clips / row["median_s"])
            rows.append(row)
    return rows


def describe(row):
    rate = f", {row['clips_per_s']:.0f} clips/s" if "clips_per_s" in row else ""
    return (f"{row['command']} {row['tree']} blas={row['blas_threads']} "
            f"workers={row['workers']}: "
            f"{row['median_s']:.3f} s (q1 {row['q1_s']:.3f}, q3 {row['q3_s']:.3f}){rate}")


if __name__ == "__main__":
    benchlib.measure(__doc__, "scripts/bench_workers.py", "BENCH_workers.json", 5,
                     bench, describe)
