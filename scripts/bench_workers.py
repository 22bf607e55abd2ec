"""Time ``prepare`` at one and two workers.

    PYTHONPATH=src python scripts/bench_workers.py [--tree NAME=DIR ...] [--repeats N]
        [--out BENCH_workers.json]

Each timed run is one command of one tree in a fresh interpreter;
``scripts/benchlib.py`` says how the trees, the warm-up, the alternating
repeats and the paired statistic work.

Set-up, untimed: a seeded 2,400-clip corpus (``perfbench/corpus.py``, 40
words, 30 clips per split, the audio-pipeline workload's clip settings).
Then ``prepare`` runs at each (tree, BLAS, workers) setting. BLAS is
either pinned to one thread per process, as perfbench pins it, or left at
OpenBLAS's default of one thread per core, as a user runs it.
Where ``pool.spawn_map`` starts its workers with one BLAS thread
(``pool.BLAS_VARS``), the default reaches only the parent process; where
it does not, two workers at the default put two BLAS threads per worker on
each core. ``prepare`` starts from an empty features directory every run.

Each row gives benchlib's wall statistics and the sha256 of every file
``prepare`` writes, with the dump paths in its ``features.jsonl`` taken
relative to the features directory, which must agree across every setting.
"""

import hashlib
import shutil
import sys

import benchlib

sys.path.insert(0, str(benchlib.REPO))

from perfbench import corpus  # noqa: E402

WORKERS = (1, 2)
WORDS, CLIPS_PER_SPLIT = 40, 30


def features_digest(features):
    """sha256 of every file ``prepare`` wrote under ``features``, by relative
    path, with the text ``features/`` cut wherever a file holds it, so the
    digest does not depend on where ``features`` is."""
    h = hashlib.sha256()
    prefix = f"{features}/".encode()
    for name in sorted(p.relative_to(features).as_posix()
                       for p in features.rglob("*") if p.is_file()):
        h.update(name.encode() + b"\0" + (features / name).read_bytes().replace(prefix, b""))
    return h.hexdigest()


def bench(trees, repeats, work):
    wav = work / "wav"
    manifest = corpus.write_corpus(wav, seed=0, n_words=WORDS, clips_per_split=CLIPS_PER_SPLIT,
                                   noise_std=1.0, jitter=0.05, min_len=8000, max_len=16000)
    features = work / "features"

    def prepare(setting):
        name, blas, workers = setting
        shutil.rmtree(features, ignore_errors=True)
        run = benchlib.run_cli(trees[name], ["prepare", "--manifest", str(manifest),
                                             "--audio-root", str(wav),
                                             "--features-dir", str(features),
                                             "--workers", str(workers)], blas)
        return run, features_digest(features)

    settings = [(name, blas, w) for name in trees for blas in ("1", "default") for w in WORKERS]
    runs, sha = benchlib.alternate(settings, repeats, prepare)
    stats = benchlib.summarise(runs, memory=False)
    clips = 2 * WORDS * CLIPS_PER_SPLIT
    rows = []
    for setting in settings:
        name, blas, w = setting
        row = {"command": "prepare", "tree": name, "blas_threads": blas, "workers": w,
               "runs": repeats, **stats[setting], "sha256": sha}
        rows.append(dict(row, clips=clips, clips_per_s=clips / row["median_s"]))
    return rows


def describe(row):
    return (f"prepare {row['tree']} blas={row['blas_threads']} workers={row['workers']}: "
            f"{row['median_s']:.3f} s (q1 {row['q1_s']:.3f}, q3 {row['q3_s']:.3f}), "
            f"{row['clips_per_s']:.0f} clips/s")


if __name__ == "__main__":
    benchlib.measure(__doc__, "scripts/bench_workers.py", "BENCH_workers.json", 5,
                     bench, describe)
