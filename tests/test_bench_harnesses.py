"""The harnesses behind the committed ``BENCH_*.json`` rows
(``scripts/bench_workers.py``, ``scripts/bench_class_scores.py``,
``scripts/bench_eval_memory.py``, ``scripts/bench_train_memory.py``, and
``scripts/benchlib.py``, which they share) reach into the package by name
and by CLI flag. A refactor that drops one fails the harness only when
someone reruns it, so each is checked here, without timing anything, and
so is benchlib's own logic, with a fake run in place of a subprocess."""

import importlib.util
import sys
from pathlib import Path

import pytest

from bayescl.cli import build_parser, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    if str(SCRIPTS) not in sys.path:
        sys.path.insert(0, str(SCRIPTS))  # the scripts import benchlib from their directory
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # fails if a name it imports is gone
    return module


@pytest.fixture(scope="module")
def benchlib():
    return load_script("benchlib")


@pytest.fixture(scope="module")
def bench_workers():
    return load_script("bench_workers")


@pytest.fixture(scope="module")
def bench_class_scores():
    return load_script("bench_class_scores")


@pytest.fixture(scope="module")
def bench_eval_memory():
    return load_script("bench_eval_memory")


@pytest.fixture(scope="module")
def bench_train_memory():
    return load_script("bench_train_memory")


def test_bench_workers_reaches_existing_names(bench_workers):
    assert callable(bench_workers.benchlib._numpy_build)  # protocol._numpy_build
    assert callable(bench_workers.corpus.write_corpus)
    assert len(bench_workers.benchlib.BLAS_VARS) == 5  # pool.BLAS_VARS


def test_bench_class_scores_reaches_existing_names(bench_class_scores):
    H = bench_class_scores.H
    assert "_THREADS" in vars(H)  # the thread count it sets per setting
    assert callable(H.scoring_threads) and callable(H.class_scores)
    assert callable(bench_class_scores.benchlib._numpy_build)


def test_bench_workers_flags_parse(bench_workers):
    build_parser().parse_args(["prepare", "--manifest", "m.jsonl", "--audio-root", "w",
                               "--features-dir", "f", "--workers", "2"])


def test_bench_eval_memory_reaches_existing_names(bench_eval_memory):
    assert callable(bench_eval_memory.benchlib._numpy_build)
    assert len(bench_eval_memory.benchlib.BLAS_VARS) == 5


def test_bench_eval_memory_flags_parse(bench_eval_memory):
    parser = build_parser()
    parser.parse_args([*bench_eval_memory.TRAIN, "--out", "m.ckpt"])
    for argv in bench_eval_memory.SIZES.values():
        parser.parse_args(["synth-eval", "--ckpt", "m.ckpt", "--out", "r", *argv])


def test_bench_train_memory_reaches_existing_names(bench_train_memory):
    assert callable(bench_train_memory.benchlib._numpy_build)
    assert len(bench_train_memory.benchlib.BLAS_VARS) == 5


def test_bench_train_memory_flags_parse(bench_train_memory):
    parser = build_parser()
    for steps, argv in bench_train_memory.SIZES.values():
        for n in (steps, 1):  # each run and its one-step twin
            args = parser.parse_args([*argv, "--steps", str(n), "--out", "m.ckpt"])
            assert args.batch_episodes == bench_train_memory.BATCH_EPISODES


def test_prepare_digest_does_not_depend_on_the_features_dir(bench_workers, tmp_path):
    # features.jsonl holds absolute dump paths, so its bytes differ between
    # two features directories; the digest the rows carry must not
    wav = tmp_path / "wav"
    manifest = bench_workers.corpus.write_corpus(wav, seed=0, n_words=2, clips_per_split=2,
                                                 noise_std=1.0, jitter=0.05, min_len=800,
                                                 max_len=1200)
    digests, manifests = [], []
    for name in ("features", "elsewhere_x7q"):
        features = tmp_path / name
        assert main(["prepare", "--manifest", str(manifest), "--audio-root", str(wav),
                         "--features-dir", str(features), "--shots", "1",
                         "--query-shots", "1"]) == 0
        digests.append(bench_workers.features_digest(features))
        manifests.append((features / "features.jsonl").read_bytes())
    assert manifests[0] != manifests[1]
    assert digests[0] == digests[1]


class TestAlternate:
    def test_warms_each_setting_once_then_reverses_odd_repeats(self, benchlib):
        calls = []

        def run(setting):
            calls.append(setting)
            return len(calls), "sha"

        results, sha = benchlib.alternate(["a", "b", "c"], 3, run)
        assert calls == [*"abc", *"abc", *"cba", *"abc"]
        assert results == {"a": [4, 9, 10], "b": [5, 8, 11], "c": [6, 7, 12]}
        assert sha == "sha"

    @pytest.mark.parametrize("odd", [0, 3, 7], ids=["warm-up", "first-repeat", "last-repeat"])
    def test_a_digest_mismatch_stops_the_bench(self, benchlib, odd):
        calls = []

        def run(setting):
            calls.append(setting)
            return None, "other" if len(calls) - 1 == odd else "sha"

        with pytest.raises(SystemExit, match="outputs differ between runs"):
            benchlib.alternate(["a", "b"], 3, run)
        assert len(calls) == 8  # every run, then the check


class TestSummarise:
    def runs(self, benchlib):
        R = benchlib.Run
        return {
            ("parent", "small"): [R(1.0, 50.0, 10), R(2.0, 50.0, 20), R(3.0, 52.0, 30),
                                  R(4.0, 49.0, 40)],
            ("parent", "large"): [R(9.0, 90.0, 0)] * 4,
            ("change", "small"): [R(0.9, 50.0, 1), R(2.5, 48.0, 2), R(2.5, 51.0, 3),
                                  R(3.0, 49.0, 4)],
            ("change", "large"): [R(8.0, 91.0, 0)] * 3 + [R(10.0, 91.0, 0)],
        }

    def test_rows_after_the_first_tree_pair_with_its_row_of_the_same_setting(self, benchlib):
        stats = benchlib.summarise(self.runs(benchlib), memory=True)
        assert not any(k.startswith("paired") for k in stats["parent", "small"])
        small = stats["change", "small"]
        # wall differences -0.1, +0.5, -0.5, -1.0; peak RSS 0, -2, -1, 0 (ties count for neither)
        assert small["paired_with"] == "parent"
        assert small["paired_diff_s"] == pytest.approx(-0.3)
        assert small["paired_lower_s"] == 3
        assert (small["paired_diff_rss_mb"], small["paired_lower_rss"]) == (-0.5, 2)
        large = stats["change", "large"]
        assert (large["paired_diff_s"], large["paired_lower_s"]) == (-1.0, 3)
        assert (large["paired_diff_rss_mb"], large["paired_lower_rss"]) == (1.0, 0)
        assert small["median_s"] == 2.5 and small["peak_rss_mb"] == 49.5
        assert (small["peak_rss_mb_min"], small["peak_rss_mb_max"]) == (48.0, 51.0)
        assert small["minor_faults"] == 2.5

    def test_without_memory_the_rows_give_walls_alone(self, benchlib):
        stats = benchlib.summarise(self.runs(benchlib), memory=False)
        assert set(stats["parent", "small"]) == {"median_s", "q1_s", "q3_s"}
        assert set(stats["change", "small"]) == {"median_s", "q1_s", "q3_s", "paired_with",
                                                 "paired_diff_s", "paired_lower_s"}


class TestArguments:
    def test_trees_keep_their_order_and_default_to_this_tree(self, benchlib):
        args = benchlib.arguments("doc", "out.json", 3, ["--tree", "b=/x", "--tree", "a=/y=z"])
        assert list(args.trees.items()) == [("b", "/x"), ("a", "/y=z")]
        args = benchlib.arguments("doc", "out.json", 3, [])
        assert args.trees == {"tree": str(benchlib.REPO)} and args.repeats == 3

    @pytest.mark.parametrize("argv, message", [
        (["--tree", "a=X", "--tree", "a=Y"], "--tree 'a=Y': the name 'a' is given twice"),
        (["--tree", "parent"], "--tree 'parent' is not NAME=DIR"),
        (["--tree", "=X"], "--tree '=X' is not NAME=DIR"),
        (["--repeats", "1"], "--repeats must be >= 2"),
    ], ids=["duplicate-name", "no-dir", "no-name", "one-repeat"])
    def test_a_bad_entry_is_a_usage_error_that_names_it(self, benchlib, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            benchlib.arguments("doc", "out.json", 3, argv)
        assert err.value.code == 2 and message in capsys.readouterr().err
