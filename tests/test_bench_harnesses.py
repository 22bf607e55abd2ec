"""The harnesses behind the committed ``BENCH_*.json`` rows
(``scripts/bench_workers.py``, ``scripts/bench_class_scores.py``,
``scripts/bench_eval_memory.py``, ``scripts/bench_train_memory.py``) reach
into the package by name and by CLI flag. A refactor that drops one fails
the harness only when someone reruns it, so each is checked here, without
timing anything."""

import importlib.util
from pathlib import Path

import pytest

from bayescl.cli import build_parser

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # fails if a name it imports is gone
    return module


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
    assert callable(bench_workers._numpy_build)  # protocol._numpy_build
    assert callable(bench_workers.corpus.write_corpus)
    assert len(bench_workers.BLAS_VARS) == 5  # pool.BLAS_VARS


def test_bench_class_scores_reaches_existing_names(bench_class_scores):
    H = bench_class_scores.H
    assert "_THREADS" in vars(H)  # the thread count it sets per setting
    assert callable(H.scoring_threads) and callable(H.class_scores)
    assert callable(bench_class_scores._numpy_build)


def test_bench_workers_flags_parse(bench_workers):
    parser = build_parser()
    parser.parse_args([*bench_workers.TRAIN, "--out", "m.ckpt"])
    parser.parse_args(["synth-eval", "--ckpt", "m.ckpt", "--out", "r", "--workers", "2",
                       *bench_workers.PROTOCOL])
    parser.parse_args(["prepare", "--manifest", "m.jsonl", "--audio-root", "w",
                       "--features-dir", "f", "--workers", "2"])


def test_bench_eval_memory_reaches_existing_names(bench_eval_memory):
    assert callable(bench_eval_memory._numpy_build)
    assert len(bench_eval_memory.BLAS_VARS) == 5


def test_bench_eval_memory_flags_parse(bench_eval_memory):
    parser = build_parser()
    parser.parse_args([*bench_eval_memory.TRAIN, "--out", "m.ckpt"])
    for argv in bench_eval_memory.SIZES.values():
        parser.parse_args(["synth-eval", "--ckpt", "m.ckpt", "--out", "r", *argv])


def test_bench_train_memory_reaches_existing_names(bench_train_memory):
    assert callable(bench_train_memory._numpy_build)
    assert len(bench_train_memory.BLAS_VARS) == 5


def test_bench_train_memory_flags_parse(bench_train_memory):
    parser = build_parser()
    for steps, argv in bench_train_memory.SIZES.values():
        for n in (steps, 1):  # each run and its one-step twin
            args = parser.parse_args([*argv, "--steps", str(n), "--out", "m.ckpt"])
            assert args.batch_episodes == bench_train_memory.BATCH_EPISODES
