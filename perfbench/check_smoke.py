"""Smoke test of the benchmark: each workload at its tiniest size.

    python3 -m pytest perfbench/check_smoke.py

Each workload runs untraced and traced with ``--tiny``. The result line
must carry exactly the metrics and units that ``BENCHMARK.json`` lists,
and the report line the named results of that workload. The file name
keeps it out of the package test suite, which collects ``test_*.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED_RESULTS = {
    "synth-train": {"train_steps_per_s": "steps/s", "heldout_acc": "fraction"},
    "synth-protocol": {"protocol_wall_s": "s", "protocol_acc_final_pct": "%"},
    "audio-pipeline": {
        "prepare_clips_per_s": "clips/s", "train_steps_per_s": "steps/s",
        "heldout_acc": "fraction", "protocol_wall_s": "s", "protocol_acc_final_pct": "%",
        "prepare_extracted": "clips", "prepare_cached": "clips",
    },
}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())

    assert report["environment"]["blas_threads"] >= 1
    assert report["error_rate"] == 0.0
    for name, unit in NAMED_RESULTS[workload].items():
        assert report[name]["unit"] == unit
    if trace:
        # protocol imports class_scores by name; its copy must be traced too
        assert "bayescl.protocol" in report["traced_into"]["head.class_scores"]
        assert "bayescl.training" in report["traced_into"]["episodes.resolve_sample"]


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = _run(bare, "--workload", "synth-train", "--seed", "1", "--seconds", "1")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
