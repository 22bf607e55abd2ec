"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload synth-train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` half of the time runs untraced and half traced, and the
metrics are the per-layer ones plus the tracing overhead. The line before
it is a report with the environment and each workload's named results.
Scratch files go under ``.perfbench/`` in the checkout; the span trace of
a traced run is left there as ``trace-<workload>-<seed>.json``.
"""

import os

# one caller, one BLAS thread: the matrices are small, and extra threads
# only add run-to-run noise on a shared two-core machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up repeats at least this often, and until this much time has passed
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
# setup_s is scaled to a host on which workloads.reference_loop takes this
# long, about its median on the 2-core host the bounds were set on
REFERENCE_NOMINAL_S = 0.08

END_TO_END_UNITS = {"setup_s": "s", "op_wall_ratio": "ratio", "accuracy_pct": "%",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke tests")
    return p.parse_args(argv)


def import_program():
    """Import ``bayescl`` from this checkout's ``src/``; None if it is absent."""
    if not (SRC / "bayescl" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import bayescl

    if Path(bayescl.__file__).resolve().parent != SRC / "bayescl":
        return None
    return bayescl


def environment():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "loop": "closed, one caller", "workers": 1}


def tail_percentile(walls):
    """The highest whole percentile with at least ten samples above it."""
    if len(walls) < 20:
        return {}
    q = int(100 * (1 - 10 / len(walls)))
    return {f"p{q}": statistics.quantiles(walls, n=100)[q - 1]}


def run(args):
    import workloads
    from tracer import METRIC_UNITS, Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup_walls, setup_refs = [], []
        while True:
            setup_dir = work / f"setup{len(setup_walls)}"
            setup_dir.mkdir()
            setup_refs.append(workloads.reference_loop())
            t0 = time.perf_counter()
            workload.setup(setup_dir)
            setup_walls.append(time.perf_counter() - t0)
            if len(setup_walls) >= SETUP_MAX_REPEATS or (
                    len(setup_walls) >= SETUP_REPEATS and sum(setup_walls) >= SETUP_SECONDS):
                break
            shutil.rmtree(setup_dir)

        problems = []
        if args.trace:
            untraced, refs = workloads.measure(workload, args.seconds / 2, work)
            tracer = Tracer().install()
            try:
                traced, _ = workloads.measure(workload, args.seconds / 2, work, tracer)
            finally:
                tracer.uninstall()
            ops = untraced + traced
            missing = tracer.missing_spans(args.workload)
            if missing:
                problems.append(f"spans never fired: {missing}")
            n = min(workload.period, len(traced), len(untraced))
            if [op.outcome for op in traced[:n]] != [op.outcome for op in untraced[:n]]:
                problems.append("the traced run gave a different result")
            tracer.write(scratch / f"trace-{args.workload}-{args.seed}.json")
        else:
            ops, refs = workloads.measure(workload, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a traced run reports its untraced operations' times; tracing slows the rest
    timed = untraced if args.trace else ops
    ok_walls = [op.wall_s for op in timed if not op.problems] or [op.wall_s for op in timed]
    wall = statistics.median(ok_walls)
    ref = statistics.median(refs)
    attempted = sum(op.units for op in ops)
    failed = sum(op.units for op in ops if op.problems)
    problems += [p for op in ops for p in op.problems]
    if not failed:
        problems += workload.check_cycle(timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "workload": args.workload, "seed": args.seed, "environment": environment(),
        "operations": len(ops), "work_unit": workload.unit,
        "op_wall_s": {"median": wall, "min": min(ok_walls), "max": max(ok_walls),
                      "samples": len(ok_walls), **tail_percentile(ok_walls)},
        "reference_s": {"median": ref, "min": min(refs), "max": max(refs),
                        "samples": len(refs)},
        "setup_s": setup_walls, "setup_reference_s": setup_refs,
        "error_rate": failed / attempted, "problems": problems,
    }
    if not failed:
        report.update(workload.report(timed, wall))
    if args.trace:
        # prepare's own log gives these; only audio-pipeline runs prepare
        extra = {f"cli.prepare.{k}": statistics.mean(op.facts.get(k, 0) for op in traced)
                 for k in ("extracted", "cached")}
        values = tracer.metrics(len(traced), [o.wall_s for o in untraced],
                                [o.wall_s for o in traced], extra)
        report["traced_into"] = dict(tracer.installed)
        units = METRIC_UNITS
    else:
        setup_s = (statistics.median(setup_walls) * REFERENCE_NOMINAL_S
                   / statistics.median(setup_refs))
        values = {"setup_s": setup_s, "op_wall_ratio": wall / ref,
                  "accuracy_pct": 0.0 if failed else workloads.accuracy(workload, ops),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    print(json.dumps({"report": report}, sort_keys=True))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if import_program() is None:
        print(f"error: no bayescl package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
