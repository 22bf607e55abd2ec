"""The harness the ``BENCH_*.json`` scripts share: their command line, their
fresh-process runs, the order those runs take, the row statistics and the
result file.

Every measured run is the CLI of one source tree (``python -m bayescl.cli``
with ``PYTHONPATH=DIR/src``) in a fresh interpreter (``run_cli``), so its
wall time includes interpreter start-up and imports, and its peak RSS
(``ru_maxrss``) and minor page faults (``ru_minflt``) are that one process's,
read from ``os.wait4``. Give ``--tree NAME=DIR`` twice, say a checkout of
the parent commit and the working tree, to measure both with the same
harness; without it the tree this script sits in runs alone.

A setting is a tuple of a tree's name and what else a script varies (a
size, a command, BLAS threads, workers). ``alternate`` runs each setting
once to warm the file cache, then ``--repeats`` times measured: the
settings alternate run by run and their order reverses every repeat, so
drift on the host reaches them alike. The digest of every run's outputs
must agree, or the bench stops.

Each row gives the median and quartiles of its wall times (``median_s``,
``q1_s``, ``q3_s``) and, where the script reports memory, the median,
minimum and maximum peak RSS and the median minor faults.

The paired statistic: a row of any tree after the first also gives
``paired_with``, the first tree's name, and compares each of its repeats
with the same repeat of the first tree's row of the same setting, which ran
next to it. ``paired_diff_s`` is the median over repeats of (this wall -
that wall), and ``paired_lower_s`` the number of repeats in which this wall
was lower; ties count for neither. Where the row reports memory,
``paired_diff_rss_mb`` and ``paired_lower_rss`` do the same for peak RSS.
"Lower in 9 of 10 pairs" is ``paired_lower_s >= 9`` at ``--repeats 10``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from bayescl.pool import BLAS_VARS
from bayescl.protocol import _numpy_build

REPO = Path(__file__).resolve().parent.parent


class Run(NamedTuple):
    wall: float  # s
    rss: float  # peak RSS, MB
    faults: int  # minor page faults


def run_cli(tree, argv, blas="1"):
    """The ``Run`` of one CLI run of ``tree`` with ``blas`` BLAS threads per
    process (``"default"``: OpenBLAS's own, one per core); a failing run
    stops the bench."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update({k: blas for k in BLAS_VARS if blas != "default"}, PYTHONPATH=f"{tree}/src")
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
    return Run(wall, usage.ru_maxrss / 1024.0, usage.ru_minflt)  # ru_maxrss: KB on Linux


def arguments(doc, out, repeats=None, argv=None):
    """The parsed command line of a ``BENCH_*.json`` script: ``--out``
    (default ``out``) and, given a default ``repeats``, ``--repeats`` and
    ``--tree NAME=DIR``, whose trees become ``args.trees`` (name -> dir, in
    the order given)."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--out", default=out)
    if repeats is None:
        return parser.parse_args(argv)
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=DIR",
                        help="a source tree to measure (repeatable; default: this one)")
    parser.add_argument("--repeats", type=int, default=repeats,
                        help="measured runs per setting")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be >= 2 for quartiles")
    args.trees = {}
    for entry in args.tree:
        name, sep, path = entry.partition("=")
        if not (name and sep and path):
            parser.error(f"--tree {entry!r} is not NAME=DIR")
        if name in args.trees:
            parser.error(f"--tree {entry!r}: the name {name!r} is given twice")
        args.trees[name] = path
    args.trees = args.trees or {"tree": str(REPO)}
    return args


def alternate(settings, repeats, run):
    """Run each of ``settings`` once to warm the file cache, then ``repeats``
    times in turn, in reverse order on odd repeats. ``run(setting)`` returns
    (result, digest). Returns ({setting: [result per repeat]}, the digest),
    and stops the bench unless every run gave that digest."""
    digests = {s: {run(s)[1]} for s in settings}
    results = {s: [] for s in settings}
    for r in range(repeats):
        for s in settings[::-1] if r % 2 else settings:
            result, digest = run(s)
            results[s].append(result)
            digests[s].add(digest)
    if len(set().union(*digests.values())) != 1:
        raise SystemExit(f"outputs differ between runs: {digests}")
    return results, digests[settings[0]].pop()


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    return tuple(statistics.quantiles(values, n=4))


def paired(these, firsts):
    """(median of these[r] - firsts[r], the count of r with these[r] < firsts[r])."""
    return (statistics.median(a - b for a, b in zip(these, firsts)),
            sum(a < b for a, b in zip(these, firsts)))


def summarise(runs, memory):
    """{setting: its row statistics} (module docstring) of ``runs``
    ({setting: [Run per repeat]}, as ``alternate`` orders them); with
    ``memory`` false the rows leave out peak RSS and faults."""
    first = next(iter(runs))[0]
    stats = {}
    for setting, done in runs.items():
        walls, rss = [r.wall for r in done], [r.rss for r in done]
        q1, med, q3 = quartiles(walls)
        row = {"median_s": med, "q1_s": q1, "q3_s": q3}
        if memory:
            row.update(peak_rss_mb=statistics.median(rss), peak_rss_mb_min=min(rss),
                       peak_rss_mb_max=max(rss),
                       minor_faults=statistics.median(r.faults for r in done))
        if setting[0] != first:
            base = runs[(first, *setting[1:])]
            row["paired_with"] = first
            row["paired_diff_s"], row["paired_lower_s"] = paired(walls, [r.wall for r in base])
            if memory:
                row["paired_diff_rss_mb"], row["paired_lower_rss"] = paired(
                    rss, [r.rss for r in base])
        stats[setting] = row
    return stats


def write_result(harness, rows, out):
    """Write ``rows`` to ``out`` as JSON, with the harness and the machine."""
    result = {
        "harness": harness,
        "machine": {
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": _numpy_build(),  # as a protocol run's summary.json records it
        },
        "rows": rows,
    }
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


def measure(doc, harness, out, repeats, bench, describe):
    """The ``main`` of a fresh-process script: parse its command line, take
    its rows with ``bench(trees, repeats, work)`` in a temporary directory,
    print each as ``describe(row)`` and its paired statistic, and write
    them."""
    args = arguments(doc, out, repeats)
    with tempfile.TemporaryDirectory(prefix=f"{Path(harness).stem}_") as work:
        rows = bench(args.trees, args.repeats, Path(work))
    for row in rows:
        line = describe(row)
        if "paired_with" in row:
            line += (f"; vs {row['paired_with']} {row['paired_diff_s']:+.3f} s, "
                     f"lower in {row['paired_lower_s']} of {row['runs']}")
        if "paired_diff_rss_mb" in row:
            line += (f", {row['paired_diff_rss_mb']:+.2f} MB, "
                     f"lower in {row['paired_lower_rss']} of {row['runs']}")
        print(line)
    write_result(harness, rows, args.out)
