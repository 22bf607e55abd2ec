"""The statements of ``src/bayescl`` that no benchmark workload runs.

    PYTHONPATH=src python scripts/program_paths.py

Runs the set-up and one operation of each of perfbench's workloads
(``perfbench/workloads.py``) in this process, at full size with seed 1,
in a temporary directory, under ``sys.settrace`` and ``threading.settrace``
(so the scoring pool's threads count too). Then prints, for each module of
``src/bayescl``, how many statements of its function bodies ran in none of
them, and lists those that are not ``raise`` statements. Each of those is
a feature with another caller (a test, a command or option no workload
uses) or a second path that nothing needs. Module and class bodies run on
import and are not counted, nor are docstrings. The script reads
``perfbench/`` and writes nothing there. CI appends its output to the job
summary.
"""

import ast
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "bayescl"
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
SEED = 1


def _children(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _children(child)


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source):
    """The statements of the function bodies in ``source``, docstrings aside:
    a list of (node, own lines, nested statements). A simple statement owns
    all its lines; a compound one its header, from its first decorator to
    the line before its first nested statement."""
    found = []

    def visit(node, in_function):
        kids = list(_children(node))
        counted = in_function and not (isinstance(node, ast.stmt) and _is_docstring(node))
        entry = None
        if counted and isinstance(node, ast.stmt):
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            end = max(node.lineno, kids[0].lineno - 1) if kids else node.end_lineno
            entry = (node, set(range(start, end + 1)), [])
            found.append(entry)
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        nested = [visit(kid, inner) for kid in kids]
        if entry is not None:
            entry[2].extend(n for n in nested if n is not None)
        return entry

    visit(ast.parse(source), False)
    return found


def run_workloads(tiny=False):
    """Each workload's set-up and one operation, at seed 1, in a temporary
    directory; a failed operation stops the script."""
    # imported here, so that a first import runs under the trace and the
    # package's import-time calls (``cli._fields``) count
    from workloads import WORKLOADS, Op

    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in WORKLOADS.items():
            workload, work = cls(SEED, tiny=tiny), Path(tmp) / name
            (work / "setup").mkdir(parents=True)
            (work / "op").mkdir()
            workload.setup(work / "setup")
            op = Op()
            workload.operation(op, work / "op")
            if op.problems:
                raise SystemExit(f"{name}: {op.problems}")


def trace(tiny=False):
    """{module path: lines} that ``run_workloads`` ran in ``src/bayescl``."""
    hits, inside = {}, {}

    def line(frame, event, arg):
        if event == "line":
            hits.setdefault(inside[frame.f_code.co_filename], set()).add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = path if path.parent == PACKAGE else None
        return line if inside[name] else None

    saved = sys.gettrace(), threading.gettrace()
    sys.settrace(call)
    threading.settrace(call)
    try:
        run_workloads(tiny)
    finally:
        sys.settrace(saved[0])
        threading.settrace(saved[1])
    return hits


def missed(source, ran):
    """How many statements ``statements(source)`` finds, and those of them
    that neither own a line in the set ``ran`` nor hold a statement that
    does (a ``try`` header, say, has no line of its own to run)."""
    found, memo = statements(source), {}

    def reached(entry):
        if id(entry[0]) not in memo:
            memo[id(entry[0])] = bool(entry[1] & ran) or any(map(reached, entry[2]))
        return memo[id(entry[0])]

    return len(found), [entry[0] for entry in found if not reached(entry)]


def report(hits):
    """The lines to print: a total, then per module its count of statements
    no workload ran and each of them that is not a ``raise``."""
    rows, counts = [], [0, 0, 0]  # statements, not run, raise among those
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        total, nodes = missed(source, hits.get(path, set()))
        raises = sum(isinstance(node, ast.Raise) for node in nodes)
        counts = [counts[0] + total, counts[1] + len(nodes), counts[2] + raises]
        rows.append(f"{path.name}: {len(nodes)} of {total} not run, {raises} of them raise")
        text = source.splitlines()
        rows += [f"  {node.lineno:4d}  {text[node.lineno - 1].strip()}"
                 for node in nodes if not isinstance(node, ast.Raise)]
    total = (f"src/bayescl function-body statements no perfbench workload ran (set-up and "
             f"one operation each, seed {SEED}): {counts[1]} of {counts[0]}, "
             f"{counts[2]} of them raise")
    return [total, *rows]


def main():
    print("\n".join(report(trace())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
