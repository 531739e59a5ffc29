"""The statements of ``src/nvk`` that a run never executes.

    python3 tools/line_coverage.py ROOT [-- PYTEST_ARGS ...]
    python3 tools/line_coverage.py ROOT --bench SEED N

``ROOT`` is a source tree of the package (``src/nvk``, ``tests`` and
``perfbench`` beneath it).  Without ``--bench`` the script runs pytest in
this process, on ``ROOT/tests -q -m "not slow"`` or on PYTEST_ARGS, whose
paths are relative to the current directory; with ``--bench SEED N`` it
runs the first N ops of each benchmark workload at SEED, as
``tools/op_digest.py`` does.  A ``sys.settrace`` hook
records the lines run in the files under ``ROOT/src/nvk``, and the script
prints, per module, each statement none of whose lines ran: its line
number and its first line.  A statement counts from its first line to the
line before its body, so an ``if`` that ran counts as run even when its body
never did.  Docstrings do not count.  Code that runs only in a subprocess
(``python -m nvk.cli`` from a test, ``verify --jobs``) is not traced and
reads as never run.

CPython drops a trace hook when the stack runs out inside it, so the hook
is set again before each test; a test that exhausts the stack loses only
its own remaining lines.

The script writes nothing into ROOT: no bytecode, no pytest cache, and
hypothesis keeps its example database in a temporary directory.  Tracing
about doubles the run time.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
from pathlib import Path

import pytest


def statements(source: str) -> dict[int, range]:
    """First line -> the lines of each statement of ``source`` that is not a
    docstring; a compound statement spans its header only."""
    tree = ast.parse(source)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    spans = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and node not in docstrings
                and not isinstance(node, (ast.Global, ast.Nonlocal))):
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            spans.setdefault(node.lineno, range(node.lineno, max(end, node.lineno) + 1))
    return dict(sorted(spans.items()))


class LineTracer:
    """Records ``(filename, line)`` for every line run in a file under
    ``prefix``; other frames are not traced line by line."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.lines: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(self.prefix) else None

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)


class Rearm:
    """A pytest plugin that sets ``tracer``'s hook again before each test,
    in case an earlier test's call unset it."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(self.tracer._global)


def report(package: Path, lines: set[tuple[str, int]]) -> int:
    """Print the statements never run, per module; return their count."""
    missed_total = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        ran = {line for name, line in lines if name == str(path)}
        spans = statements(source)
        missed = [line for line, span in spans.items() if ran.isdisjoint(span)]
        missed_total += len(missed)
        print(f"{path.name:20s} {len(missed):4d} of {len(spans):4d} statements never run")
        text = source.splitlines()
        for line in missed:
            print(f"    {line:5d}  {text[line - 1].strip()[:70]}")
    print(f"{'total':20s} {missed_total:4d}")
    return missed_total


def run_bench(root: Path, seed: int, ops: int) -> None:
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    for name in sorted(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory() as workdir:
            w = workloads.WORKLOADS[name](seed, workdir)
            for _ in range(ops):
                try:
                    w.next_op().call()
                except Exception:  # a failing op still ran its lines
                    pass


def run_tests(root: Path, args: list[str], tracer: LineTracer) -> int:
    with tempfile.TemporaryDirectory() as workdir:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = workdir
        return pytest.main(["-p", "no:cacheprovider",
                            *(args or [str(root / "tests"), "-q", "-m", "not slow"])],
                           plugins=[Rearm(tracer)])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", type=Path, help="source tree with src/nvk, tests and perfbench")
    p.add_argument("--bench", nargs=2, type=int, metavar=("SEED", "N"),
                   help="run N ops of each benchmark workload instead of the tests")
    p.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = p.parse_args(argv)
    root = args.root.resolve()
    package = root / "src" / "nvk"
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # for subprocesses of the tests
    sys.path.insert(0, str(root / "src"))
    with LineTracer(str(package) + os.sep) as tracer:
        if args.bench:
            run_bench(root, *args.bench)
            status = 0
        else:
            status = run_tests(root, args.pytest_args, tracer)
    report(package, tracer.lines)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
