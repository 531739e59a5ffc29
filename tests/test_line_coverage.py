"""The statement report of ``tools/line_coverage.py``."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "line_coverage.py"
_spec = importlib.util.spec_from_file_location("line_coverage", _PATH)
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)

_SOURCE = '''"""Module docstring."""


def f(x):
    """Function docstring."""
    if (x >
            0):
        return 1
    y = (x,
         2)
    return y
'''


def test_statements_span_headers_and_skip_docstrings():
    assert line_coverage.statements(_SOURCE) == {
        4: range(4, 5), 6: range(6, 8), 8: range(8, 9), 9: range(9, 11), 11: range(11, 12)}


def test_reports_the_statements_a_call_never_ran(tmp_path, capsys, monkeypatch):
    (tmp_path / "mod.py").write_text(_SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    with line_coverage.LineTracer(str(tmp_path)) as tracer:
        import mod

        mod.f(-1)
    del sys.modules["mod"]
    assert line_coverage.report(tmp_path, tracer.lines) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["mod.py", "1", "of", "5", "statements", "never", "run"]
    assert out[1].split() == ["8", "return", "1"]


def test_the_hook_survives_a_nested_tracer_and_a_test_that_unsets_it(tmp_path, monkeypatch):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "probe_mod.py").write_text(_SOURCE)
    monkeypatch.syspath_prepend(str(package))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "probe_mod", raising=False)
    path = str(package / "probe_mod.py")
    return_1 = (path, 8)

    # A nested tracer hands the hook back to the outer one when it exits.
    with line_coverage.LineTracer(str(package)) as outer:
        with line_coverage.LineTracer(str(package)) as inner:
            import probe_mod
        probe_mod.f(1)
    assert return_1 in outer.lines and return_1 not in inner.lines

    # A test that unsets the hook does not hide the next test's lines.
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_probe_rearm.py").write_text(
        "import sys\n\nimport probe_mod\n\n\n"
        "def test_a_unsets_the_hook():\n    sys.settrace(None)\n\n\n"
        "def test_b_runs_return_1():\n    assert probe_mod.f(1) == 1\n")
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    monkeypatch.delitem(sys.modules, "test_probe_rearm", raising=False)
    with line_coverage.LineTracer(str(package)) as tracer:
        status = line_coverage.run_tests(tmp_path, [str(tests), "-q"], tracer)
    assert status == 0
    assert return_1 in tracer.lines
