"""The digest lines of ``tools/op_digest.py``."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import nvk.measures

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("op_digest", ROOT / "tools" / "op_digest.py")
op_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_digest)


def _lines(monkeypatch, capsys) -> dict[str, str]:
    # The tool imports the tree's workloads with bytecode writing off; both
    # settings are put back after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    assert op_digest.main([str(ROOT), "--seed", "3", "--ops", "2"]) == 0
    return dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())


def test_two_runs_print_the_same_lines(monkeypatch, capsys):
    first = _lines(monkeypatch, capsys)
    assert sorted(first) == ["classify", "classify-results", "classify-without-scale",
                             "convex_atomic", "convex_atomic-results",
                             "ladder_verify", "ladder_verify-results"]
    assert _lines(monkeypatch, capsys) == first
    assert nvk.measures.integrate_many is nvk.integrate_many  # put back


def test_error_estimates_alone_move_only_the_results_lines(monkeypatch, capsys):
    before = _lines(monkeypatch, capsys)
    solve = nvk.measures.integrate_rows

    def inflated(*args, **kwargs):
        r = solve(*args, **kwargs)
        return dataclasses.replace(r, error_estimate=r.error_estimate * 1.5)

    monkeypatch.setattr(nvk.measures, "integrate_rows", inflated)
    after = _lines(monkeypatch, capsys)
    changed = sorted(name for name in before if before[name] != after[name])
    assert changed == ["classify-results", "convex_atomic-results", "ladder_verify-results"]
