"""The digest lines of ``tools/op_digest.py``."""

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import nvk.cli
import nvk.conditions
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
    assert sorted(first) == ["classify", "classify-results", "classify-verdicts",
                             "classify-without-scale", "convex_atomic", "convex_atomic-results",
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


def test_grid_values_alone_move_the_reports_and_not_the_verdicts(monkeypatch, capsys):
    # The nudge stays four orders below the 1e-8 zero floor, so it moves
    # each report's nevanlinna_max_modulus and no verdict.
    before = _lines(monkeypatch, capsys)
    grid = nvk.conditions.nevanlinna_grid

    def nudged(*args, **kwargs):
        values, scales = grid(*args, **kwargs)
        return [dataclasses.replace(v, value=v.value + 1e-12) for v in values], scales

    monkeypatch.setattr(nvk.conditions, "nevanlinna_grid", nudged)
    after = _lines(monkeypatch, capsys)
    changed = sorted(name for name in before if before[name] != after[name])
    assert changed == ["classify", "classify-without-scale"]


def test_suite_lines_are_the_digests_of_reports_written_by_main(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    assert op_digest.main([str(ROOT), "--suites"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = []
    for i, args in enumerate(op_digest.SUITE_RUNS):
        out = tmp_path / f"{i}.json"
        assert nvk.cli.main(["verify", *args, "--out", str(out)]) == 0
        expected.append(f"verify {' '.join(args)} {hashlib.sha256(out.read_bytes()).hexdigest()}")
    assert lines == expected
    assert [line.split()[2] for line in lines] == \
        ["conditions", "kernels", "ladder", "ladder", "main", "main"]


def test_descriptor_lines_are_the_digests_of_what_main_writes(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    assert op_digest.main([str(ROOT), "--descriptors"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert op_digest.main([str(ROOT), "--descriptors"]) == 0
    assert capsys.readouterr().out.splitlines() == lines

    def digest(argv):
        code = nvk.cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and not err, argv
        return out, hashlib.sha256(repr((code, out, err)).encode()).hexdigest()

    expected = []
    data, output = tmp_path / "data.json", tmp_path / "output.json"
    for name, measure in op_digest.DESCRIPTOR_BASES.items():
        data.write_text(json.dumps({"schema": "nvk-1", "a": 0.25, "b": [0.5], "measure": measure}))
        for k in op_digest.DESCRIPTOR_KS:
            text, sha = digest(["transform", str(data), "--k", k])
            expected.append(f"transform {name} {k} {sha}")
            if (name, k) in op_digest._SLOW_EVALS:
                continue
            output.write_text(text)
            point = ",".join(op_digest.DESCRIPTOR_POINT[:k.count(",") + 1])
            _, sha = digest(["eval", str(output), "--z", point, "--tol", "1e-6"])
            expected.append(f"eval {name} {k} {sha}")
    assert lines == expected
    assert len(lines) == 3 * 2 * 6 - 1
