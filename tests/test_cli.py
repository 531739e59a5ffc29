"""Command-line contract: golden files, exit codes, deterministic reports."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import nvk
from nvk import cli, errors
from nvk import conditions as cond
from nvk.cli import CLASSIFICATION_FIXTURES, classification_evidence, fixture_base_measure, main
from nvk.descriptors import measure_to_json
from nvk.measures import LebesgueDensity, Pushforward2D
from nvk.quadrature import QuadratureConfig

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def inverse_descriptor(tmp_path):
    doc = {"schema": "nvk-1", "a": 0.0, "b": [0.0],
           "measure": {"type": "atomic", "dimension": 1, "atoms": [[0.0, math.pi]]}}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def test_eval_matches_golden(inverse_descriptor):
    rc, out = run_main(["eval", inverse_descriptor, "--z", "0+1i", "--z", "1+1i"])
    assert rc == 0
    assert out == (GOLDEN / "eval_inverse.json").read_text()


def test_eval_rejects_lower_half_plane(inverse_descriptor, capsys):
    rc, _ = run_main(["eval", inverse_descriptor, "--z", "0-1i"])
    assert rc == 2
    assert "poly-upper half-plane" in capsys.readouterr().err


def test_eval_rejects_malformed_literal(inverse_descriptor):
    rc, _ = run_main(["eval", inverse_descriptor, "--z", "1+2j"])
    assert rc == 2


def test_eval_linear_descriptor(tmp_path):
    doc = {"schema": "nvk-1", "a": 0.0, "b": [1.0, 1.0],
           "measure": {"type": "atomic", "dimension": 2, "atoms": []}}
    path = tmp_path / "lin.json"
    path.write_text(json.dumps(doc))
    rc, out = run_main(["eval", str(path), "--z", "0+1i,0+1i"])
    assert rc == 0
    assert json.loads(out)["results"][0]["value"] == "0+2i"


@pytest.mark.parametrize("z", ["0+1i,,0+1i", "0+1i,0+1i,", ",0+1i,0+1i", "0+1i, ,0+1i"])
def test_eval_rejects_an_empty_coordinate(tmp_path, capsys, z):
    doc = {"schema": "nvk-1", "a": 0.0, "b": [1.0, 1.0],
           "measure": {"type": "atomic", "dimension": 2, "atoms": []}}
    path = tmp_path / "lin.json"
    path.write_text(json.dumps(doc))
    assert run_main(["eval", str(path), "--z", z]) == (2, "")
    assert "malformed complex literal" in capsys.readouterr().err


def test_eval_numerical_failure_exit_code(tmp_path):
    doc = {"schema": "nvk-1", "a": 0.0, "b": [0.0, 0.0],
           "measure": {"type": "lebesgue", "dimension": 2, "density": "1+t1^2"}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, _ = run_main(["eval", str(path), "--z", "0+1i,0+1i"])
    assert rc == 3


def test_eval_too_long_density_exit_code(tmp_path):
    doc = {"schema": "nvk-1", "a": 0.0, "b": [0.0],
           "measure": {"type": "lebesgue", "dimension": 1, "density": "+".join(["t1"] * 1000)}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    rc, _ = run_main(["eval", str(path), "--z", "0+1i"])
    assert rc == 2


@pytest.mark.parametrize("error, code", [
    (errors.DomainError, 2), (errors.DimensionMismatchError, 2),
    (errors.GrowthConditionError, 3), (errors.QuadratureFailure, 3),
    (errors.IntegrandError, 3), (errors.InconsistencyError, 3),
])
def test_errors_map_to_exit_codes_by_class(inverse_descriptor, monkeypatch, capsys, error, code):
    def fail(*args, **kwargs):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "evaluate", fail)
    assert main(["eval", inverse_descriptor, "--z", "0+1i"]) == code
    prefix = "error" if code == 2 else "numerical failure"
    assert capsys.readouterr().err == f"{prefix}: raised on purpose\n"


def test_transform_matches_golden(inverse_descriptor, tmp_path):
    out_path = tmp_path / "out.json"
    rc, _ = run_main(["transform", inverse_descriptor, "--k", "0.5,0.5",
                      "--out", str(out_path)])
    assert rc == 0
    assert out_path.read_text() == (GOLDEN / "transform_half.json").read_text()


def test_transform_without_out_prints_the_descriptor(inverse_descriptor):
    rc, out = run_main(["transform", inverse_descriptor, "--k", "0.5,0.5"])
    assert rc == 0
    assert out == (GOLDEN / "transform_half.json").read_text()


def test_transform_roundtrip_evaluates(inverse_descriptor, tmp_path):
    out_path = tmp_path / "out.json"
    run_main(["transform", inverse_descriptor, "--k", "0.5,0.25,0.25",
              "--out", str(out_path)])
    doc = json.loads(out_path.read_text())
    assert doc["measure"]["b"] == [0.5, 1.0]
    assert doc["measure"]["scale"] == 2.0
    # Re-parse and evaluate through the library: q~(i,i,i) = -1/i = i.
    from nvk.descriptors import data_from_json
    from nvk.ladder import ladder_closed_form

    data = data_from_json(doc)
    closed = ladder_closed_form((1j, 1j, 1j), data.mu) / math.pi ** 3
    assert abs(closed - 1j) < 1e-12


def test_transform_output_evaluates_like_library(inverse_descriptor, tmp_path):
    # cmd_eval on the emitted descriptor agrees with in-process evaluation.
    out_path = tmp_path / "out.json"
    run_main(["transform", inverse_descriptor, "--k", "0.5,0.5",
              "--out", str(out_path)])
    rc, text = run_main(["eval", str(out_path), "--z", "0.5+1.5i,-0.25+0.75i"])
    assert rc == 0
    from nvk.descriptors import data_from_json, parse_complex
    from nvk.representation import evaluate

    reported = parse_complex(json.loads(text)["results"][0]["value"])
    data = data_from_json(json.loads(out_path.read_text()))
    direct = evaluate(data, (0.5 + 1.5j, -0.25 + 0.75j))
    assert abs(reported - direct) <= 1e-12 * max(1.0, abs(direct))


def test_eval_tolerance_override(inverse_descriptor, tmp_path):
    out_path = tmp_path / "qt.json"
    run_main(["transform", inverse_descriptor, "--k", "0.5,0.5", "--out", str(out_path)])
    rc, text = run_main(["eval", str(out_path), "--z", "0+1i,0+1i", "--tol", "1e-6"])
    assert rc == 0
    result = json.loads(text)["results"][0]
    from nvk.descriptors import parse_complex

    assert abs(parse_complex(result["value"]) - 1j) < 1e-6
    assert 0 < result["error_estimate"] < 1e-6


def test_transform_rejects_bad_sum(inverse_descriptor):
    rc, _ = run_main(["transform", inverse_descriptor, "--k", "0.5,0.4"])
    assert rc == 2


def test_transform_zero_coefficient_padding(inverse_descriptor, tmp_path):
    out_path = tmp_path / "out.json"
    rc, _ = run_main(["transform", inverse_descriptor, "--k", "1,0",
                      "--out", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["measure"]["type"] == "product"
    assert doc["measure"]["factors"][1]["type"] == "lebesgue"


def test_classify_representing(tmp_path):
    mu = {"schema": "nvk-1",
          "measure": {"type": "atomic", "dimension": 1, "atoms": [[0.0, math.pi]]}}
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(mu))
    rc, out = run_main(["classify", "--alpha", "1", "--beta", "1", "--gamma", "1",
                        "--delta", "-1", "--mu", str(path), "--grid", "9"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["case"] == "iii1b"
    assert doc["representing"] is True
    assert doc["evidence"]["growth_converged"] is True
    assert abs(doc["evidence"]["growth_value"] - math.pi ** 2 / 2) < 1e-9
    assert doc["evidence"]["trait_conflict"] is None

    rc, out = run_main(["classify", "--alpha", "1", "--beta", "1", "--gamma", "1",
                        "--delta", "1", "--mu", str(path), "--grid", "9"])
    doc = json.loads(out)
    assert doc["case"] == "not_representing"
    assert doc["representing"] is False

    rc, out = run_main(["classify", "--alpha", "1", "--beta", "0", "--gamma", "1",
                        "--delta", "0", "--mu", str(path), "--grid", "9"])
    doc = json.loads(out)
    assert doc["representing"] is False
    assert doc["evidence"]["growth_converged"] is False


def test_verify_deterministic_under_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc, _ = run_main(["verify", "--suite", "ladder", "--n", "2",
                          "--samples", "3", "--seed", "9", "--out", str(path)])
        assert rc == 0
    assert a.read_text() == b.read_text()


def test_verify_env_seed(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("NVK_SEED", "31")
    run_main(["verify", "--suite", "kernels", "--samples", "4", "--out", str(a)])
    monkeypatch.delenv("NVK_SEED")
    run_main(["verify", "--suite", "kernels", "--samples", "4", "--seed", "31",
              "--out", str(b)])
    assert a.read_text() == b.read_text()
    assert json.loads(a.read_text())["seed"] == 31


def test_verify_without_out_prints_the_report(tmp_path):
    path = tmp_path / "r.json"
    argv = ["verify", "--suite", "kernels", "--samples", "4", "--seed", "31"]
    run_main(argv + ["--out", str(path)])
    rc, out = run_main(argv)
    assert rc == 0
    assert out == path.read_text()


def test_verify_csv_format(tmp_path):
    path = tmp_path / "r.csv"
    rc, _ = run_main(["verify", "--suite", "kernels", "--samples", "4",
                      "--format", "csv", "--out", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "index,inputs,lhs_re,lhs_im,rhs_re,rhs_im,rel_error"
    assert len(lines) == 5


def test_verify_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_main(["verify", "--suite", "kernels", "--samples", "6", "--seed", "4",
              "--jobs", "1", "--out", str(a)])
    run_main(["verify", "--suite", "kernels", "--samples", "6", "--seed", "4",
              "--jobs", "2", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_verify_conditions_suite(tmp_path):
    path = tmp_path / "cond.json"
    rc, _ = run_main(["verify", "--suite", "conditions", "--out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert len(doc["rows"]) == 11
    assert doc["max_rel_error"] == 0.0


def test_verify_unknown_suite_usage_error():
    rc = main(["verify", "--suite", "bogus"])
    assert rc == 2


def test_suite_rows_rejects_an_unknown_suite():
    # The worker entry point checks the name itself: it is not behind the parser.
    with pytest.raises(errors.DomainError, match="unknown suite 'nope'"):
        cli.suite_rows("nope", 3, 1, 0, None)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count and maps
    in this process."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("samples, workers", [(2, [2]), (1, [])])
def test_verify_jobs_start_at_most_one_worker_per_sample(tmp_path, monkeypatch, samples, workers):
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
    args = ["verify", "--suite", "kernels", "--samples", str(samples), "--seed", "4"]
    assert run_main(args + ["--out", str(serial)])[0] == 0
    assert run_main(args + ["--jobs", "8", "--out", str(pooled)])[0] == 0
    assert _SerialPool.sizes == workers  # one sample runs serially, without a pool
    assert pooled.read_text() == serial.read_text()


@pytest.mark.parametrize("argv, bad", [
    (["eval", "{missing}", "--z", "0+1i"], "missing"),
    (["transform", "{missing}", "--k", "0.5,0.5"], "missing"),
    (["transform", "{descriptor}", "--k", "0.5,0.5", "--out", "{unwritable}"], "unwritable"),
    (["classify", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "-1",
      "--mu", "{missing}"], "missing"),
    (["verify", "--suite", "kernels", "--samples", "1", "--out", "{unwritable}"], "unwritable"),
], ids=["eval", "transform-in", "transform-out", "classify", "verify"])
def test_file_errors_exit_2_naming_the_path(argv, bad, inverse_descriptor, tmp_path, capsys):
    paths = {"missing": str(tmp_path / "missing.json"),
             "unwritable": str(tmp_path / "no_dir" / "out.json"),
             "descriptor": inverse_descriptor}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and paths[bad] in err
    assert len(err.splitlines()) == 1  # no traceback


def test_main_builds_its_parser_once(inverse_descriptor, monkeypatch, capsys):
    from nvk import cli

    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["verify", "--suite", "bogus"]) == 2
            assert main(["classify", "--mu", inverse_descriptor]) == 2
            assert run_main(["eval", inverse_descriptor, "--z", "0+1i"])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    err = capsys.readouterr().err
    assert err.count("invalid choice: 'bogus'") == 3
    assert err.count("the following arguments are required: --alpha") == 3


def test_entry_point_subprocess(inverse_descriptor):
    proc = subprocess.run(
        [sys.executable, "-m", "nvk.cli", "eval", inverse_descriptor, "--z", "0+1i"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"][0]["value"] == "0+1i"


def test_invalid_descriptor_schema_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "nvk-1", "measure": {"type": "bogus"}}))
    rc, _ = run_main(["eval", str(path), "--z", "0+1i"])
    assert rc == 2


def _evidence_per_point(mu1, coeffs, grid_count, cfg):
    """The Nevanlinna half of ``classification_evidence`` as a loop of
    one-point solves that stops at the first diverged point (reference)."""
    planar = Pushforward2D(mu1, *coeffs)
    growth = cond.check_growth(planar, cfg)
    nevan_ok = growth_ok = growth.converged and not growth.diverged
    max_mod = scale = 0.0
    if growth_ok:
        for z in cond.default_z_grid(2, grid_count):
            (v,), scales = cond.nevanlinna_grid(planar, [z], cfg)
            if v.diverged:
                nevan_ok = False
                break
            (s,) = scales
            scale, max_mod = max(scale, s), max(max_mod, abs(v.value))
            if abs(v.value) > cond.nevanlinna_zero_tolerance(s):
                nevan_ok = False
    return growth_ok and nevan_ok, max_mod, scale


@pytest.mark.parametrize("fixture", CLASSIFICATION_FIXTURES, ids=lambda f: f[0])
def test_classification_evidence_matches_per_point_loop(fixture):
    name, coeffs, kind, expected_case, expected_rep = fixture
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
    mu1 = fixture_base_measure(kind)
    got, evidence = classification_evidence(mu1, coeffs, 25, cfg)
    numeric_rep, max_mod, scale = _evidence_per_point(mu1, coeffs, 25, cfg)
    assert (got.case, got.representing) == (expected_case, expected_rep)
    assert evidence["evidence_representing"] == numeric_rep
    conflict = None if numeric_rep == expected_rep else "declared traits disagree with numerical evidence"
    assert evidence["trait_conflict"] == conflict
    assert evidence["nevanlinna_max_modulus"] == max_mod
    assert evidence["nevanlinna_scale"] == scale


def _cli_import_loads(module):
    """Whether a fresh ``import nvk.cli`` puts ``module`` in ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nvk.__file__).parents[1])] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, nvk.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_out_multiprocessing():
    # The process pool is imported only when --jobs asks for one.
    assert not _cli_import_loads("multiprocessing")


def test_cli_import_leaves_out_numpy_polynomial():
    # The residue oracle evaluates its polynomials by Horner's rule.
    assert not _cli_import_loads("numpy.polynomial")


def test_cli_import_leaves_out_jsonschema():
    # Descriptors are checked by the package's own reader.
    assert not _cli_import_loads("jsonschema")


_BASE = {"type": "atomic", "atoms": [[0, 1]]}


def _write(tmp_path, name, measure, n):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": "nvk-1", "a": 0, "b": [0] * n, "measure": measure}))
    return str(path)


@pytest.mark.parametrize("floats,ints,n", [
    ({"type": "lebesgue", "dimension": 2.0}, {"type": "lebesgue", "dimension": 2}, 2),
    ({"type": "lebesgue_pad", "inner": _BASE, "axes": [1.0], "dimension": 3.0},
     {"type": "lebesgue_pad", "inner": _BASE, "axes": [1], "dimension": 3}, 3),
])
def test_eval_reads_integral_floats_as_integers(tmp_path, floats, ints, n):
    z = ",".join(["0+1i"] * n)
    rc, out = run_main(["eval", _write(tmp_path, "f.json", floats, n), "--z", z])
    assert rc == 0
    assert out == run_main(["eval", _write(tmp_path, "i.json", ints, n), "--z", z])[1]


@pytest.mark.parametrize("measure,path", [
    ({"type": "pushforward2d", "base": _BASE, "coefficients": [1, math.inf, 1, 1]},
     "$.measure.coefficients[1]"),
    ({"type": "pushforward_ladder", "base": _BASE, "b": [1], "scale": math.inf},
     "$.measure.scale"),
    ({"type": "pushforward_ladder", "base": _BASE, "b": [math.inf], "scale": 1},
     "$.measure.b[0]"),
])
def test_eval_rejects_non_finite_descriptor_numbers(tmp_path, capsys, measure, path):
    # json.dumps writes Infinity, which json.loads accepts.
    rc, _ = run_main(["eval", _write(tmp_path, "bad.json", measure, 2), "--z", "0+1i,0+1i"])
    assert rc == 2
    assert f"descriptor invalid at {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--beta", "inf"), ("--alpha", "nan")])
def test_classify_rejects_non_finite_coefficients(inverse_descriptor, capsys, flag, value):
    argv = {"--alpha": "1", "--beta": "1", "--gamma": "1", "--delta": "1"}
    argv[flag] = value
    rc, out = run_main(["classify", "--mu", inverse_descriptor,
                        *[x for kv in argv.items() for x in kv]])
    assert rc == 2 and out == ""
    assert "must be finite" in capsys.readouterr().err


def test_eval_rejects_infinite_tolerance(inverse_descriptor, capsys):
    rc, out = run_main(["eval", inverse_descriptor, "--z", "0+1i", "--tol", "inf"])
    assert rc == 2 and out == ""
    assert "tolerances must be positive and finite" in capsys.readouterr().err


def test_transform_rejects_malformed_k(inverse_descriptor, capsys):
    rc, out = run_main(["transform", inverse_descriptor, "--k", "0.5,abc"])
    assert rc == 2 and out == ""
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_empty_sample_set(capsys, samples):
    rc, out = run_main(["verify", "--suite", "main", "--samples", samples])
    assert rc == 2 and out == ""
    assert "--samples" in capsys.readouterr().err


def test_classify_rejects_empty_grid(inverse_descriptor, capsys):
    rc, out = run_main(["classify", "--alpha", "1", "--beta", "1", "--gamma", "1",
                        "--delta", "-1", "--mu", inverse_descriptor, "--grid", "0"])
    assert rc == 2 and out == ""
    assert "z-grid" in capsys.readouterr().err


@pytest.mark.parametrize("suite,n", [("ladder", "0"), ("ladder", "1"), ("main", "1"), ("main", "-2")])
def test_verify_rejects_dimension_below_two(capsys, suite, n):
    rc, out = run_main(["verify", "--suite", suite, "--n", n, "--samples", "1"])
    assert rc == 2 and out == ""
    assert "--n" in capsys.readouterr().err


def test_verify_kernels_ignores_n(tmp_path):
    rc, _ = run_main(["verify", "--suite", "kernels", "--n", "0", "--samples", "2",
                      "--out", str(tmp_path / "k.json")])
    assert rc == 0


def test_eval_rejects_a_point_of_the_wrong_dimension(inverse_descriptor, capsys):
    rc, out = run_main(["eval", inverse_descriptor, "--z", "0+1i,0+1i"])
    assert rc == 2 and out == ""
    assert "2 coordinates" in capsys.readouterr().err


def test_classify_rejects_a_two_dimensional_base(tmp_path, capsys):
    path = tmp_path / "mu2.json"
    path.write_text(json.dumps({"schema": "nvk-1", "measure": {
        "type": "atomic", "dimension": 2, "atoms": [[0.0, 0.0, 1.0]]}}))
    rc, out = run_main(["classify", "--alpha", "1", "--beta", "1", "--gamma", "1",
                        "--delta", "-1", "--mu", str(path)])
    assert rc == 2 and out == ""
    assert "one-dimensional" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0, 0.0), (1.0, 1.0, -1.0, -1.0)])
def test_undecided_growth_leaves_the_evidence_unknown(coeffs):
    # Against 1/(1+|t|)^1.2 the planar growth integral is finite, but its
    # t^-1.2 tail neither converges nor diverges numerically (the cap keeps
    # the nested case short): the evidence is unknown, not "not
    # representing", and there is nothing to conflict with.
    mu1 = LebesgueDensity(1, lambda t: (1.0 + abs(t)) ** -1.2)
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=60)
    classification, evidence = classification_evidence(mu1, coeffs, 3, cfg)
    assert classification.representing is None
    assert evidence["growth_converged"] is None
    assert evidence["evidence_representing"] is None
    assert evidence["trait_conflict"] is None


@pytest.mark.parametrize("n", [2, 3])
def test_main_suite_rows(n):
    # Three points per sample: the closed form, and at n = 2 the quadrature
    # too, each against the one-variable reference.
    for index in range(2):
        rows = cli.suite_rows("main", n, 12345, index, None)
        paths = [row["inputs"].rsplit("=", 1)[1] for row in rows]
        assert paths == (["closed", "quadrature"] if n == 2 else ["closed"]) * 3
        assert max(row["rel_error"] for row in rows) <= cli.SUITES["main"].pass_tol


def test_ladder_suite_runs_the_full_reduction_at_three_variables(tmp_path):
    # At n = 2 the full reduction would integrate the final rung's integral
    # again, so only n = 3 reports it.
    rungs = [row["inputs"].split(";")[0] for row in cli.suite_rows("ladder", 2, 12345, 0, None)]
    assert rungs == ["rung=final"]
    rows = cli.suite_rows("ladder", 3, 12345, 0, None)
    assert [row["inputs"].split(";")[0] for row in rows] == ["rung=(3,0)", "rung=final", "rung=full"]
    assert rows[-1]["rel_error"] <= cli.SUITES["ladder"].pass_tol
    path = tmp_path / "ladder2.json"
    assert run_main(["verify", "--suite", "ladder", "--n", "2", "--samples", "2",
                     "--out", str(path)])[0] == 0
    assert "rung=full" not in path.read_text()


def test_classify_and_the_conditions_suite_share_the_evidence_config():
    assert cli.SUITES["conditions"].config is cond.EVIDENCE_CONFIG
    assert cli._config(None, cond.EVIDENCE_CONFIG) is cond.EVIDENCE_CONFIG
    # --tol T reads (T, min(abs default, T * 1e-3)): 1e-10 is the fine config.
    assert cli._config(1e-10, cond.EVIDENCE_CONFIG) == QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
    assert cli._config(1e-6, cond.EVIDENCE_CONFIG) == QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)


def _classify_argv(tmp_path, fixture):
    """``nvk classify`` argv for a classification fixture, its base measure
    written as a descriptor."""
    name, coeffs, kind, expected_case, expected_rep = fixture
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"schema": "nvk-1",
                                "measure": measure_to_json(fixture_base_measure(kind))}))
    flags = ("--alpha", "--beta", "--gamma", "--delta")
    return ["classify", "--mu", str(path), *[x for f, v in zip(flags, coeffs) for x in (f, repr(v))]]


@pytest.mark.parametrize("fixture", CLASSIFICATION_FIXTURES, ids=lambda f: f[0])
def test_classify_verdicts_are_the_same_at_the_default_and_at_tol_1e_10(tmp_path, fixture):
    argv = _classify_argv(tmp_path, fixture)
    verdicts = []
    for extra in ([], ["--tol", "1e-10"]):
        rc, out = run_main(argv + extra)
        doc = json.loads(out)
        ev = doc["evidence"]
        verdicts.append((rc, doc["case"], doc["representing"], ev["evidence_representing"],
                         ev["trait_conflict"], ev["growth_converged"]))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][:3] == (0, fixture[3].value, fixture[4])


def test_fixture_i1_classify_takes_few_rounds(tmp_path, monkeypatch):
    # At (1e-10, 1e-13) the grid rows were driven to an absolute 1e-14 at
    # the t2 level, and i1 took 37 calls; the evidence config takes 24.
    import nvk.quadrature as quadrature

    calls = [0]
    panels = quadrature._panels

    def counted(*args):
        calls[0] += 1
        return panels(*args)

    fixture = CLASSIFICATION_FIXTURES[0]
    assert fixture[0] == "i1"
    argv = _classify_argv(tmp_path, fixture)
    monkeypatch.setattr(quadrature, "_panels", counted)
    rc, out = run_main(argv)
    assert rc == 0 and json.loads(out)["evidence"]["evidence_representing"] is True
    assert calls[0] <= 26


@pytest.mark.parametrize("argv", [["eval", "{}", "--z", "0+1i"],
                                  ["transform", "{}", "--k", "1"],
                                  ["classify", "--mu", "{}", "--alpha", "1", "--beta", "1",
                                   "--gamma", "1", "--delta", "1"]],
                         ids=lambda argv: argv[0])
def test_a_descriptor_that_is_not_utf8_is_a_domain_error(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00{}")
    rc, out = run_main([str(path) if a == "{}" else a for a in argv])
    assert rc == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text at byte 0")
