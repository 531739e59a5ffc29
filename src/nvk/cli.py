"""Command-line front end.

Subcommands
-----------
``eval``       evaluate a data descriptor at points of the poly-upper
               half-plane.
``transform``  write the n-variable descriptor of a convex combination.
``verify``     run a named verification suite and write a JSON/CSV report.
``classify``   classify a planar pushforward measure and print the verdict
               with its numerical evidence.

Exit codes: 0 success, 2 usage or domain error, 3 numerical failure.
Reports are deterministic under a fixed seed; the environment variable
NVK_SEED overrides the built-in default seed, and --seed overrides both.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from math import pi
from typing import Optional

from . import conditions as cond
from .descriptors import (
    data_from_json,
    data_to_json,
    dump_descriptor,
    format_complex,
    load_descriptor,
    parse_complex,
    validate_descriptor,
)
from .errors import DomainError, NvkError
from .kernels import kernel_nd_rational, kernel_nd_sum
from .ladder import verify_final_step, verify_full_reduction, verify_main_theorem, verify_step
from .measures import Atomic, Pushforward2D, lebesgue, zero_measure
from .quadrature import QuadratureConfig
from .representation import evaluate
from .sampling import (
    DEFAULT_SEED,
    draw_atomic_data,
    draw_convex_coefficients,
    draw_ladder_coefficients,
    draw_upper_point,
    rng_for,
)
from .transform import transform

__all__ = ["main"]

SUITES = ("ladder", "main", "conditions", "kernels")

# Pass tolerance on a report row, per suite.
SUITE_PASS_TOL = {
    "ladder": 1e-7,
    "main": 1e-7,
    "kernels": 1e-12,
    "conditions": 0.5,
}

# Classification fixtures: name, coefficients, base-measure kind, expected case.
CLASSIFICATION_FIXTURES = (
    ("i1", (0.0, 0.0, 1.0, 1.0), "pi_delta0", cond.Case.I1, True),
    ("i2", (1.0, 0.0, 1.0, 1.0), "pi_delta0", cond.Case.I2, True),
    ("ii1", (0.0, 1.0, 0.0, 0.0), "pi_delta0", cond.Case.II1, True),
    ("ii2", (0.0, 1.0, 1.0, 0.0), "pi_delta0", cond.Case.II2, True),
    ("iii1a", (1.0, 1.0, -1.0, -1.0), "pi_delta0", cond.Case.III1A, True),
    ("iii1b", (1.0, 1.0, 1.0, -1.0), "pi_delta0", cond.Case.III1B, True),
    ("iii2a", (1.0, 1.0, 1.0, 1.0), "zero", cond.Case.III2A, True),
    ("iii2b", (1.0, 1.0, 1.0, 2.0), "lebesgue", cond.Case.III2B, True),
    ("neg_degenerate", (1.0, 0.0, 1.0, 0.0), "pi_delta0", cond.Case.NOT_REPRESENTING, False),
    ("neg_iii2a_nonzero", (1.0, 1.0, 1.0, 1.0), "pi_delta0", cond.Case.NOT_REPRESENTING, False),
    ("neg_iii2b_atom", (1.0, 1.0, 1.0, 2.0), "pi_delta0", cond.Case.NOT_REPRESENTING, False),
)


def fixture_base_measure(kind: str):
    if kind == "pi_delta0":
        return Atomic.single(pi, 0.0)
    if kind == "zero":
        return zero_measure(1)
    if kind == "lebesgue":
        return lebesgue()
    raise DomainError(f"unknown fixture measure {kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nvk", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a data descriptor")
    p_eval.add_argument("descriptor")
    p_eval.add_argument("--z", action="append", required=True,
                        help="point as comma-separated complex literals 'a+bi'; repeatable")
    p_eval.add_argument("--tol", type=float, default=None,
                        help="override the quadrature relative tolerance")
    p_eval.set_defaults(func=cmd_eval)

    p_tr = sub.add_parser("transform", help="transform data by a convex combination")
    p_tr.add_argument("descriptor")
    p_tr.add_argument("--k", required=True, help="comma-separated coefficients summing to 1")
    p_tr.add_argument("--out", default=None, help="output descriptor path (default stdout)")
    p_tr.set_defaults(func=cmd_transform)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--n", type=int, default=3)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--samples", type=int, default=10)
    p_ver.add_argument("--format", choices=("json", "csv"), default="json")
    p_ver.add_argument("--out", default=None, help="report path (default stdout)")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--tol", type=float, default=None,
                       help="override the quadrature relative tolerance")
    p_ver.set_defaults(func=cmd_verify)

    p_cl = sub.add_parser("classify", help="classify a planar pushforward measure")
    for name in ("alpha", "beta", "gamma", "delta"):
        p_cl.add_argument(f"--{name}", type=float, required=True)
    p_cl.add_argument("--mu", required=True, help="descriptor file with a 1-dim measure")
    p_cl.add_argument("--grid", type=int, default=25, help="z-grid size for the evidence")
    p_cl.add_argument("--tol", type=float, default=None)
    p_cl.set_defaults(func=cmd_classify)

    return parser


def _config(tol: Optional[float], rel_default: float = 1e-10,
            abs_default: float = 1e-13) -> QuadratureConfig:
    if tol is None:
        return QuadratureConfig(rel_tol=rel_default, abs_tol=abs_default)
    return QuadratureConfig(rel_tol=tol, abs_tol=min(abs_default, tol * 1e-3))


def cmd_eval(args) -> int:
    data = data_from_json(load_descriptor(args.descriptor))
    cfg = _config(args.tol)
    results = []
    for spec in args.z:
        zs = tuple(parse_complex(p) for p in spec.split(","))
        if len(zs) != data.n:
            raise DomainError(
                f"point has {len(zs)} coordinates, descriptor has {data.n} variables")
        value, err = evaluate(data, zs, cfg, full_output=True)
        results.append({
            "z": [format_complex(z) for z in zs],
            "value": format_complex(value),
            "error_estimate": err,
        })
    print(json.dumps({"schema": "nvk-report-1", "results": results},
                     indent=2, sort_keys=True))
    return 0


def cmd_transform(args) -> int:
    data = data_from_json(load_descriptor(args.descriptor))
    try:
        ks = [float(x) for x in args.k.split(",")]
    except ValueError:
        raise DomainError(f"--k: malformed coefficient list {args.k!r}") from None
    out = transform(data, ks)
    text = dump_descriptor(data_to_json(out), args.out)
    if args.out is None:
        print(text, end="")
    else:
        print(f"wrote {args.out}")
    return 0


# --- verification suites ----------------------------------------------------

def _row(index: int, inputs: str, lhs: complex, rhs: complex,
         scale_floor: float = 1e-12) -> dict:
    lhs, rhs = complex(lhs), complex(rhs)
    rel = abs(lhs - rhs) / max(abs(rhs), scale_floor)
    return {
        "index": int(index),
        "inputs": inputs,
        "lhs_re": float(lhs.real), "lhs_im": float(lhs.imag),
        "rhs_re": float(rhs.real), "rhs_im": float(rhs.imag),
        "rel_error": float(rel),
    }


def _fmt_vec(v) -> str:
    return "/".join(repr(float(x)) for x in v)


def _fmt_cvec(v) -> str:
    return "/".join(format_complex(complex(x)) for x in v)


def suite_rows(suite: str, n: int, seed: int, index: int,
               tol: Optional[float]) -> list[dict]:
    """All report rows contributed by one sample index (worker entry point)."""
    rng = rng_for(seed, index)
    if suite == "conditions":
        # Evidence integrals only need the 1e-8 zero threshold.
        cfg = _config(tol, rel_default=1e-8, abs_default=1e-10)
    else:
        cfg = _config(tol)
    rows: list[dict] = []

    if suite == "kernels":
        n_k = 1 + index % 4
        z = draw_upper_point(rng, n_k)
        t = tuple(rng.uniform(-3, 3, n_k))
        lhs = kernel_nd_sum(z, t)
        rhs = kernel_nd_rational(z, t)
        inputs = f"n={n_k};z={_fmt_cvec(z)};t={_fmt_vec(t)}"
        rows.append(_row(index, inputs, lhs, rhs, scale_floor=1.0))
        return rows

    if suite == "ladder":
        b = draw_ladder_coefficients(rng, n)
        z = draw_upper_point(rng, n)
        for m in range(n, 2, -1):
            d = n - m
            t = tuple(rng.uniform(-2, 2, m - 1))
            lhs, rhs = verify_step(m, d, b, z, t, cfg)
            inputs = f"rung=({m},{d});b={_fmt_vec(b)};z={_fmt_cvec(z)};t={_fmt_vec(t)}"
            rows.append(_row(index, inputs, lhs, rhs))
        t1 = float(rng.uniform(-2, 2))
        lhs, rhs = verify_final_step(n, b, z, t1, cfg)
        rows.append(_row(index, f"rung=final;b={_fmt_vec(b)};z={_fmt_cvec(z)};t1={t1!r}",
                         lhs, rhs))
        if n == 3:  # at n = 2 the full reduction is the final rung again
            lhs, rhs = verify_full_reduction(n, b, z, t1, cfg)
            rows.append(_row(index, f"rung=full;b={_fmt_vec(b)};z={_fmt_cvec(z)};t1={t1!r}",
                             lhs, rhs))
        return rows

    if suite == "main":
        data = draw_atomic_data(rng)
        ks = draw_convex_coefficients(rng, n)
        z_points = [draw_upper_point(rng, n) for _ in range(3)]
        report = verify_main_theorem(data, ks, z_points, cfg, quadrature=(n == 2))
        for z, (reference, closed, quad) in zip(z_points, report.samples):
            inputs = f"k={_fmt_vec(ks)};z={_fmt_cvec(z)};path=closed"
            rows.append(_row(index, inputs, closed, reference, scale_floor=1.0))
            if n == 2:
                rows.append(_row(index, inputs.replace("closed", "quadrature"),
                                 quad, reference, scale_floor=1.0))
        return rows

    if suite == "conditions":
        name, coeffs, kind, expected_case, expected_rep = \
            CLASSIFICATION_FIXTURES[index % len(CLASSIFICATION_FIXTURES)]
        mu1 = fixture_base_measure(kind)
        classification, evidence = classification_evidence(mu1, coeffs, 9, cfg)
        agrees = 1.0 if (classification.representing == expected_rep
                         and classification.case == expected_case) else 0.0
        inputs = (f"fixture={name};coeffs={_fmt_vec(coeffs)};mu={kind};"
                  f"expected={expected_case.value}")
        rows.append(_row(index, inputs, complex(agrees), complex(1.0), scale_floor=1.0))
        return rows

    raise DomainError(f"unknown suite {suite!r}")


def classification_evidence(mu1, coeffs, grid_count: int, cfg: QuadratureConfig):
    """Classifier verdict for a planar pushforward, plus numerical evidence:
    the growth integral and the maximum Nevanlinna modulus over the z-grid,
    whose points are solved together (``conditions.nevanlinna_grid``).  The
    growth integral is read by ``conditions.decided`` and the grid by
    ``conditions.vanishes``, so an undecided integral leaves the evidence
    unknown (None).  Declared traits outrank the numerics; a disagreement
    between two decided sides is reported in the ``trait_conflict`` field."""
    if grid_count < 1:
        raise DomainError("the evidence z-grid needs at least one point")
    alpha, beta, gamma, delta = coeffs
    # Built first: the constructor rejects non-finite coefficients.
    planar = Pushforward2D(mu1, alpha, beta, gamma, delta)
    traits = cond.derive_traits(mu1, cfg, coefficients=tuple(coeffs))
    classification = cond.classify_pushforward2d(alpha, beta, gamma, delta, traits)

    growth = cond.check_growth(planar, cfg)
    numeric_rep = growth_ok = cond.decided(growth)
    max_mod = scale = 0.0
    if growth_ok:
        values, scales = cond.nevanlinna_grid(planar, cond.default_z_grid(2, grid_count), cfg)
        # Scales stop at the first diverged point, like a per-point loop.
        max_mod = max((abs(v.value) for v in values[:len(scales)]), default=0.0)
        scale = max(scales, default=0.0)
        numeric_rep = cond.vanishes(values)

    verdict = classification.representing
    evidence = {
        "growth_value": None if growth.diverged else abs(growth.value),
        "growth_converged": growth_ok,
        "nevanlinna_max_modulus": max_mod,
        "nevanlinna_scale": scale,
        "z_grid_points": grid_count,
        "evidence_representing": numeric_rep,
        "trait_conflict": (None if None in (verdict, numeric_rep) or verdict == numeric_rep
                           else "declared traits disagree with numerical evidence"),
    }
    return classification, evidence


def cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("NVK_SEED", DEFAULT_SEED))
    samples = args.samples
    if samples < 1:
        raise DomainError("--samples must be at least 1")
    if args.suite in ("ladder", "main") and args.n < 2:
        raise DomainError(f"--n must be at least 2 for the {args.suite} suite")
    if args.suite == "conditions":
        samples = len(CLASSIFICATION_FIXTURES)

    if args.jobs > 1:
        # Imported here: multiprocessing is heavy, and only --jobs needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            chunks = list(pool.map(
                suite_rows,
                [args.suite] * samples, [args.n] * samples,
                [seed] * samples, range(samples), [args.tol] * samples,
            ))
    else:
        chunks = [suite_rows(args.suite, args.n, seed, i, args.tol)
                  for i in range(samples)]

    rows = [row for chunk in chunks for row in chunk]
    max_rel = float(max((row["rel_error"] for row in rows), default=0.0))
    tol = SUITE_PASS_TOL[args.suite]
    passed = bool(max_rel <= tol)

    if args.format == "json":
        report = json.dumps({
            "schema": "nvk-report-1",
            "suite": args.suite,
            "n": args.n,
            "seed": seed,
            "samples": samples,
            "tolerance": tol,
            "max_rel_error": max_rel,
            "passed": passed,
            "rows": rows,
        }, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[
            "index", "inputs", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "rel_error",
        ])
        writer.writeheader()
        writer.writerows(rows)
        report = buf.getvalue()

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)

    print(f"suite={args.suite} n={args.n} seed={seed} rows={len(rows)} "
          f"max_rel_error={max_rel:.3e} {'PASS' if passed else 'FAIL'}",
          file=sys.stderr)
    return 0 if passed else 1


def cmd_classify(args) -> int:
    mu1 = validate_descriptor(load_descriptor(args.mu))
    if mu1.dimension != 1:
        raise DomainError("classification needs a one-dimensional base measure")
    cfg = _config(args.tol)
    coeffs = (args.alpha, args.beta, args.gamma, args.delta)
    classification, evidence = classification_evidence(mu1, coeffs, args.grid, cfg)
    out = {
        "case": classification.case.value,
        "representing": (classification.representing
                         if classification.representing is not None else "indeterminate"),
        "evidence": evidence,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves the parser
    as it was, and building it costs about a tenth of a small command."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 2
    try:
        return args.func(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NvkError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
