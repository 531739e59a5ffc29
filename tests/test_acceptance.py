"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything is identity reproduction and property checking at desk scale;
tolerances are fixed here and nowhere else.
"""

import io
import json
import math
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

from nvk.cli import CLASSIFICATION_FIXTURES, fixture_base_measure, main
from nvk.conditions import (
    check_growth,
    check_nevanlinna_2var,
    classify_pushforward2d,
    default_z_grid,
    derive_traits,
    growth_inner_rational,
    nevanlinna_inner_rational,
    nevanlinna_modulus_scale,
)
from nvk.kernels import kernel_nd_rational, kernel_nd_sum
from nvk.ladder import verify_final_step, verify_full_reduction, verify_main_theorem, verify_step
from nvk.measures import (
    Atomic,
    Box,
    Product,
    Pushforward2D,
    PushforwardLadder,
    integrate,
    lebesgue,
    mass,
    zero_measure,
)
from nvk.quadrature import QuadratureConfig
from nvk.representation import RepresentationData, check_herglotz, evaluate
from nvk.residues import line_integral
from nvk.sampling import (
    draw_admissible_rational,
    draw_atomic_data,
    draw_convex_coefficients,
    draw_ladder_coefficients,
    draw_upper_point,
    rng_for,
)
from nvk.transform import (
    coefficients_to_ladder,
    ladder_matrix,
    ladder_normalization,
    ladder_to_coefficients,
    transform,
    transform_general,
)

PI = math.pi
CFG = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
CFG_NESTED = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-11)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def test_criterion_1_worked_example():
    with criterion(1, "inverse-function example and its halfway transform"):
        data = RepresentationData(0.0, (0.0,), Atomic.single(PI, 0.0))
        rng = rng_for(1001)
        for _ in range(10):
            (z,) = draw_upper_point(rng, 1, re_box=(-5, 5), im_box=(0.1, 5))
            assert abs(evaluate(data, (z,), CFG) - (-1.0 / z)) <= 1e-12

        tilde = transform(data, (0.5, 0.5))
        rep = verify_main_theorem(data, (0.5, 0.5),
                                  [draw_upper_point(rng, 2) for _ in range(10)], CFG)
        assert rep.max_closed_form_error <= 1e-12
        assert rep.max_quadrature_error <= 1e-7
        for z in [draw_upper_point(rng, 2) for _ in range(10)]:
            want = -2.0 / (z[0] + z[1])
            got = evaluate(tilde, z, CFG)
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


def test_criterion_2_kernel_form_equivalence():
    with criterion(2, "kernel form equivalence at 1e-12 and the exact spot value"):
        assert kernel_nd_sum((1j, 1j), (0.0, 0.0)) == 1j
        assert kernel_nd_rational((1j, 1j), (0.0, 0.0)) == 1j
        for n in (1, 2, 3, 4):
            rng = rng_for(1002, n)
            worst = 0.0
            for _ in range(1000):
                z = draw_upper_point(rng, n, re_box=(-3, 3), im_box=(0.1, 4))
                t = tuple(rng.uniform(-4, 4, n))
                a = kernel_nd_sum(z, t)
                b = kernel_nd_rational(z, t)
                worst = max(worst, abs(a - b) / (1.0 + abs(b)))
            assert worst <= 1e-12, f"n={n}: {worst}"


def test_criterion_3_ladder_identities():
    with criterion(3, "ladder rungs at 1e-7 and full reductions at 1e-6"):
        for m, d in ((3, 0), (3, 1), (4, 0)):
            n = m + d
            rng = rng_for(1003, 10 * m + d)
            worst = 0.0
            for _ in range(20):
                b = draw_ladder_coefficients(rng, n)
                z = draw_upper_point(rng, n)
                t = tuple(rng.uniform(-2, 2, m - 1))
                lhs, rhs = verify_step(m, d, b, z, t, CFG)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
            assert worst <= 1e-7, f"(m,d)=({m},{d}): {worst}"

        for n in (2, 3, 4):
            rng = rng_for(1003, 100 + n)
            worst = 0.0
            for _ in range(20):
                b = draw_ladder_coefficients(rng, n)
                z = draw_upper_point(rng, n)
                t1 = float(rng.uniform(-2, 2))
                lhs, rhs = verify_final_step(n, b, z, t1, CFG)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
            assert worst <= 1e-7, f"final n={n}: {worst}"

        rng = rng_for(1003, 200)
        worst = 0.0
        for _ in range(20):
            b = draw_ladder_coefficients(rng, 2)
            z = draw_upper_point(rng, 2)
            lhs, rhs = verify_full_reduction(2, b, z, float(rng.uniform(-2, 2)), CFG)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst <= 1e-6, f"full n=2: {worst}"
        for i in range(5):
            rng = rng_for(1003, 300 + i)
            b = draw_ladder_coefficients(rng, 3)
            z = draw_upper_point(rng, 3)
            lhs, rhs = verify_full_reduction(3, b, z, float(rng.uniform(-2, 2)),
                                             CFG_NESTED)
            assert abs(lhs - rhs) <= 1e-6 * abs(rhs), f"full n=3 draw {i}"


def test_criterion_4_main_theorem_end_to_end():
    with criterion(4, "transform equals composition pointwise (closed form, 1e-12)"):
        for n in (2, 3):
            for i in range(5):
                rng = rng_for(1004, 10 * n + i)
                data = draw_atomic_data(rng, max_atoms=5)
                ks = draw_convex_coefficients(rng, n)
                zs = [draw_upper_point(rng, n) for _ in range(20)]
                rep = verify_main_theorem(data, ks, zs, CFG, quadrature=False)
                assert rep.max_closed_form_error <= 1e-12, (n, i)


def test_criterion_5_coefficient_algebra():
    with criterion(5, "coefficient bijection and determinant normalisation"):
        rng = rng_for(1005)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            b = np.exp(rng.uniform(np.log(0.1), np.log(10), n - 1))
            k = ladder_to_coefficients(b)
            assert np.max(np.abs(coefficients_to_ladder(k) - b) / b) <= 1e-14
            k2 = rng.uniform(0.02, 1.0, n)
            k2 = k2 / k2.sum()
            assert np.max(np.abs(ladder_to_coefficients(coefficients_to_ladder(k2))
                                 - k2)) <= 1e-14
            beta = ladder_normalization(b)
            det = float(np.linalg.det(ladder_matrix(b)))
            assert abs(beta - det) <= 1e-12 * abs(beta)
        b1 = float(rng.uniform(0.2, 5.0))
        assert ladder_normalization((b1,)) == 1.0 + b1
        for n in (2, 3, 4, 5, 6):
            assert ladder_normalization((1.0,) * (n - 1)) == float(n)


def test_criterion_6_classification_table():
    with criterion(6, "eight positive cases plus negatives, evidence agreement"):
        for name, coeffs, kind, expected_case, expected_rep in CLASSIFICATION_FIXTURES:
            mu1 = fixture_base_measure(kind)
            traits = derive_traits(mu1, CFG, coefficients=coeffs)
            got = classify_pushforward2d(*coeffs, traits)
            assert got.case == expected_case, name
            assert got.representing == expected_rep, name

            planar = Pushforward2D(mu1, *coeffs)
            growth = check_growth(planar, CFG_NESTED)
            growth_ok = growth.converged and not growth.diverged
            nevan_ok = growth_ok
            if growth_ok:
                scale_cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-9)
                for z in default_z_grid(2, 25):
                    v = check_nevanlinna_2var(planar, z, CFG_NESTED)
                    s = nevanlinna_modulus_scale(planar, z, scale_cfg)
                    if abs(v.value) > max(1e-8, 1e-8 * s):
                        nevan_ok = False
                        break
            assert (growth_ok and nevan_ok) == expected_rep, name


def test_criterion_7_residue_quadrature_cross_validation():
    with criterion(7, "residue oracle vs quadrature, closed inner-integral forms"):
        rng = rng_for(1007)
        for _ in range(200):
            f = draw_admissible_rational(rng)
            oracle = line_integral(f)
            quad = integrate(lebesgue(), f, CFG)
            assert abs(quad.value - oracle) <= 1e-8 * abs(oracle)

        for i in range(20):
            rng = rng_for(1007, 1 + i)
            al, ga = rng.uniform(-2, 2, 2)
            t1 = float(rng.uniform(-2, 2))
            z1 = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2))
            z2 = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2))

            # beta = 0: inner growth integral is pi/|delta| over a Lorentzian.
            de = float(rng.uniform(0.3, 3) * rng.choice([-1.0, 1.0]))
            got = line_integral(growth_inner_rational(al, 0.0, ga, de, t1))
            want = (1.0 / (al * al * t1 * t1 + 1.0)) * PI / abs(de)
            assert abs(got - want) <= 1e-8 * abs(want)

            # beta*delta < 0 growth: pi(beta-delta)/(t1^2 det^2 + (beta-delta)^2).
            be, de = float(rng.uniform(0.3, 3)), -float(rng.uniform(0.3, 3))
            got = line_integral(growth_inner_rational(al, be, ga, de, t1))
            det2 = (be * ga - al * de) ** 2
            want = PI * (be - de) / (t1 * t1 * det2 + (be - de) ** 2)
            assert abs(got - want) <= 1e-8 * abs(want)

            # beta*delta < 0 Nevanlinna: identically zero.
            got = line_integral(nevanlinna_inner_rational(al, be, ga, de, t1, z1, z2))
            assert abs(got) <= 1e-8

            # beta, delta > 0 Nevanlinna: 4 pi i beta delta / W^3.
            be, de = float(rng.uniform(0.3, 3)), float(rng.uniform(0.3, 3))
            got = line_integral(nevanlinna_inner_rational(al, be, ga, de, t1, z1, z2))
            w = (al * de - be * ga) * t1 - de * z1 + be * z2.conjugate()
            want = 4j * PI * be * de / w ** 3
            assert abs(got - want) <= 1e-8 * abs(want)


def _herglotz_fixture_suite():
    pd0 = Atomic.single(PI, 0.0)
    atoms = Atomic((((-1.0,), PI), ((2.0,), 1.0)))
    return [
        ("inverse", RepresentationData(0.0, (0.0,), pd0)),
        ("affine", RepresentationData(1.0, (0.0, 2.0), zero_measure(2))),
        ("atoms", RepresentationData(0.5, (0.7,), atoms)),
        ("halfway", RepresentationData(0.0, (0.0, 0.0),
                                       PushforwardLadder(pd0, (1.0,), 2.0))),
        ("padded", RepresentationData(0.0, (0.0, 0.0), Product((pd0, lebesgue())))),
    ]


def test_criterion_8_herglotz_positivity():
    with criterion(8, "imaginary part nonnegative at 200 interior samples per fixture"):
        for i, (name, data) in enumerate(_herglotz_fixture_suite()):
            rep = check_herglotz(data, sample_count=200, seed=1008 + i,
                                 cfg=CFG_NESTED, tolerance=1e-10)
            assert rep.passed, (name, rep.min_imag)


def test_criterion_9_zero_coefficient_corollary():
    with criterion(9, "zero coefficients: product padding and reduced combination"):
        pd0 = Atomic.single(PI, 0.0)
        data = RepresentationData(0.0, (0.0,), pd0)

        # k = (1,0) and (0,1) reproduce the product measures.
        out10 = transform_general(data, (1.0, 0.0))
        out01 = transform_general(data, (0.0, 1.0))
        assert out10.mu == Product((pd0, lebesgue()))
        assert out01.mu == Product((lebesgue(), pd0))
        boxes = [Box(((-1, 1), (0, 2))), Box(((-0.5, 0.5), (-3, -1)))]
        for box in boxes:
            assert abs(mass(out10.mu, box, CFG).value
                       - mass(Product((pd0, lebesgue())), box, CFG).value) <= 1e-9
        rng = rng_for(1009)
        for _ in range(5):
            z = draw_upper_point(rng, 2)
            assert abs(evaluate(out10, z, CFG) - (-1.0 / z[0])) <= 1e-9
            assert abs(evaluate(out01, z, CFG) - (-1.0 / z[1])) <= 1e-9

        # One zero among three: matches the reduced two-variable combination.
        out = transform_general(data, (0.5, 0.0, 0.5))
        worst = 0.0
        for _ in range(20):
            z = draw_upper_point(rng, 3)
            want = -1.0 / (0.5 * z[0] + 0.5 * z[2])
            got = evaluate(out, z, CFG_NESTED)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        assert worst <= 1e-7, worst


def test_criterion_10_cli_contract(tmp_path):
    with criterion(10, "CLI golden files, seeded determinism, exit codes"):
        golden = Path(__file__).parent / "golden"
        doc = {"schema": "nvk-1", "a": 0.0, "b": [0.0],
               "measure": {"type": "atomic", "dimension": 1, "atoms": [[0.0, PI]]}}
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))

        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["eval", str(q), "--z", "0+1i", "--z", "1+1i"])
        assert rc == 0
        assert buf.getvalue() == (golden / "eval_inverse.json").read_text()

        out = tmp_path / "t.json"
        with redirect_stdout(io.StringIO()):
            rc = main(["transform", str(q), "--k", "0.5,0.5", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == (golden / "transform_half.json").read_text()

        # Round-trip: the emitted descriptor re-parses and evaluates.
        from nvk.descriptors import data_from_json
        tilde = data_from_json(json.loads(out.read_text()))
        assert abs(evaluate(tilde, (1j, 1j), CFG) - 1j) <= 1e-9

        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        with redirect_stdout(io.StringIO()):
            main(["verify", "--suite", "ladder", "--n", "2", "--samples", "3",
                  "--seed", "5", "--out", str(r1)])
            main(["verify", "--suite", "ladder", "--n", "2", "--samples", "3",
                  "--seed", "5", "--out", str(r2)])
        assert r1.read_text() == r2.read_text()

        with redirect_stdout(io.StringIO()):
            assert main(["eval", str(q), "--z", "0-1i"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": "nvk-1", "a": 0.0, "b": [0.0, 0.0],
            "measure": {"type": "lebesgue", "dimension": 2, "density": "1+t1^2"}}))
        with redirect_stdout(io.StringIO()):
            assert main(["eval", str(bad), "--z", "0+1i,0+1i"]) == 3
