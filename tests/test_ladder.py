"""Ladder rung identities and the end-to-end transform verification."""

import cmath
import math

import pytest

from nvk.errors import DomainError
from nvk.kernels import kernel_1d, ladder_kernel_full, ladder_weight, ladder_z_sum
from nvk.ladder import (
    ladder_closed_form,
    rung_prefactors,
    verify_final_step,
    verify_full_reduction,
    verify_main_theorem,
    verify_step,
)
from nvk.measures import (
    Atomic,
    LebesgueDensity,
    Product,
    PushforwardLadder,
    integrate,
    lebesgue,
    zero_measure,
)
from nvk.quadrature import QuadratureConfig
from nvk.representation import RepresentationData, evaluate
from nvk.sampling import (
    draw_atomic_data,
    draw_convex_coefficients,
    draw_ladder_coefficients,
    draw_upper_point,
    rng_for,
)
from nvk.transform import ladder_to_coefficients, transform

PI = math.pi


def test_middle_rung_spot(cfg):
    lhs, rhs = verify_step(3, 0, (1.0, 1.0), (1j, 1j, 1j), (0.0, 0.0), cfg)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_two_rung_descent(cfg):
    rng = rng_for(20)
    for _ in range(4):
        b = draw_ladder_coefficients(rng, 4)
        z = draw_upper_point(rng, 4)
        t = tuple(rng.uniform(-2, 2, 3))
        lhs, rhs = verify_step(4, 0, b, z, t, cfg)
        assert abs(lhs - rhs) <= 1e-7 * abs(rhs)
        lhs, rhs = verify_step(3, 1, b, z, t[:2], cfg)
        assert abs(lhs - rhs) <= 1e-7 * abs(rhs)


def test_rung_prefactor_scales_with_coefficient(cfg):
    # Doubling b_{m-1} halves the pi/b_{m-1} prefactor; the recomputed
    # right side still matches quadrature of the rescaled kernel.
    z = (0.5 + 1j, -0.2 + 0.8j, 1.5j)
    t = (0.4, -0.3)
    b1 = (0.7, 0.9)
    b2 = (0.7, 1.8)
    lhs1, rhs1 = verify_step(3, 0, b1, z, t, cfg)
    lhs2, rhs2 = verify_step(3, 0, b2, z, t, cfg)
    assert abs(lhs1 - rhs1) <= 1e-7 * abs(rhs1)
    assert abs(lhs2 - rhs2) <= 1e-7 * abs(rhs2)


def test_final_rung_two_variables(cfg):
    lhs, rhs = verify_final_step(2, (1.0,), (1j, 1j), 0.0, cfg)
    assert abs(rhs - PI * 1j / 2) < 1e-15
    assert abs(lhs - rhs) <= 1e-8


def test_final_rung_three_variables(cfg):
    lhs, rhs = verify_final_step(3, (0.5, 1.0), (1j, 1j, 1j), 0.0, cfg)
    # prod_{j=2}^{2} b_j / beta_3 = 1 / 2
    assert abs(rhs - PI * 0.5 * kernel_1d(1j, 0.0)) < 1e-15
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_weighted_sums_reproduce_convex_combination():
    # The ratio of the fully-integrated weighted sums equals the convex
    # combination of the coordinates.
    rng = rng_for(21)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        b = draw_ladder_coefficients(rng, n)
        z = draw_upper_point(rng, n)
        ks = ladder_to_coefficients(b)
        ratio = ladder_z_sum(1, n - 1, b, z) / ladder_weight(1, n - 1, b)
        want = sum(k * zj for k, zj in zip(ks, z))
        assert abs(ratio - want) <= 1e-13 * abs(want)


def test_full_reduction_two_variables(cfg):
    lhs, rhs = verify_full_reduction(2, (1.0,), (1j, 1j), 0.0, cfg)
    assert abs(rhs - PI * 1j / 2) < 1e-15
    assert abs(lhs - rhs) <= 1e-8


def test_full_reduction_three_variables(cfg_nested):
    lhs, rhs = verify_full_reduction(3, (1.0, 1.0), (1j, 2j, 3j), 1.0, cfg_nested)
    assert abs(rhs - PI ** 2 / 3 * kernel_1d(2j, 1.0)) < 1e-15
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


@pytest.mark.parametrize("n", [2, 3])
def test_full_reduction_integrates_the_public_kernel(n, cfg):
    # The verifier checks its inputs once and integrates the kernel's core;
    # the value is the public kernel's integral bit for bit.
    b, z, t1 = (0.8, 1.3)[:n - 1], (0.1 + 1j, -0.2 + 0.8j, 0.3 + 1.2j)[:n], 0.15
    lhs, _ = verify_full_reduction(n, b, z, t1, cfg)
    r = integrate(Product((lebesgue(),) * (n - 1)),
                  lambda *rest: ladder_kernel_full(z, (t1,) + rest, b), cfg)
    assert lhs == r.value


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 1e-310])
def test_verifiers_reject_bad_coefficients_before_integrating(bad, cfg, monkeypatch):
    from nvk import quadrature

    def no_panels(*args):
        raise AssertionError("integrated before checking b")

    monkeypatch.setattr(quadrature, "_panels", no_panels)
    z = (0.1 + 1j, -0.2 + 0.8j, 0.3 + 1.2j)
    with pytest.raises(DomainError):
        verify_step(3, 0, (1.0, bad), z, (0.1, 0.2), cfg)
    with pytest.raises(DomainError):
        verify_final_step(3, (bad, 1.0), z, 0.1, cfg)
    with pytest.raises(DomainError):
        verify_full_reduction(3, (1.0, bad), z, 0.1, cfg)
    # A wrong len(z), a wrong len(b) and n = 1 are caught by the same checks.
    for call in (lambda: verify_step(3, 0, (1.0, 1.0), z[:2], (0.1, 0.2), cfg),
                 lambda: verify_step(3, 0, (1.0,), z, (0.1, 0.2), cfg),
                 lambda: verify_final_step(3, (1.0, 1.0), z[:2], 0.1, cfg),
                 lambda: verify_final_step(3, (1.0,), z, 0.1, cfg),
                 lambda: verify_final_step(1, (), z[:1], 0.1, cfg),
                 lambda: verify_full_reduction(3, (1.0, 1.0), z[:2], 0.1, cfg),
                 lambda: verify_full_reduction(3, (1.0,), z, 0.1, cfg),
                 lambda: verify_full_reduction(1, (), z[:1], 0.1, cfg)):
        with pytest.raises(DomainError):
            call()


def test_full_reduction_large_n_rejected(cfg):
    with pytest.raises(DomainError):
        verify_full_reduction(4, (1.0, 1.0, 1.0), (1j, 1j, 1j, 1j), 0.0, cfg)


def test_rung_prefactors_telescope():
    rng = rng_for(22)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        b = draw_ladder_coefficients(rng, n)
        got, want = rung_prefactors(b)
        assert abs(got - want) <= 1e-13 * want


def test_ladder_closed_form_matches_quadrature(pi_delta0, cfg):
    from nvk.measures import integrate
    from nvk.kernels import kernel_nd_rational

    mu = PushforwardLadder(pi_delta0, (1.0,), 2.0)
    z = (0.3 + 1.1j, -0.6 + 0.7j)
    closed = ladder_closed_form(z, mu)
    quad = integrate(mu, lambda *ts: kernel_nd_rational(z, ts), cfg)
    assert abs(closed - quad.value) <= 1e-8 * abs(closed)


def test_main_theorem_inverse_function(pi_delta0, cfg):
    data = RepresentationData(0.0, (0.0,), pi_delta0)
    rng = rng_for(23)
    zs = [draw_upper_point(rng, 2) for _ in range(5)]
    rep = verify_main_theorem(data, (0.5, 0.5), zs, cfg)
    assert rep.max_closed_form_error <= 1e-12
    assert rep.max_quadrature_error <= 1e-7
    for z, (reference, _, _) in zip(zs, rep.samples):
        assert abs(reference - (-2.0 / (z[0] + z[1]))) < 1e-13


def test_main_theorem_three_variables_closed_path(cfg):
    rng = rng_for(24)
    data = draw_atomic_data(rng)
    zs = [draw_upper_point(rng, 3) for _ in range(5)]
    rep = verify_main_theorem(data, (0.5, 0.25, 0.25), zs, cfg, quadrature=False)
    assert rep.max_closed_form_error <= 1e-12


def test_main_theorem_three_variables_quadrature_path(pi_delta0):
    data = RepresentationData(0.2, (0.4,), pi_delta0)
    rng = rng_for(26)
    k = (0.5, 0.3, 0.2)
    zs = [draw_upper_point(rng, 3) for _ in range(20)]
    rep = verify_main_theorem(data, k, zs, QuadratureConfig(rel_tol=1e-7, abs_tol=1e-10))
    assert rep.max_quadrature_error <= 1e-7
    assert rep.max_closed_form_error <= 1e-12


def test_main_theorem_closed_path_scales_to_five_variables(cfg):
    rng = rng_for(27)
    data = draw_atomic_data(rng)
    k = draw_convex_coefficients(rng, 5)
    zs = [draw_upper_point(rng, 5) for _ in range(5)]
    rep = verify_main_theorem(data, k, zs, cfg, quadrature=False)
    assert rep.max_closed_form_error <= 1e-12


def test_main_theorem_closed_path_on_zero_measure_data(cfg):
    # The transformed measure is zero, so the closed form is the linear part.
    data = RepresentationData(0.3, (1.5,), zero_measure(1))
    rng = rng_for(28)
    zs = [draw_upper_point(rng, 3) for _ in range(5)]
    rep = verify_main_theorem(data, (0.5, 0.25, 0.25), zs, cfg, quadrature=False)
    assert rep.max_closed_form_error <= 1e-15
    # max() would pass over a NaN, so check each closed value is finite.
    assert all(cmath.isfinite(closed) for _, closed, _ in rep.samples)


def test_main_theorem_needs_a_path_to_run(pi_delta0):
    # A zero coefficient rules out the closed form; with the quadrature path
    # off as well, nothing would be compared, so no report comes back.
    data = RepresentationData(0.0, (0.0,), pi_delta0)
    with pytest.raises(DomainError, match="quadrature path"):
        verify_main_theorem(data, (0.5, 0.0, 0.5), [(1j, 1j, 1j)], quadrature=False)


def test_main_theorem_zero_coefficient_routes_through_general(pi_delta0, cfg_nested):
    data = RepresentationData(0.0, (0.0,), pi_delta0)
    rng = rng_for(25)
    zs = [draw_upper_point(rng, 2) for _ in range(3)]
    rep = verify_main_theorem(data, (1.0, 0.0), zs, cfg_nested)
    assert rep.max_closed_form_error == 0.0  # closed path not exercised
    assert rep.max_quadrature_error <= 1e-7


def test_ladder_suite_rows_cover_every_rung():
    # Each sample of the n = 4 ladder suite checks the rungs (4,0), (3,1)
    # and the final (2,2) on its own random draw.
    from nvk.cli import SUITE_PASS_TOL, suite_rows

    for index in range(4):
        rows = suite_rows("ladder", 4, 3, index, None)
        assert [row["inputs"].split(";")[0] for row in rows] == \
            ["rung=(4,0)", "rung=(3,1)", "rung=final"]
        assert max(row["rel_error"] for row in rows) <= SUITE_PASS_TOL["ladder"]


def test_verify_step_preconditions(cfg):
    with pytest.raises(DomainError):
        verify_step(2, 0, (1.0,), (1j, 1j), (0.0,), cfg)
    with pytest.raises(DomainError, match="first m - 1"):
        verify_step(3, 0, (1.0, 1.0), (1j, 1j, 1j), (0.0,), cfg)


def test_ladder_closed_form_preconditions(pi_delta0):
    with pytest.raises(DomainError, match="atomic base"):
        ladder_closed_form((1j, 1j), PushforwardLadder(lebesgue(), (1.0,), 1.0))
    with pytest.raises(DomainError, match="dimension"):
        ladder_closed_form((1j, 1j, 1j), PushforwardLadder(pi_delta0, (1.0,), 1.0))


def test_main_theorem_preconditions(pi_delta0, cfg):
    two = RepresentationData(0.0, (0.0, 0.0), Product((pi_delta0, pi_delta0)))
    with pytest.raises(DomainError, match="one-variable"):
        verify_main_theorem(two, (0.5, 0.5), [(1j, 1j)], cfg)
    density = RepresentationData(0.0, (0.0,), LebesgueDensity(1, lambda t: 1.0 / (1.0 + t * t)))
    with pytest.raises(DomainError, match="atomic base"):
        verify_main_theorem(density, (0.5, 0.5), [(1j, 1j)], cfg)


@pytest.mark.parametrize("n, k, z", [
    (3, (0.2, 0.3, 0.5), (0.1 + 1j, -0.3 + 0.8j, 0.2 + 1.2j)),
    (4, (0.1, 0.2, 0.3, 0.4), (0.1 + 1j, -0.3 + 0.8j, 0.2 + 1.2j, 0.4 + 0.5j)),
])
def test_transformed_atomic_evaluation_matches_closed_form(n, k, z):
    # Nested quadrature over n - 1 batched ladder levels, atoms as rows.
    atoms = (((0.3,), 1.5),) if n == 4 else (((0.3,), 1.5), ((-0.2,), 0.7))
    _check_transformed_atomic(n, k, z, atoms)


@pytest.mark.parametrize("n, k, z, atoms", [
    (3, (0.2, 0.3, 0.5), (0.1 + 1j, -0.3 + 0.8j, 0.2 + 1.2j), (((50.0,), 1.5),)),
    (3, (0.5, 0.3, 0.2), (0.4 + 0.6j, -0.3 + 0.8j, 0.2 + 1.2j), (((-50.0,), 0.8), ((0.1,), 1.1))),
    pytest.param(4, (0.1, 0.2, 0.3, 0.4), (0.1 + 1j, -0.3 + 0.8j, 0.2 + 1.2j, 0.4 + 0.5j),
                 (((-50.0,), 1.5),), marks=pytest.mark.slow),
])
def test_transformed_far_atom_evaluation_matches_closed_form(n, k, z, atoms):
    # An atom at |x| = 50 puts the two centre lines of most ladder rows far
    # apart, so those rows are split into two half-line rows.  The error
    # estimate, which adds up the estimates of both halves, must still bound
    # the actual error.
    error, estimate = _check_transformed_atomic(n, k, z, atoms)
    assert error <= estimate


def _check_transformed_atomic(n, k, z, atoms):
    """Assert ``evaluate(transform(...))`` matches the closed form; return
    the actual error and the reported error estimate."""
    tilde = transform(RepresentationData(0.2, (0.4,), Atomic(atoms)), k)
    quad, estimate = evaluate(tilde, z, QuadratureConfig(rel_tol=1e-7, abs_tol=1e-10),
                              full_output=True)
    linear = tilde.a + sum(bl * zl for bl, zl in zip(tilde.b, z))
    closed = linear + ladder_closed_form(z, tilde.mu) / math.pi ** n
    assert abs(quad - closed) <= 1e-7 * max(1.0, abs(closed))
    return abs(quad - closed), estimate
