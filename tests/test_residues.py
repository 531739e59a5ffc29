"""Residue oracle: pole finding, residues, line integrals."""

import math

import pytest
from numpy.polynomial import polynomial as P

from nvk.errors import DomainError, InconsistencyError
from nvk.kernels import ladder_kernel, ladder_kernel_full
from nvk.measures import integrate, lebesgue
from nvk.residues import RationalFunction, find_poles, line_integral, residue_at
from nvk.sampling import draw_admissible_rational, rng_for

PI = math.pi


def _poles_as_dict(f):
    return {complex(round(p.real, 6), round(p.imag, 6)): m for p, m in find_poles(f)}


def test_find_poles_simple_pair():
    f = RationalFunction((1,), (1, 0, 1))
    assert _poles_as_dict(f) == {1j: 1, -1j: 1}


def test_find_poles_double_pair():
    # The squared-factor family from the Nevanlinna inner integral with
    # unit parameters has double poles at z1 = i and conj(z2) = -i.
    g = RationalFunction.from_linear_factors(1.0, [(-1j, 1.0, 2), (1j, 1.0, 2)])
    assert _poles_as_dict(g) == {1j: 2, -1j: 2}


def test_find_poles_triple():
    f = RationalFunction.from_linear_factors(1.0, [(-1j, 1.0, 3)])
    assert _poles_as_dict(f) == {1j: 3}


def test_find_poles_cancels_common_roots():
    num = (-1j, 1)
    den = tuple(P.polymul((-1j, 1), (2j, 1)))
    assert _poles_as_dict(RationalFunction(num, den)) == {-2j: 1}


def test_residue_values():
    f = RationalFunction((1,), (1, 0, 1))
    assert abs(residue_at(f, 1j, 1) - 1 / 2j) < 1e-15
    f2 = RationalFunction((1,), tuple(P.polymul((1, 0, 1), (1, 0, 1))))
    assert abs(residue_at(f2, 1j, 2) - (-0.25j)) < 1e-14
    assert abs(line_integral(f2) - PI / 2) < 1e-14


def test_residue_linearity():
    den = (1, 0, 1)
    f = RationalFunction((1, 2j), den)
    g = RationalFunction((3,), den)
    s = RationalFunction(tuple(P.polyadd((1, 2j), (3,))), den)
    assert abs(residue_at(s, 1j, 1)
               - residue_at(f, 1j, 1) - residue_at(g, 1j, 1)) < 1e-14


def test_line_integral_growth_inner_fixture():
    # (alpha, beta, gamma, delta) = (0, 1, 0, -1) at t1 = 0 reduces to
    # 1/(1+x^2)^2, with closed form pi(beta-delta)/(...) = pi/2.
    f = RationalFunction.from_linear_factors(
        1.0, [(-1j, 1, 1), (1j, 1, 1), (-1j, -1, 1), (1j, -1, 1)])
    assert abs(line_integral(f) - PI / 2) < 1e-14


def test_line_integral_opposite_sign_double_poles_vanish():
    z1, z2 = 0.3 + 2j, -0.5 + 1j
    g = RationalFunction.from_linear_factors(
        1.0, [(0.3 * 0.5 - z1, 1.2, 2), (-0.4 * 0.5 - z2.conjugate(), -0.9, 2)])
    assert abs(line_integral(g)) < 1e-10


def _ladder_kernel_rational_in_t2(z, b1):
    """The two-variable composed kernel at t1 = 0 as a rational function of t2."""
    z1, z2 = z
    # Image coordinates u1 = -b1 t2, u2 = t2.
    u1 = (0.0, -b1)
    u2 = (0.0, 1.0)
    lin = lambda c, u: P.polyadd((c,), u)  # c + u(t2)
    num = P.polysub(
        (-1j) * P.polymul(P.polymul(lin(-1j, u1), ((z1 + 1j),)),
                          P.polymul(lin(-1j, u2), ((z2 + 1j),))),
        2j * P.polymul(lin(-z1, u1), lin(-z2, u2)),
    )
    den = 2.0 * P.polymul(
        P.polymul(P.polymul(lin(-z1, u1), lin(-1j, u1)), lin(1j, u1)),
        P.polymul(P.polymul(lin(-z2, u2), lin(-1j, u2)), lin(1j, u2)),
    )
    return RationalFunction(tuple(num), tuple(den))


def test_line_integral_ladder_rung_fixture():
    # Integrating the composed two-variable kernel over t2 produces the
    # once-integrated kernel with prefactor pi/b1.
    z = (1j, 2j)
    b1 = 1.0
    f = _ladder_kernel_rational_in_t2(z, b1)
    spot = f(0.7)
    direct = ladder_kernel_full(z, (0.0, 0.7), (b1,))
    assert abs(spot - direct) < 1e-13
    got = line_integral(f)
    want = PI / b1 * ladder_kernel(z, (0.0,), (b1,), 1, 1)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_upper_lower_cross_check_and_quadrature_agreement():
    rng = rng_for(77)
    for _ in range(30):
        f = draw_admissible_rational(rng)
        oracle = line_integral(f)
        poles = find_poles(f)
        up = 2j * PI * sum(residue_at(f, p, m) for p, m in poles if p.imag > 0)
        lo = -2j * PI * sum(residue_at(f, p, m) for p, m in poles if p.imag < 0)
        assert abs(up - lo) <= 1e-10
        quad = integrate(lebesgue(), f)
        assert abs(quad.value - oracle) <= 1e-8 * abs(oracle)


def test_degree_condition_error():
    with pytest.raises(DomainError, match="arc contribution"):
        line_integral(RationalFunction((1, 2), (1, 0, 1)))


def test_real_pole_error():
    with pytest.raises(DomainError, match="real pole"):
        line_integral(RationalFunction((1,), (0, 0, 1)))


def test_multiplicity_inconsistency():
    f = RationalFunction((1,), (1, 0, 1))
    with pytest.raises(InconsistencyError):
        residue_at(f, 1j, 2)
    g = RationalFunction.from_linear_factors(1.0, [(-1j, 1.0, 2), (1j, 1.0, 1)])
    with pytest.raises(InconsistencyError):
        residue_at(g, 1j, 1)  # actual multiplicity is higher


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        RationalFunction((1,), (0,))
