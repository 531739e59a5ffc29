"""Residue oracle: pole finding, residues, line integrals."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from nvk.errors import DomainError, InconsistencyError
from nvk.kernels import ladder_kernel, ladder_kernel_full
from nvk.measures import integrate, lebesgue
from nvk.residues import RationalFunction, find_poles, line_integral, residue_at
from nvk.sampling import rng_for
from rational_draws import draw_admissible_rational

PI = math.pi


def _poles_as_dict(f):
    return {complex(round(p.real, 6), round(p.imag, 6)): m for p, m in find_poles(f)}


_UNIT_PAIR = [(-1j, 1, 1), (1j, 1, 1)]  # (x - i)(x + i) = 1 + x^2


def test_find_poles_simple_pair():
    f = RationalFunction((1,), _UNIT_PAIR)
    assert _poles_as_dict(f) == {1j: 1, -1j: 1}


def test_find_poles_double_pair():
    # The squared-factor family from the Nevanlinna inner integral with
    # unit parameters has double poles at z1 = i and conj(z2) = -i.
    g = RationalFunction((1.0,), [(-1j, 1.0, 2), (1j, 1.0, 2)])
    assert _poles_as_dict(g) == {1j: 2, -1j: 2}


def test_find_poles_triple():
    f = RationalFunction((1.0,), [(-1j, 1.0, 3)])
    assert _poles_as_dict(f) == {1j: 3}


def test_find_poles_keeps_roots_shared_with_the_numerator():
    # (x - i) / ((x - i)(x + 2i)(x - 3i)): the shared root stays a pole, with
    # residue 0, and the integral is that of 1/((x + 2i)(x - 3i)).
    f = RationalFunction((-1j, 1), [(-1j, 1, 1), (2j, 1, 1), (-3j, 1, 1)])
    assert _poles_as_dict(f) == {1j: 1, -2j: 1, 3j: 1}
    assert residue_at(f, 1j, 1) == 0
    reduced = RationalFunction((1,), [(2j, 1, 1), (-3j, 1, 1)])
    assert abs(line_integral(f) - line_integral(reduced)) < 1e-15
    assert abs(line_integral(reduced) - 2 * PI / 5) < 1e-15


def test_proportional_factors_are_one_pole():
    # 3x - 3i and x - i have the same root: one double pole at i.
    f = RationalFunction((1,), [(-3j, 3, 1), (-1j, 1, 1), (1j, 1, 2)])
    assert find_poles(f) == [(1j, 2), (-1j, 2)]
    assert abs(line_integral(f) - PI / 6) < 1e-15


def test_residue_values():
    f = RationalFunction((1,), _UNIT_PAIR)
    assert abs(residue_at(f, 1j, 1) - 1 / 2j) < 1e-15
    f2 = RationalFunction((1,), [(-1j, 1, 2), (1j, 1, 2)])
    assert abs(residue_at(f2, 1j, 2) - (-0.25j)) < 1e-14
    assert abs(line_integral(f2) - PI / 2) < 1e-14


def test_residue_linearity():
    f = RationalFunction((1, 2j), _UNIT_PAIR)
    g = RationalFunction((3,), _UNIT_PAIR)
    s = RationalFunction(tuple(P.polyadd((1, 2j), (3,))), _UNIT_PAIR)
    assert abs(residue_at(s, 1j, 1)
               - residue_at(f, 1j, 1) - residue_at(g, 1j, 1)) < 1e-14


def test_line_integral_growth_inner_fixture():
    # (alpha, beta, gamma, delta) = (0, 1, 0, -1) at t1 = 0 reduces to
    # 1/(1+x^2)^2, with closed form pi(beta-delta)/(...) = pi/2.
    f = RationalFunction((1.0,), [(-1j, 1, 1), (1j, 1, 1), (-1j, -1, 1), (1j, -1, 1)])
    assert abs(line_integral(f) - PI / 2) < 1e-14


def test_line_integral_opposite_sign_double_poles_vanish():
    z1, z2 = 0.3 + 2j, -0.5 + 1j
    g = RationalFunction((1.0,), [(0.3 * 0.5 - z1, 1.2, 2), (-0.4 * 0.5 - z2.conjugate(), -0.9, 2)])
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
    # 2 (u1 - z1)(u1 - i)(u1 + i)(u2 - z2)(u2 - i)(u2 + i) as linear factors in t2.
    factors = [(2.0, 0.0, 1)] + [(c, u[1], 1) for u, w in ((u1, z1), (u2, z2))
                                 for c in (-w, -1j, 1j)]
    return RationalFunction(tuple(num), factors)


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
        line_integral(RationalFunction((1, 2), _UNIT_PAIR))


def test_real_pole_error():
    with pytest.raises(DomainError, match="real pole"):
        line_integral(RationalFunction((1,), [(0, 1, 2)]))


def test_multiplicity_inconsistency():
    f = RationalFunction((1,), _UNIT_PAIR)
    with pytest.raises(InconsistencyError):
        residue_at(f, 1j, 2)
    with pytest.raises(InconsistencyError):
        residue_at(f, 2j, 1)  # not a pole
    g = RationalFunction((1.0,), [(-1j, 1.0, 2), (1j, 1.0, 1)])
    with pytest.raises(InconsistencyError):
        residue_at(g, 1j, 1)  # actual multiplicity is higher


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        RationalFunction((1,), [(0, 0, 1)])


@pytest.mark.parametrize("power", [0, -1, 1.5])
def test_factor_power_below_one_or_fractional_rejected(power):
    with pytest.raises(DomainError):
        RationalFunction((1,), [(-1j, 1, power)])


def test_multiplicity_below_one_rejected():
    with pytest.raises(DomainError, match="multiplicity"):
        residue_at(RationalFunction((1,), _UNIT_PAIR), 1j, 0)


def test_trailing_zero_numerator_coefficients_are_trimmed():
    f = RationalFunction((1, 2, 0, 0), [(-1j, 1, 2), (1j, 1, 2)])
    assert f.num == (1, 2) and f.num_degree == 1 and f.den_degree == 4
    assert RationalFunction((0, 0), _UNIT_PAIR).num_degree == -1


def test_constant_factors_scale_without_poles():
    # beta = 0 in the growth fixture: two factors are constants.
    f = RationalFunction((1,), [(2 - 1j, 0, 1), (2 + 1j, 0, 1), (-1j, 1, 1), (1j, 1, 1)])
    assert find_poles(f) == [(1j, 1), (-1j, 1)]
    assert f.den_degree == 2
    assert abs(line_integral(f) - PI / 5) < 1e-15


def test_triple_poles_with_polynomial_numerators():
    # int dx/(1+x^2)^3 = 3 pi/8 and int x^2 dx/(1+x^2)^3 = pi/8.
    cube = [(-1j, 1, 3), (1j, 1, 3)]
    assert abs(line_integral(RationalFunction((1,), cube)) - 3 * PI / 8) < 1e-15
    assert abs(line_integral(RationalFunction((0, 0, 1), cube)) - PI / 8) < 1e-15


def _lorentzian_integrand(c, s, z):
    """(1/pi) K_1(z, t) times the Lorentzian density s/((t - c)^2 + s^2)."""
    return RationalFunction((s / PI, s * z / PI), [
        (-z, 1, 1), (-1j, 1, 1), (1j, 1, 1), (-c - 1j * s, 1, 1), (-c + 1j * s, 1, 1)])


def _lorentzian_value(c, s, z):
    return 1 / (c - 1j * s - z) - (1 / (c - 1j * (1 + s))).real


def test_lorentzian_sweep_matches_closed_form():
    # Narrow peaks far out are where expanded coefficients lost digits.
    rng = np.random.default_rng(2024)
    for _ in range(300):
        c = rng.uniform(-30, 30)
        s = 10 ** rng.uniform(-2.5, 1.5)
        z = complex(rng.uniform(-5, 5), rng.uniform(0.03, 3))
        want = _lorentzian_value(c, s, z)
        assert abs(line_integral(_lorentzian_integrand(c, s, z)) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("c,s,z", [
    # Built from expanded coefficients, this draw failed the upper/lower check.
    (5.572803258367692, 0.0108373155088691, 4.7441974588506035 + 0.8457942412725482j),
    # And this one was off by 1.9e-9 relative.
    (-15.54, 0.0034, -4.89 + 2.82j),
])
def test_lorentzian_named_cases(c, s, z):
    want = _lorentzian_value(c, s, z)
    assert abs(line_integral(_lorentzian_integrand(c, s, z)) - want) <= 1e-13 * abs(want)
