"""Growth/Nevanlinna checkers and the planar pushforward classifier."""

import itertools
import math

import numpy as np
import pytest

from nvk.cli import CLASSIFICATION_FIXTURES, fixture_base_measure
from nvk.conditions import (
    EVIDENCE_CONFIG,
    Case,
    MeasureTraits,
    check_cubic_condition,
    check_growth,
    check_nevanlinna_nvar,
    classify_pushforward2d,
    decided,
    default_z_grid,
    derive_traits,
    growth_inner_rational,
    growth_inner_value,
    nevanlinna_inner_rational,
    nevanlinna_grid,
    nevanlinna_inner_value,
    nevanlinna_zero_tolerance,
    vanishes,
)
from nvk.errors import DomainError
from nvk.measures import (
    Atomic,
    LebesgueDensity,
    Product,
    Pushforward2D,
    integrate,
    integrate_many,
    lebesgue,
    zero_measure,
)
from nvk.quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureResult
from nvk.residues import line_integral
from nvk.sampling import rng_for
from nvk.transform import transform
from nvk.representation import RepresentationData

PI = math.pi
GENERIC_Z2 = (0.5 + 1.5j, -0.3 + 0.8j)


def test_growth_product(pi_delta0, cfg):
    r = check_growth(Product((pi_delta0, lebesgue())), cfg)
    assert r.converged
    assert abs(r.value - PI * PI) < 1e-9


def test_growth_antidiagonal_pushforward(pi_delta0, cfg):
    # Inner integral pi(beta-delta)/(t1^2(beta*gamma-alpha*delta)^2+(beta-delta)^2)
    # evaluated at the atom t1 = 0 gives pi/2.
    r = check_growth(Pushforward2D(pi_delta0, 1, 1, 1, -1), cfg)
    assert r.converged
    assert abs(r.value - PI * PI / 2) < 1e-9


def test_growth_divergent_density(cfg):
    r = check_growth(LebesgueDensity(2, density=lambda a, b: 1.0 + a * a), cfg)
    assert r.diverged


def test_nevanlinna_2var_antidiagonal_vanishes(pi_delta0, cfg):
    values, scales = nevanlinna_grid(Pushforward2D(pi_delta0, 1, 1, 1, -1), default_z_grid(2, 5), cfg)
    assert len(scales) == 5
    for v, s in zip(values, scales):
        assert abs(v.value) <= nevanlinna_zero_tolerance(s)


def test_nevanlinna_2var_diagonal_closed_form(pi_delta0, cfg):
    # beta*delta = 1 > 0 and zero determinant: the inner integral is
    # 4 pi i beta delta / (-delta z1 + beta conj(z2))^3 at the atom.
    mu = Pushforward2D(pi_delta0, 0, 1, 0, 1)
    (v,), _ = nevanlinna_grid(mu, [(1j, 1j)], cfg)
    assert abs(v.value - PI ** 2 / 2) < 1e-9
    z1, z2 = GENERIC_Z2
    (v,), _ = nevanlinna_grid(mu, [(z1, z2)], cfg)
    want = PI * 4j * PI / (-z1 + z2.conjugate()) ** 3
    assert abs(v.value - want) < 1e-8 * abs(want)


def test_nevanlinna_single_atom_cannot_cancel(cfg):
    mu = Atomic.single(1.0, 0.0, 0.0)
    z1, z2 = 1j, 2j
    (v,), _ = nevanlinna_grid(mu, [(z1, z2)], cfg)
    want = 1.0 / (z1 ** 2 * z2.conjugate() ** 2)
    assert abs(v.value - want) < 1e-12
    assert abs(v.value) > 1e-3


def test_nevanlinna_forms_agree_in_nullity(pi_delta0, cfg):
    # The sign-vector sum and the squared-kernel form are equivalent as
    # "for all z" conditions: on fixtures they vanish together.
    fixtures = [
        (Pushforward2D(pi_delta0, 1, 1, 1, -1), True),
        (Pushforward2D(pi_delta0, 1, 0, 1, 1), True),
        (Pushforward2D(pi_delta0, 0, 1, 0, 1), False),
        (Atomic.single(1.0, 0.0, 0.0), False),
    ]
    for mu, should_vanish in fixtures:
        v_sum = abs(check_nevanlinna_nvar(mu, GENERIC_Z2, cfg).value)
        v_sq = abs(nevanlinna_grid(mu, [GENERIC_Z2], cfg)[0][0].value)
        if should_vanish:
            assert v_sum < 1e-8 and v_sq < 1e-8
        else:
            assert v_sum > 1e-6 and v_sq > 1e-6


def test_nevanlinna_nvar_three_variable_atom(cfg):
    mu = Atomic.single(1.0, 0.0, 0.0, 0.0)
    z = (0.5 + 1.5j, -0.3 + 0.8j, 1.1 + 0.6j)
    v = check_nevanlinna_nvar(mu, z, cfg)
    assert abs(v.value) > 1e-3


@pytest.mark.parametrize("coeffs, zero", [
    ((1, 1, -1, -1), True), ((0, 1, 0, 1), False), ((1, 1, 1, 2), False)])
def test_nevanlinna_nvar_carries_the_modulus_of_its_terms(pi_delta0, cfg_nested, coeffs, zero):
    # The sum's modulus is the sum of its terms' moduli, so ``vanishes``
    # reads a cancelling sum against it and not against its absolute floor
    # alone (the modulus was nan).
    r = check_nevanlinna_nvar(Pushforward2D(pi_delta0, *coeffs), (0.3 + 0.8j, -0.2 + 1.1j),
                              cfg_nested)
    assert math.isfinite(r.modulus) and r.modulus >= abs(r.value)
    assert vanishes([r]) is zero


def test_transformed_measure_passes_both_conditions(pi_delta0, cfg_nested):
    data = RepresentationData(0.0, (0.0,), pi_delta0)
    mu = transform(data, (0.5, 0.25, 0.25)).mu
    g = check_growth(mu, cfg_nested)
    assert g.converged and not g.diverged
    rng = rng_for(42)
    for _ in range(2):
        z = tuple(rng.uniform(-2, 2) + 1j * rng.uniform(0.4, 2) for _ in range(3))
        v = check_nevanlinna_nvar(mu, z, cfg_nested)
        assert abs(v.value) <= 1e-7


@pytest.mark.parametrize(
    "name,coeffs,kind,expected_case,expected_rep", CLASSIFICATION_FIXTURES)
def test_classifier_decision_table(name, coeffs, kind, expected_case, expected_rep, cfg):
    mu1 = fixture_base_measure(kind)
    traits = derive_traits(mu1, cfg, coefficients=coeffs)
    got = classify_pushforward2d(*coeffs, traits)
    assert got.case == expected_case
    assert got.representing == expected_rep


def test_classifier_indeterminate_without_cubic_information():
    traits = MeasureTraits(False, True, True, None)
    got = classify_pushforward2d(1, 1, 1, 2, traits)
    assert got.case == Case.III2B
    assert got.representing is None


def test_traits_invariants():
    with pytest.raises(DomainError):
        MeasureTraits(is_zero=True, is_finite=False, satisfies_1var_growth=True)
    with pytest.raises(DomainError):
        MeasureTraits(is_zero=False, is_finite=True, satisfies_1var_growth=False)


def test_derive_traits(pi_delta0, cfg):
    tr = derive_traits(pi_delta0, cfg)
    assert (tr.is_zero, tr.is_finite, tr.satisfies_1var_growth) == (False, True, True)
    tr = derive_traits(lebesgue(), cfg, coefficients=(1, 1, 1, 2))
    assert (tr.is_zero, tr.is_finite, tr.satisfies_1var_growth) == (False, False, True)
    assert tr.satisfies_cubic_condition is True
    assert derive_traits(zero_measure(1), cfg) == MeasureTraits(True, True, True, True)


def test_cubic_condition(pi_delta0, cfg):
    assert check_cubic_condition(1.0, 2.0, 1.0, zero_measure(1), cfg=cfg)
    assert not check_cubic_condition(1.0, 2.0, 1.0, pi_delta0, [(1j, 1j)], cfg)
    assert check_cubic_condition(1.0, 2.0, 1.0, lebesgue(),
                                 [(1j, 1j), (0.5 + 2j, -1 + 1j)], cfg)
    with pytest.raises(DomainError):
        check_cubic_condition(0.0, 2.0, 1.0, pi_delta0, cfg=cfg)
    # Against t1^4 dt1 the cubic integral grows linearly and diverges; at
    # z = (i, i) its denominator is (t1 - 2i + conj(i))^3.  (Against t1^2
    # its odd tails cancel and it reads undecided instead.)
    quartic = LebesgueDensity(1, lambda t1: t1 ** 4)
    assert integrate(quartic, lambda t1: 1.0 / (t1 - 3j) ** 3, cfg).diverged
    assert not check_cubic_condition(1.0, 2.0, 1.0, quartic, [(1j, 1j)], cfg)


def test_growth_inner_closed_forms_match_oracle():
    rng = rng_for(5)
    for _ in range(15):
        al, ga = rng.uniform(-2, 2, 2)
        be = rng.uniform(0.3, 2) * rng.choice([-1.0, 1.0])
        de = rng.uniform(0.3, 2) * rng.choice([-1.0, 1.0])
        t1 = float(rng.uniform(-2, 2))
        got = line_integral(growth_inner_rational(al, be, ga, de, t1))
        want = growth_inner_value(al, be, ga, de, t1)
        assert abs(got - want) <= 1e-10 * abs(want)
    # beta = 0 and delta = 0 branches
    for al, be, ga, de in ((0.7, 0.0, -0.3, 1.4), (0.7, -1.3, -0.3, 0.0)):
        got = line_integral(growth_inner_rational(al, be, ga, de, 0.9))
        want = growth_inner_value(al, be, ga, de, 0.9)
        assert abs(got - want) <= 1e-12 * abs(want)
    # beta = delta = 0: the integrand is constant in the second variable.
    assert growth_inner_value(0.7, 0.0, -0.3, 0.0, 0.9) == math.inf


def test_nevanlinna_inner_closed_forms_match_oracle():
    rng = rng_for(6)
    for _ in range(15):
        al, ga = rng.uniform(-2, 2, 2)
        sign = float(rng.choice([-1.0, 1.0]))
        be, de = sign * rng.uniform(0.3, 2, 2)
        t1 = float(rng.uniform(-2, 2))
        z1 = rng.uniform(-2, 2) + 1j * rng.uniform(0.3, 2)
        z2 = rng.uniform(-2, 2) + 1j * rng.uniform(0.3, 2)
        got = line_integral(nevanlinna_inner_rational(al, be, ga, de, t1, z1, z2))
        want = nevanlinna_inner_value(al, be, ga, de, t1, z1, z2)
        assert abs(got - want) <= 1e-10 * abs(want)
    # Opposite signs: identically zero.
    got = line_integral(nevanlinna_inner_rational(0.3, 1.2, -0.4, -0.9, 0.5,
                                                  0.3 + 2j, -0.5 + 1j))
    assert abs(got) < 1e-10
    assert nevanlinna_inner_value(0.3, 1.2, -0.4, -0.9, 0.5, 0.3 + 2j, -0.5 + 1j) == 0


# Leading points of the grid for n = 3 (Halton bases 2, 3, 5, 7, 11, 13); the
# grids for n = 1 and 2 are their first coordinates.
_GRID_HEAD = (
    (complex(-10.0, 0.1),) * 3,
    (3.4j, -6 + 1.5142857142857145j, -8.181818181818182 + 0.8615384615384616j),
    (-5 + 6.699999999999999j, -2 + 2.928571428571429j, -6.363636363636363 + 1.6230769230769233j),
)
_GRID_LAST = (-8.125 + 3.033333333333333j, 9.200000000000003 + 4.948979591836735j,
              -6.033057851239669 + 8.535502958579883j)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_z_grid_pinned(n):
    grid = default_z_grid(n, 25)
    assert len(grid) == 25 and all(len(z) == n for z in grid)
    assert grid[:3] == [z[:n] for z in _GRID_HEAD]
    assert grid[24] == _GRID_LAST[:n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_z_grid_matches_scipy_halton(n):
    qmc = pytest.importorskip("scipy.stats.qmc")
    pts = qmc.Halton(d=2 * n, scramble=False).random(25)
    expected = [tuple((-10.0 + 20.0 * row[2 * j]) + 1j * (0.1 + 9.9 * row[2 * j + 1])
                      for j in range(n)) for row in pts]
    assert default_z_grid(n, 25) == expected


# A planar density growing fast enough that every Nevanlinna integral of it
# diverges.
_GROWING_2D = LebesgueDensity(2, density=lambda a, b: (1.0 + a ** 4) * (1.0 + b ** 4))


def _nvar_term_by_term(mu, z, cfg):
    """The sign-vector sum with one ``integrate`` per term (reference)."""
    def factor(r, zj):
        if r == -1:
            return lambda t: 1.0 / (t - zj) - 1.0 / (t - 1j)
        if r == 0:
            return lambda t: 1.0 / (t - 1j) - 1.0 / (t + 1j)
        return lambda t: 1.0 / (t + 1j) - 1.0 / (t - zj.conjugate())

    total, err, conv, moduli = 0j, 0.0, True, 0.0
    for rho in itertools.product((-1, 0, 1), repeat=len(z)):
        if not (-1 in rho and 1 in rho):
            continue
        facs = [factor(r, complex(zj)) for r, zj in zip(rho, z)]

        def f(*ts, facs=facs):
            v = 1.0 + 0.0j
            for fac, t in zip(facs, ts):
                v = v * fac(t)
            return v

        r = integrate(mu, f, cfg)
        if r.diverged:
            return r, math.inf
        total, err, conv = total + r.value, err + r.error_estimate, conv and r.converged
        moduli += abs(integrate(mu, lambda *ts, f=f: abs(f(*ts)) + 0j, cfg).value)
    return QuadratureResult(total, err, conv, False), moduli


@pytest.mark.parametrize("case", ["diagonal", "antidiagonal", "density", "atom3", "diverges"])
def test_nevanlinna_nvar_matches_term_by_term(case, pi_delta0, cfg_nested):
    mu, z = {
        "diagonal": (Pushforward2D(pi_delta0, 0, 1, 0, 1), GENERIC_Z2),
        "antidiagonal": (Pushforward2D(pi_delta0, 1, 1, 1, -1), GENERIC_Z2),
        "density": (Pushforward2D(LebesgueDensity(1, density=lambda t: 1.0 / (1.0 + t * t)),
                                  1, 1, 1, 2), GENERIC_Z2),
        "atom3": (Atomic.single(1.0, 0.2, -0.1, 0.4), (0.5 + 1.5j, -0.3 + 0.8j, 1.1 + 0.6j)),
        "diverges": (_GROWING_2D, GENERIC_Z2),
    }[case]
    got = check_nevanlinna_nvar(mu, z, cfg_nested)
    want, moduli = _nvar_term_by_term(mu, z, cfg_nested)
    if case == "diverges":
        assert (got.converged, got.diverged) == (want.converged, want.diverged) == (False, True)
        return
    assert (got.converged, got.diverged) == (want.converged, False)
    assert abs(got.value - want.value) <= 1e-13 * moduli
    assert abs(got.error_estimate - want.error_estimate) <= 1e-13 * moduli


@pytest.mark.parametrize("kind", ["atom", "density"])
def test_nevanlinna_grid_matches_per_point(kind, pi_delta0, cfg_nested):
    base = pi_delta0 if kind == "atom" else LebesgueDensity(1, density=lambda t: 1.0 / (1.0 + t * t))
    mu = Pushforward2D(base, 1, 1, 1, 2)
    grid = default_z_grid(2, 6)
    values, scales = nevanlinna_grid(mu, grid, cfg_nested)
    assert len(values) == len(scales) == len(grid)
    for z, v, s in zip(grid, values, scales):
        assert nevanlinna_grid(mu, [z], cfg_nested) == ([v], [s])


def test_nevanlinna_grid_is_one_call_at_one_config(pi_delta0, cfg_nested, monkeypatch):
    # The values of every point are the m members of one call, all at the
    # caller's config; their moduli come with them.
    import nvk.conditions as conditions

    calls = []
    many = conditions.integrate_many

    def recorded(mu, f, m, c=DEFAULT_CONFIG, **kw):
        calls.append((m, c))
        return many(mu, f, m, c, **kw)

    monkeypatch.setattr(conditions, "integrate_many", recorded)
    grid = default_z_grid(2, 6)
    nevanlinna_grid(Pushforward2D(pi_delta0, 1, 1, 1, 2), grid, cfg_nested)
    assert calls == [(len(grid), cfg_nested)]


def test_nevanlinna_grid_scales_stop_at_divergence(pi_delta0, cfg_nested):
    values, scales = nevanlinna_grid(_GROWING_2D, default_z_grid(2, 3), cfg_nested)
    assert [v.diverged for v in values] == [True] * 3 and scales == []
    assert nevanlinna_grid(Pushforward2D(pi_delta0, 1, 1, 1, 2), [], cfg_nested) == ([], [])
    with pytest.raises(DomainError):
        nevanlinna_grid(Pushforward2D(pi_delta0, 1, 1, 1, 2), [(1j, 1j), (1j, -1j)], cfg_nested)


def test_nevanlinna_grid_flags_a_small_linear_divergence(pi_delta0):
    # beta = delta = 0: the inner integrand is constant in t2, of modulus
    # about 1e-3, so the integral grows linearly but only to about 1e5
    # within the scan's 2^27; every point must still read diverged, from
    # the growth alone.
    values, scales = nevanlinna_grid(Pushforward2D(pi_delta0, 1, 0, 1, 0), default_z_grid(2, 3))
    assert [(v.converged, v.diverged) for v in values] == [(False, True)] * 3 and scales == []


def _cubic_per_point(coeff_det, delta, beta, mu1, z_samples, cfg):
    """``check_cubic_condition`` as one pair of integrals per point (reference)."""
    for z1, z2 in z_samples:
        w = -delta * complex(z1) + beta * complex(z2).conjugate()
        r = integrate(mu1, lambda t: 1.0 / (coeff_det * t + w) ** 3, cfg)
        if r.diverged:
            return False
        scale = abs(integrate(mu1, lambda t: 1.0 / np.abs(coeff_det * t + w) ** 3 + 0j, cfg).value)
        if abs(r.value) > nevanlinna_zero_tolerance(scale):
            return False
    return True


@pytest.mark.parametrize("mu1", [Atomic.single(PI, 0.0), Atomic.single(1.0, 0.5), lebesgue(),
                                 LebesgueDensity(1, density=lambda t: 1.0 / (1.0 + t * t))],
                         ids=["pi_delta0", "atom", "lebesgue", "cauchy"])
def test_cubic_condition_matches_per_point(mu1, cfg):
    grid = default_z_grid(2, 9)
    for det, delta, beta in ((1.0, 2.0, 1.0), (-0.5, 1.0, 3.0)):
        assert check_cubic_condition(det, delta, beta, mu1, grid, cfg) == \
            _cubic_per_point(det, delta, beta, mu1, grid, cfg)


def test_undecided_growth_is_unknown_not_satisfied(cfg):
    # (1+t^2)/(1+|t|)^1.05 makes the growth integrand 1/(1+|t|)^1.05: finite,
    # but decaying too slowly for the quadrature to converge, while its
    # dyadic shells shrink, so the divergence scan does not flag it either.
    mu1 = LebesgueDensity(1, density=lambda t: (1.0 + t * t) / (1.0 + np.abs(t)) ** 1.05)
    traits = derive_traits(mu1, cfg, coefficients=(1, 0, 1, 1))
    assert traits.satisfies_1var_growth is None
    assert traits.is_finite is False
    got = classify_pushforward2d(1, 0, 1, 1, traits)
    assert (got.case, got.representing) == (Case.I2, None)


def test_log_divergent_growth_is_not_satisfied(cfg):
    # (1+t^2)/(1+|t|) makes the growth integrand 1/(1+|t|): log-divergent,
    # its dyadic shells all add the same, so the scan flags it.
    mu1 = LebesgueDensity(1, density=lambda t: (1.0 + t * t) / (1.0 + np.abs(t)))
    assert derive_traits(mu1, cfg, coefficients=(1, 0, 1, 1)).satisfies_1var_growth is False


@pytest.mark.parametrize(
    "name,coeffs,kind,expected_case,expected_rep", CLASSIFICATION_FIXTURES)
def test_classifier_unknown_traits(name, coeffs, kind, expected_case, expected_rep):
    # Nothing known but that the base is not zero: every branch that reads
    # finiteness, growth or the cubic condition is indeterminate.
    got = classify_pushforward2d(*coeffs, MeasureTraits(False, None, None, None))
    if name == "neg_degenerate" or coeffs == (1.0, 1.0, 1.0, 1.0):
        # beta = delta = 0, or the zero-determinant case that reads is_zero.
        want = (Case.NOT_REPRESENTING, False)
    else:
        want = (Case.III2B if name == "neg_iii2b_atom" else expected_case, None)
    assert (got.case, got.representing) == want


_BAD_COORDINATES = (complex(math.nan, 1.0), complex(0.0, math.inf), complex(math.inf, 1.0))


@pytest.mark.parametrize("bad", _BAD_COORDINATES)
def test_nevanlinna_grid_rejects_non_finite_points(pi_delta0, cfg, bad):
    with pytest.raises(DomainError):
        nevanlinna_grid(Pushforward2D(pi_delta0, 1, 1, 1, 2), [(1j, 1j), (bad, 1j)], cfg)


@pytest.mark.parametrize("bad", _BAD_COORDINATES)
def test_check_nevanlinna_2var_rejects_non_finite_points(bad):
    # The two-variable check at one point, a one-point grid: first coordinate.
    with pytest.raises(DomainError):
        nevanlinna_grid(Atomic((((0.0, 0.0), 1.0),)), [(bad, 1j)])


@pytest.mark.parametrize("bad", _BAD_COORDINATES)
def test_check_nevanlinna_nvar_rejects_non_finite_points(bad):
    with pytest.raises(DomainError):
        check_nevanlinna_nvar(Atomic((((0.0, 0.0, 0.0), 1.0),)), (1j, bad, 1j))


@pytest.mark.parametrize("bad", _BAD_COORDINATES)
def test_nevanlinna_modulus_scale_rejects_non_finite_points(bad):
    # The modulus scale at one point, from a one-point grid: second coordinate.
    with pytest.raises(DomainError):
        nevanlinna_grid(Atomic((((0.0, 0.0), 1.0),)), [(1j, bad)])


@pytest.mark.parametrize("samples", [[(complex(math.nan, 1.0), 1j)], [(1j, complex(0.0, math.inf))],
                                     [(1j, -1j)], []])
def test_cubic_condition_rejects_bad_or_empty_samples(pi_delta0, cfg, samples):
    for mu1 in (pi_delta0, zero_measure(1)):
        with pytest.raises(DomainError):
            check_cubic_condition(1.0, 2.0, 1.0, mu1, samples, cfg)


# Coefficient sets of every case, one with beta, delta < 0 and a generic one.
_GRID_COEFFS = [(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 0, 0), (0, 1, 1, 0), (1, 1, -1, -1),
                (1, 1, 1, -1), (1, 1, 1, 1), (1, 1, 1, 2), (-1, -2, 0.5, -1), (2, -0.5, 0.3, 3)]


@pytest.mark.parametrize("coeffs", _GRID_COEFFS, ids=lambda c: ",".join(map(str, c)))
def test_nevanlinna_grid_matches_closed_form_on_the_default_grid(coeffs, cfg):
    # A single atom w delta_x makes the grid value w times the inner closed
    # form at t1 = x, at each of the 25 points, the corner (-10+0.1i,
    # -10+0.1i) included.
    w, x = 2.0, 0.4
    grid = default_z_grid(2, 25)
    values, scales = nevanlinna_grid(Pushforward2D(Atomic.single(w, x), *coeffs), grid, cfg)
    assert len(values) == len(scales) == 25
    for z, v, s in zip(grid, values, scales):
        want = w * nevanlinna_inner_value(*coeffs, x, *z)
        assert v.converged and abs(v.value - want) <= 1e-10 * s


def test_evidence_config_sits_two_orders_below_the_zero_rule():
    # The rule's floor is its value at scale 0, its factor its slope far
    # above the floor.
    floor = nevanlinna_zero_tolerance(0.0)
    factor = nevanlinna_zero_tolerance(1e12) / 1e12
    assert EVIDENCE_CONFIG.abs_tol == 1e-2 * floor
    assert EVIDENCE_CONFIG.rel_tol == pytest.approx(1e-2 * factor, rel=1e-15)
    assert (EVIDENCE_CONFIG.rel_tol, EVIDENCE_CONFIG.abs_tol) == (1e-8, 1e-10)
    assert EVIDENCE_CONFIG.max_subdivisions == DEFAULT_CONFIG.max_subdivisions


def test_grid_corner_takes_few_rounds(cfg, monkeypatch):
    # The t2 lines through each row's poles resolve the corner point of the
    # grid, 10 away from the lines through 0, in 15 rounds; centred where the
    # image coordinates vanish it took 63.
    import nvk.quadrature as quadrature

    calls = [0]
    panels = quadrature._panels

    def counted(*args):
        calls[0] += 1
        return panels(*args)

    monkeypatch.setattr(quadrature, "_panels", counted)
    corner = default_z_grid(2, 25)[0]
    assert corner == (-10 + 0.1j, -10 + 0.1j)
    (r,), _ = nevanlinna_grid(Pushforward2D(Atomic.single(PI, 0.0), 1, 1, -1, -1), [corner], cfg)
    assert r.converged and abs(r.value) <= 1e-12
    assert calls[0] <= 20


@pytest.mark.parametrize("mu1", [lebesgue(), LebesgueDensity(1, density=lambda t: 1.0 / (1.0 + t * t))],
                         ids=["lebesgue", "cauchy"])
def test_cubic_condition_is_one_call_with_unchanged_members(mu1, cfg, monkeypatch):
    import nvk.conditions as conditions

    calls = []
    many = conditions.integrate_many

    def recorded(mu, f, m, c=DEFAULT_CONFIG, **kw):
        out = many(mu, f, m, c, **kw)
        calls.append((m, out))
        return out

    monkeypatch.setattr(conditions, "integrate_many", recorded)
    grid = default_z_grid(2, 9)
    det, delta, beta = 1.0, 2.0, 1.0
    check_cubic_condition(det, delta, beta, mu1, grid, cfg)
    assert len(calls) == 1 and calls[0][0] == len(grid)
    out = calls[0][1]
    for k, (z1, z2) in enumerate(grid):
        w = -delta * z1 + beta * z2.conjugate()
        value = many(mu1, lambda t, kk: 1.0 / (det * t + w) ** 3, 1, cfg)[0]
        modulus = many(mu1, lambda t, kk: np.abs(1.0 / (det * t + w) ** 3) + 0.0j, 1, cfg)[0]
        assert out[k] == value
        assert abs(out[k].modulus - modulus.value.real) <= 1e-10 * modulus.value.real


def test_default_z_grid_is_computed_once(monkeypatch):
    import nvk.conditions as conditions

    conditions._z_grid.cache_clear()
    calls = [0]
    inverse = conditions._radical_inverse

    def counted(i, base):
        calls[0] += 1
        return inverse(i, base)

    monkeypatch.setattr(conditions, "_radical_inverse", counted)
    first = default_z_grid(2, 13)
    assert calls[0] == 13 * 4
    second = default_z_grid(2, 13)
    assert calls[0] == 13 * 4 and second == first and second is not first
    first.clear()
    assert default_z_grid(2, 13) == second


def test_degenerate_pushforward_is_decided_without_a_solve(pi_delta0, monkeypatch):
    # Pushforward2D(., 1, 0, 1, 0), the neg_degenerate case: t2 enters no
    # argument, so growth and every grid point diverge exactly, as they
    # did through the quadrature's divergence scan, with no solve at all.
    import nvk.measures as measures

    calls = [0]
    solve = measures.integrate_rows

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(measures, "integrate_rows", counted)
    mu = Pushforward2D(pi_delta0, 1, 0, 1, 0)
    growth = check_growth(mu)
    assert (growth.converged, growth.diverged) == (False, True)
    values, scales = nevanlinna_grid(mu, default_z_grid(2, 25))
    assert [(v.converged, v.diverged) for v in values] == [(False, True)] * 25 and scales == []
    assert calls[0] == 0


def test_undecided_cubic_condition_is_unknown(cfg):
    # Against t1^2 dt1 the cubic integrals' +-1/t1 tails cancel shell by
    # shell: every value neither converges nor diverges, so the condition
    # is undecided, not violated.
    quadratic = LebesgueDensity(1, lambda t1: t1 ** 2)
    cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=cfg.abs_tol)
    samples = [(1j, 1j), (0.5 + 2j, -1 + 1j)]
    assert check_cubic_condition(1.0, 2.0, 1.0, quadratic, samples, cfg) is None


def test_default_grid_holds_checked_points():
    # The stored points are already checked, so the checkers that take them
    # pass them on without checking them again.
    from nvk.kernels import require_upper_half

    for n in (2, 3):
        assert all(require_upper_half(z, n) is z for z in default_z_grid(n, 25))


def test_vanishes_leaves_the_cancelling_cubic_integrals_unknown():
    # The cubic integrals against t1^2 dt1 above: estimates of about 16
    # against tolerances of about 5e-5 keep every value undecided.
    quadratic = LebesgueDensity(1, lambda t1: t1 ** 2)
    w = np.array([-2.0 * z1 + z2.conjugate() for z1, z2 in [(1j, 1j), (0.5 + 2j, -1 + 1j)]])
    results = integrate_many(quadratic, lambda t1, k: 1.0 / (t1 + w[k]) ** 3, w.size,
                             QuadratureConfig(rel_tol=1e-8, abs_tol=1e-13))
    assert [(r.converged, r.diverged) for r in results] == [(False, False)] * 2
    assert all(abs(r.value) - r.error_estimate < nevanlinna_zero_tolerance(r.modulus)
               < abs(r.value) + r.error_estimate for r in results)
    assert vanishes(results) is None


def test_vanishes_reads_an_unconverged_corner_through_its_estimate(cfg):
    # The lebesgue fixture of case iii2b at the classify config: the grid's
    # corner (-10+0.1i, -10+0.1i) does not converge, but its value and
    # estimate stay well within its tolerance.
    planar = Pushforward2D(lebesgue(), 1.0, 1.0, 1.0, 2.0)
    values, _ = nevanlinna_grid(planar, default_z_grid(2, 25), cfg)
    corner = values[0]
    assert default_z_grid(2, 25)[0] == (-10 + 0.1j, -10 + 0.1j)
    assert not corner.converged and not corner.diverged
    assert abs(corner.value) + corner.error_estimate <= nevanlinna_zero_tolerance(corner.modulus)
    assert all(v.converged for v in values[1:])
    assert vanishes(values) is True


def test_vanishes_false_wins_over_unknown():
    unknown = QuadratureResult(1e-3 + 0j, 1e-2, False, False, 1.0)
    zero = QuadratureResult(0j, 0.0, True, False, 1.0)
    nonzero = QuadratureResult(1.0 + 0j, 1e-3, False, False, 1.0)
    diverged = QuadratureResult(complex("nan"), math.inf, False, True, math.inf)
    assert vanishes([zero]) is True and vanishes([]) is True
    assert vanishes([zero, unknown]) is None
    assert vanishes([unknown, diverged]) is False
    assert vanishes([diverged, unknown]) is False
    assert vanishes([unknown, nonzero]) is False
    assert [decided(r) for r in (zero, unknown, diverged)] == [True, None, False]
