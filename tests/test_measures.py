"""Measure algebra: integration, box masses, pushforward structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvk.cli import CLASSIFICATION_FIXTURES, fixture_base_measure
from nvk.conditions import check_growth, default_z_grid, nevanlinna_grid
from nvk.errors import DimensionMismatchError, DomainError, IntegrandError
from nvk.kernels import kernel_1d, kernel_nd_rational
from nvk.ladder import ladder_closed_form
from nvk.measures import (
    Atomic,
    Box,
    LebesgueDensity,
    LebesguePad,
    Product,
    Pushforward2D,
    PushforwardLadder,
    indicator,
    integrate,
    integrate_many,
    lebesgue,
    mass,
    zero_measure,
)
from nvk.quadrature import QuadratureConfig, QuadratureResult

PI = math.pi


def test_atom_evaluation(pi_delta0):
    r = integrate(pi_delta0, lambda t: 1.0 / (t - 1j))
    assert r.converged and r.error_estimate == 0.0
    assert r.value == PI * 1j  # pi * (-1/i)


def test_ladder_line_measure_box_integral(pi_delta0, cfg):
    # The measure supported on the antidiagonal (-t, t) with speed weight 2pi.
    mu = PushforwardLadder(pi_delta0, (1.0,), 2.0)
    r = integrate(mu, indicator(Box(((-1.0, 0.0), (0.0, 1.0)))), cfg)
    assert r.converged
    assert abs(r.value - 2 * PI) < 1e-9


def test_product_atom_lebesgue(pi_delta0, cfg):
    mu = Product((pi_delta0, lebesgue()))
    r = integrate(mu, lambda t1, t2: 1.0 / ((1.0 + t1 * t1) * (1.0 + t2 * t2)), cfg)
    assert abs(r.value - PI * PI) < 1e-9


def test_product_of_atoms_constant_test_function(cfg):
    # A test function that ignores its arguments returns a scalar, which the
    # atom level broadcasts over its rows: the value is the total mass.
    mu = Product((Atomic((((0.0,), 1.0), ((1.0,), 3.0))), Atomic.single(2.0, 5.0)))
    r = integrate(mu, lambda t1, t2: 1.0, cfg)
    assert r.value == 8.0 and r.converged


def test_mass_product_box(pi_delta0, cfg):
    r = mass(Product((pi_delta0, lebesgue())), Box(((-1, 1), (0, 2))), cfg)
    assert abs(r.value - 2 * PI) < 1e-8


def test_mass_pushforward2d_line(pi_delta0, cfg):
    r = mass(Pushforward2D(pi_delta0, 1, 1, 1, -1), Box(((-1, 1), (-1, 1))), cfg)
    assert abs(r.value - 2 * PI) < 1e-8


def test_mass_ladder_missing_box(pi_delta0, cfg):
    r = mass(PushforwardLadder(pi_delta0, (1.0,), 2.0), Box(((1, 2), (1, 2))), cfg)
    assert abs(r.value) < 1e-10


def test_mass_atomic_exact_closed_boxes():
    mu = Atomic((((0.0, 1.0), 2.0), ((3.0, 3.0), 1.0)))
    r = mass(mu, Box(((0.0, 3.0), (1.0, 3.0))))
    assert r.error_estimate == 0.0
    assert r.value == 3.0  # boundary atoms count as inside
    # An atom in the overlap of two boxes counts once.
    r = mass(mu, [Box(((-1.0, 1.0), (0.0, 2.0))), Box(((0.0, 4.0), (1.0, 4.0)))])
    assert r.error_estimate == 0.0
    assert r.value == 3.0


@pytest.mark.parametrize("mu", [Atomic.single(PI, 0.0), lebesgue(), lebesgue(2)])
def test_mass_of_the_empty_union_is_exactly_zero(mu):
    r = mass(mu, [])
    assert (r.value, r.error_estimate, r.converged, r.diverged) == (0.0, 0.0, True, False)


def test_mass_positivity_and_additivity(pi_delta0, cfg):
    mu = Pushforward2D(pi_delta0, 1, 1, 1, -1)
    left = Box(((-1, 0), (-1, 1)))
    right = Box(((0, 1), (-1, 1)))
    whole = Box(((-1, 1), (-1, 1)))
    m_left = mass(mu, left, cfg).value.real
    m_right = mass(mu, right, cfg).value.real
    m_whole = mass(mu, whole, cfg).value.real
    assert m_left >= 0 and m_right >= 0
    # The shared face holds one support point of Lebesgue length zero.
    assert abs(m_left + m_right - m_whole) < 1e-7
    # Monotonicity
    assert m_left <= m_whole + 1e-9


def test_mass_union_overlapping_boxes(pi_delta0, cfg):
    mu = Pushforward2D(pi_delta0, 1, 1, 1, -1)
    boxes = [Box(((-1, 1), (-1, 1))), Box(((0, 2), (-1, 1)))]
    r = mass(mu, boxes, cfg)
    # Support is (t, -t); the union covers t in [-1, 1] only.
    assert abs(r.value - 2 * PI) < 1e-8


def test_pushforward_identity_matches_product(pi_delta0, cfg):
    straight = Pushforward2D(pi_delta0, 1, 0, 0, 1)
    product = Product((pi_delta0, lebesgue()))
    for box in (Box(((-0.5, 0.5), (-2, 3))), Box(((-2, -1), (0, 1))),
                Box(((0, 4), (-1, 0.5)))):
        a = mass(straight, box, cfg).value
        b = mass(product, box, cfg).value
        assert abs(a - b) < 1e-8


def test_lebesgue_pad_matches_product(pi_delta0, cfg):
    padded = LebesguePad(pi_delta0, (0,), 2)
    product = Product((pi_delta0, lebesgue()))
    f = lambda t1, t2: 1.0 / ((1.0 + t1 * t1) * (1.0 + t2 * t2))
    a = integrate(padded, f, cfg).value
    b = integrate(product, f, cfg).value
    assert abs(a - b) < 1e-9
    assert abs(mass(padded, Box(((-1, 1), (0, 2))), cfg).value - 2 * PI) < 1e-8


def test_zero_measure():
    mu = zero_measure(2)
    assert mu.dimension == 2
    assert integrate(mu, lambda a, b: 1.0).value == 0


def test_density_measure(cfg):
    mu = LebesgueDensity(1, density=lambda t: np.exp(-t * t))
    r = integrate(mu, lambda t: 1.0 + 0j, cfg)
    assert abs(r.value - math.sqrt(PI)) < 1e-9


def test_divergence_reported_not_raised(cfg):
    r = mass(lebesgue(), Box(((-math.inf, math.inf),)), cfg)
    assert r.diverged and not r.converged


def test_validation_errors():
    with pytest.raises(DomainError):
        Atomic((((0.0,), -1.0),))
    with pytest.raises(DomainError):
        Atomic((), dim=None)
    with pytest.raises(DomainError):
        PushforwardLadder(Atomic.single(1.0, 0.0), (0.0,), 1.0)
    with pytest.raises(DimensionMismatchError):
        Pushforward2D(Atomic.single(1.0, 0.0, 0.0), 1, 0, 0, 1)
    with pytest.raises(DomainError):
        Box(((1.0, 0.0),))
    with pytest.raises(DimensionMismatchError):
        mass(Atomic.single(1.0, 0.0), Box(((0, 1), (0, 1))))


@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3), st.floats(0.1, 5.0),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
@settings(max_examples=30, deadline=None)
def test_non_finite_atoms_rejected(loc, w, bad, data):
    where = data.draw(st.integers(0, len(loc)))  # len(loc) marks the weight
    if where == len(loc):
        w = bad
    else:
        loc[where] = bad
    with pytest.raises(DomainError):
        Atomic(((tuple(loc), w),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", range(4))
def test_non_finite_pushforward2d_coefficients_rejected(bad, where):
    coeffs = [1.0, 1.0, 1.0, -1.0]
    coeffs[where] = bad
    with pytest.raises(DomainError, match="must be finite"):
        Pushforward2D(Atomic.single(1.0, 0.0), *coeffs)


@pytest.mark.parametrize("b,scale", [((math.inf,), 1.0), ((1.0, math.nan), 1.0),
                                     ((1.0,), math.inf), ((1.0,), math.nan)])
def test_non_finite_ladder_parameters_rejected(b, scale):
    with pytest.raises(DomainError, match="finite and strictly positive"):
        PushforwardLadder(Atomic.single(1.0, 0.0), b, scale)


def test_product_divergence_of_some_rows_propagates(cfg):
    # The inner Lebesgue factor sees a non-decaying integrand for t1 > 2 only.
    mu = Product((LebesgueDensity(1, density=lambda t: 1.0 / (1.0 + t * t)), lebesgue()))
    r = integrate(mu, lambda t1, t2: np.where(t1 > 2.0, 1.0, 1.0 / (1.0 + t2 * t2)) + 0j, cfg)
    assert r.diverged and not r.converged


# (converged, diverged) of the growth integral and of the two-variable
# Nevanlinna integral at the first three grid points, per classification
# fixture; only the degenerate fixture diverges.
_FIXTURE_FLAGS = {"neg_degenerate": ((False, True), ((False, True),) * 3)}


@pytest.mark.parametrize("fixture", CLASSIFICATION_FIXTURES, ids=lambda f: f[0])
def test_fixture_convergence_flags(fixture, cfg_nested):
    name, coeffs, kind, _, _ = fixture
    mu = Pushforward2D(fixture_base_measure(kind), *coeffs)
    g = check_growth(mu, cfg_nested)
    nev, _ = nevanlinna_grid(mu, default_z_grid(2, 3), cfg_nested)
    flags = ((g.converged, g.diverged), tuple((r.converged, r.diverged) for r in nev))
    assert flags == _FIXTURE_FLAGS.get(name, ((True, False), ((True, False),) * 3))


# Member-axis integration: each member's integral must equal the one-member
# route, whatever nesting the variant has.
_W = np.array([0.3 + 1.1j, -0.7 + 0.4j, 1.5 + 2.0j])
_CAUCHY = LebesgueDensity(1, density=lambda t: 1.0 / (1.0 + t * t))
_MANY_MEASURES = {
    "atomic": Atomic((((0.0, 1.0), 2.0), ((-0.5, 0.3), 1.0))),
    "density_1d": _CAUCHY,
    "lebesgue_2d": lebesgue(2),
    "product": Product((_CAUCHY, Atomic((((0.4,), 1.0), ((-1.2,), 0.5))))),
    "pushforward2d_atomic": Pushforward2D(Atomic((((0.0,), PI), ((0.8,), 1.0))), 1, 1, 1, 2),
    "pushforward2d_density": Pushforward2D(_CAUCHY, 1, 1, 1, 2),
    "ladder": PushforwardLadder(Atomic((((0.2,), 1.0),)), (1.0, 0.5), 0.7),
    "pad_atomic": LebesguePad(Atomic((((0.5,), 2.0),)), (1,), 2),
    "pad_density": LebesguePad(_CAUCHY, (0,), 2),
}


def _member_integrand(*args):
    """prod_j 1/((t_j - w_k)(t_j + i)): decays like |t_j|^-2 on every axis."""
    *ts, k = args
    w = _W[k]
    v = 1.0 + 0.0j
    for j, t in enumerate(ts):
        v = v / ((t - w * (1 + 0.1 * j)) * (t + 1j))
    return v


@pytest.mark.parametrize("name", sorted(_MANY_MEASURES))
def test_integrate_many_matches_per_member(name, cfg_nested):
    mu = _MANY_MEASURES[name]
    many = integrate_many(mu, _member_integrand, _W.size, cfg_nested)
    for k, got in enumerate(many):
        want = integrate(mu, lambda *ts: _member_integrand(*ts, k), cfg_nested)
        assert (got.converged, got.diverged) == (want.converged, want.diverged)
        assert abs(got.value - want.value) <= 1e-13 * abs(want.value)
        # Estimates sum round-off-level panel errors, which the batch layout
        # may perturb; they agree to round-off of the value.
        assert abs(got.error_estimate - want.error_estimate) <= 1e-13 * abs(want.value)


# At the innermost level the test function gets the innermost variable as a
# (15, P) block of nodes, and what is constant along a panel once per panel:
# member indices and every argument free of the innermost variable.  Flags
# mark the arguments that arrive once per panel.
_PER_PANEL_ARGS = {
    "product": (Product((lebesgue(), lebesgue())), (True, False)),
    "ladder": (PushforwardLadder(Atomic((((0.2,), 1.0),)), (1.0, 0.5), 0.7), (True, False, False)),
    "pushforward2d": (Pushforward2D(_CAUCHY, 1, 0, 1, 2), (True, False)),
}


@pytest.mark.parametrize("name", sorted(_PER_PANEL_ARGS))
def test_innermost_level_gets_row_data_once_per_panel(name, cfg_nested):
    mu, per_panel = _PER_PANEL_ARGS[name]
    calls = []

    def f(*args):
        *ts, k = args
        panels = k.shape[0]
        calls.append([np.shape(t) for t in ts] + [k.shape])
        assert calls[-1] == [(panels,) if once else (15, panels) for once in per_panel] + [(panels,)]
        return _member_integrand(*args)

    many = integrate_many(mu, f, _W.size, cfg_nested)
    assert calls and all(r.converged for r in many)


def test_integrate_many_diverging_member_leaves_others(cfg):
    # Member 1's inner integrand does not decay for t1 > 2 only.
    mu = Product((_CAUCHY, lebesgue()))

    def f(t1, t2, k):
        return np.where((k == 1) & (t1 > 2.0), 1.0, 1.0 / (1.0 + t2 * t2)) * (1.0 + k) + 0j

    many = integrate_many(mu, f, 3, cfg)
    bad = many[1]
    assert math.isnan(bad.value.real) and bad.error_estimate == math.inf
    assert (bad.converged, bad.diverged) == (False, True)
    for k in (0, 2):
        want = integrate(mu, lambda t1, t2: f(t1, t2, k), cfg)
        assert (many[k].converged, many[k].diverged) == (want.converged, want.diverged) == (True, False)
        assert abs(many[k].value - want.value) <= 1e-13 * abs(want.value)
        assert abs(many[k].value - (1 + k) * PI * PI) < 1e-8


def test_integrate_many_all_members_diverge(cfg):
    many = integrate_many(lebesgue(), lambda t, k: 1.0 + 0.0 * k + 0j, 2, cfg)
    assert [(r.converged, r.diverged) for r in many] == [(False, True)] * 2
    assert integrate_many(lebesgue(), lambda t, k: 1.0 + 0j, 0, cfg) == []
    with pytest.raises(DomainError):
        integrate_many(lebesgue(), lambda t, k: 1.0 + 0j, -1, cfg)


def test_nest_settles_once_every_member_diverged(cfg, monkeypatch):
    # The test function ignores v = t1 + t2, the one argument that t2
    # enters, so the inner Lebesgue level is solved and diverges for every
    # row of the first outer round.  The outer level then gets zeros
    # without another solve and settles.  (With b = d = 0, where t2 enters
    # no argument, the inner level is decided without a solve.)
    import nvk.measures as measures

    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return integrate_rows(*args, **kwargs)

    integrate_rows = measures.integrate_rows
    monkeypatch.setattr(measures, "integrate_rows", counted)
    mu = Pushforward2D(_CAUCHY, 1, 0, 1, 1)
    many = integrate_many(mu, lambda u, v, k: 1.0 / (1.0 + u * u) + 0 * v + 0j, 3, cfg)
    assert len(calls) == 2
    for r in many:
        assert math.isnan(r.value.real)
        assert (r.error_estimate, r.converged, r.diverged) == (math.inf, False, True)


# Values of the parent implementation (five hand-written recursions), pinned
# so that compiling every measure to one plan run by one walker keeps them.
_Z4 = (0.3 + 0.8j, -0.2 + 1.1j, 0.5 + 0.6j, 0.1 + 0.9j)
_TWO_ATOMS = Atomic((((0.2,), 1.0), ((-0.5,), 2.0)))
_PINNED = {
    "density_1d": (_CAUCHY, None, 1.4032447186034365 + 0.3001966313430237j),
    "density_2d_joint": (
        LebesgueDensity(2, density=lambda s, t: 1.0 / ((1.0 + s * s) * (1.0 + t * t))),
        lambda s, t: 1.0 / ((s - _W[0]) * (t - _W[1])),
        -2.8198869717397996 + 0.9399623239132667j),
    "product_atomic_density": (Product((Atomic((((0.4,), 1.0), ((-1.2,), 0.5))), _CAUCHY)),
                               None, 1.1953978314271623 + 0.6065277344680373j),
    "pushforward2d_atomic": (Pushforward2D(Atomic((((0.0,), PI), ((0.8,), 1.0))), 1, 1, 1, 2),
                             None, 3.047312253558933 + 1.4015542885707033j),
    "pushforward2d_density_one_line": (Pushforward2D(_CAUCHY, 1, 0, 0.5, 1),
                                       None, 3.7778465714724345 + 1.4175929556132085j),
    "pushforward2d_density_parallel": (Pushforward2D(_CAUCHY, 1, 1, 1, 1),
                                       None, 3.470148303833657 + 1.6129640234165636j),
    "ladder2_atomic": (PushforwardLadder(_TWO_ATOMS, (0.8,), 1.7), 2,
                       -0.633121417544552 + 7.7219071835157225j),
    "ladder3_atomic": (PushforwardLadder(_TWO_ATOMS, (0.8, 1.3), 2.3), 3,
                       -4.918944796130816 + 18.64562414271544j),
    "ladder4_atomic": (PushforwardLadder(Atomic((((0.1,), 1.5),)), (0.9, 1.2, 0.7), 3.1), 4,
                       -12.300586315011618 + 52.312440059841464j),
    "ladder3_density": (PushforwardLadder(_CAUCHY, (0.8, 1.3), 2.3), 3,
                        -1.6271751749190408 + 12.331818258874984j),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_values_pinned_across_the_plan_rewrite(name, cfg_nested):
    # The two Pushforward2D density cases have near rows only: one centre
    # line, or two that coincide.  The test function is the first member's
    # integrand, or K_n at _Z4 for the ladders.
    mu, f, want = _PINNED[name]
    if f is None:
        f = lambda *ts: _member_integrand(*ts, 0)
    elif isinstance(f, int):
        f = lambda *ts, n=f: kernel_nd_rational(_Z4[:n], ts)
    r = integrate(mu, f, cfg_nested)
    assert r.converged and not r.diverged
    assert abs(r.value - want) <= 1e-13 * abs(want)


# Known defects, each asserting the honest behaviour: a result that reads
# converged is within its estimate (or meets its tolerance).  Each turns
# XPASS, and so fails, when its fix lands.
@pytest.mark.xfail(strict=True, reason="the jump of a box far out on the line is "
                   "underestimated under t = tan(theta) (ROADMAP item 4)")
def test_far_box_mass_is_within_its_estimate():
    r = mass(lebesgue(), Box(((0.0, 1e8),)))
    assert not r.converged or abs(r.value - 1e8) <= r.error_estimate


@pytest.mark.xfail(strict=True, reason="a heavy tail's end singularity under "
                   "t = tan(theta) is underestimated (ROADMAP item 6)")
def test_heavy_tail_is_within_its_estimate():
    # The integral of 1/(1+|x|)^1.5 over the line is 4.
    r = integrate(lebesgue(), lambda x: 1 / (1 + abs(x)) ** 1.5)
    assert not r.converged or abs(r.value - 4.0) <= r.error_estimate


@pytest.mark.xfail(strict=True, reason="converged is the AND of the solves' flags and "
                   "ignores the summed nested estimate (ROADMAP item 4)")
def test_converged_nested_estimate_meets_its_tolerance(cfg_nested):
    mu, n, _ = _PINNED["ladder3_density"]
    r = integrate(mu, lambda *ts: kernel_nd_rational(_Z4[:n], ts), cfg_nested)
    tol = max(cfg_nested.abs_tol, cfg_nested.rel_tol * abs(r.value))
    assert not r.converged or r.error_estimate <= tol


def test_integrate_many_values_pinned(cfg_nested):
    mu = PushforwardLadder(Atomic((((0.2,), 1.0),)), (1.0, 0.5), 0.7)
    want = (1.8446952199676359 + 1.2627410027854906j, -1.6672537743514102 - 4.475094729955119j,
            -0.06344587529280782 + 0.3934333897142004j)
    for got, v in zip(integrate_many(mu, _member_integrand, 3, cfg_nested), want):
        assert got.converged and abs(got.value - v) <= 1e-13 * abs(v)


@pytest.mark.parametrize("weights, scale", [((1.0, 1.0), 1.0), ((1e6, 1.0), 1.0),
                                            ((1.0, 1e6), 1.0), ((1.0, 1.0), 1e6)],
                         ids=["unit", "heavy_first_atom", "heavy_second_atom", "large_scale"])
def test_error_estimate_carries_atom_weights_and_scale(weights, scale):
    # Each row's estimate enters its member's total with the weight its value
    # carries; before, a heavy atom or a large scale left the estimate at the
    # unweighted 3e-11 while the error grew to 4e-7 and more.
    z = _Z4[:3]
    mu = PushforwardLadder(Atomic((((0.7,), weights[0]), ((-2.0,), weights[1]))), (0.8, 1.3), scale)
    r = integrate(mu, lambda *ts: kernel_nd_rational(z, ts))
    assert r.converged
    assert abs(r.value - ladder_closed_form(z, mu)) <= r.error_estimate


@pytest.mark.parametrize("base", ["far_atoms", "density"])
def test_pushforward2d_far_rows_match_reduction(base, cfg_nested):
    # The planar image of the n = 2 ladder map (t1 - b t2, t1 + t2): t2 has
    # the centre lines t1 / b and -t1, so rows with |t1| past about 1.4 are
    # split.  The main theorem reduces the integral of K_2 to (pi / beta)
    # int K_1(k1 z1 + k2 z2, t1) dmu(t1), beta = 1 + b.
    k, z = (0.3, 0.7), (0.4 + 0.9j, -0.3 + 1.2j)
    b = k[1] / k[0]
    w = k[0] * z[0] + k[1] * z[1]
    mu1 = Atomic((((-6.0,), 1.0), ((9.0,), 2.5))) if base == "far_atoms" else _CAUCHY
    r = integrate(Pushforward2D(mu1, 1.0, -b, 1.0, 1.0), lambda u, v: kernel_nd_rational(z, (u, v)),
                  cfg_nested)
    want = PI / (1.0 + b) * integrate(mu1, lambda t: kernel_1d(w, t)).value
    assert r.converged and abs(r.value - want) <= 1e-7 * abs(want)


def test_lebesgue_pad_density_matches_reduction(cfg_nested):
    # The padded axis runs as the innermost plan level, at the tolerance of
    # its depth; q(0.4 z1 + 0.6 z3) is the one-variable reference.
    from nvk.representation import RepresentationData, evaluate
    from nvk.transform import transform

    data = RepresentationData(0.0, (0.0,), _CAUCHY)
    z = (0.4 + 1.1j, -0.8 + 0.9j, 0.3 + 1.4j)
    padded = transform(data, (0.4, 0.0, 0.6))
    assert isinstance(padded.mu, LebesguePad)
    got = evaluate(padded, z, cfg_nested)
    want = evaluate(data, (0.4 * z[0] + 0.6 * z[2],))
    assert abs(got - want) <= 1e-7 * abs(want)


# All members share one config, and a row's result does not depend on the
# other rows of its solve: every member equals its one-member call bit for
# bit, with or without poles, at a loose and at a tight config.
_OWN_CONFIG_MEASURES = ("atomic", "pushforward2d_atomic", "pushforward2d_density", "product")


@pytest.mark.parametrize("with_poles", [False, True], ids=["no_poles", "poles"])
@pytest.mark.parametrize("name", _OWN_CONFIG_MEASURES)
def test_integrate_many_member_configs_match_one_member_calls(name, with_poles):
    mu = _MANY_MEASURES[name]
    poles = np.array([[w * (1 + 0.1 * j) for j in range(mu.dimension)] for w in _W]) if with_poles else None
    for cfg in (QuadratureConfig(rel_tol=1e-6, abs_tol=1e-9), QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)):
        many = integrate_many(mu, _member_integrand, _W.size, cfg, poles=poles)
        for k, got in enumerate(many):
            one = integrate_many(mu, lambda *args, k=k: _member_integrand(*args[:-1], k + args[-1]), 1,
                                 cfg, poles=None if poles is None else poles[k:k + 1])[0]
            assert got == one


def test_integrate_many_member_configs_must_share_limits():
    # One config serves every member: a list of configs, or a bare
    # tolerance, is rejected rather than ignored (atomic) or failing deep
    # inside the solve (product).
    f = _member_integrand
    base = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-11)
    for mu in (_MANY_MEASURES["atomic"], _MANY_MEASURES["product"]):
        for bad in ([base, base, base], 1e-8):
            with pytest.raises(DomainError, match="one QuadratureConfig"):
                integrate_many(mu, f, 3, bad)
            with pytest.raises(DomainError, match="one QuadratureConfig"):
                integrate(mu, lambda *ts: f(*ts, 0), bad)


def test_poles_must_match_members_and_lie_off_the_line():
    mu, f = _MANY_MEASURES["product"], _member_integrand
    good = np.ones((3, 2)) * (0.5 + 1j)
    assert integrate_many(mu, f, 3, poles=good)[0].converged
    for bad in (np.ones((2, 2)) * 1j, np.ones((3, 1)) * 1j, np.ones((3, 2)) * 0.5,
                np.where(np.arange(6).reshape(3, 2) == 4, complex("nan"), good)):
        with pytest.raises(DomainError):
            integrate_many(mu, f, 3, poles=bad)


_Z2 = (0.5 + 1.5j, -0.3 + 0.8j)


def _nevanlinna_integrand(u, v):
    return 1.0 / ((u - _Z2[0]) ** 2 * (v - np.conj(_Z2[1])) ** 2)


@pytest.mark.parametrize("base", ["atomic", "cauchy"])
@pytest.mark.parametrize("poles", [False, True], ids=["lines", "poles"])
def test_modulus_matches_a_separate_modulus_solve(base, poles, cfg):
    # The modulus of each member is the integral of |f| over the value's own
    # panels; on the planar pushforward it agrees with a separately solved
    # integrate(mu, |f|).  The Cauchy base has a line level above the
    # innermost one, whose moduli reach it as the companion channel.
    mu1 = Atomic((((0.2,), 1.0), ((-0.5,), 2.0))) if base == "atomic" else _CAUCHY
    mu = Pushforward2D(mu1, 1, 1, 1, 2)
    hint = [[_Z2[0], np.conj(_Z2[1])]] if poles else None
    (r,) = integrate_many(mu, lambda u, v, k: _nevanlinna_integrand(u, v), 1, cfg, poles=hint)
    want = integrate(mu, lambda u, v: np.abs(_nevanlinna_integrand(u, v)) + 0j, cfg)
    assert r.converged and want.converged
    assert abs(r.modulus - want.value.real) <= 1e-10 * want.value.real
    assert r.value == integrate_many(mu, lambda u, v, k: _nevanlinna_integrand(u, v), 1, cfg,
                                     poles=hint)[0].value


def test_modulus_of_an_atomic_measure_is_the_weighted_sum(cfg):
    mu = Atomic((((0.2, 0.1), 1.0), ((-0.5, 3.0), 2.0)))
    r = integrate(mu, _nevanlinna_integrand, cfg)
    want = sum(w * abs(_nevanlinna_integrand(*loc)) for loc, w in mu.atoms)
    assert r.modulus == pytest.approx(want, rel=1e-15) and r.error_estimate == 0.0


def test_modulus_adds_up_over_atoms_scale_and_split_rows(cfg_nested):
    # A ladder's atoms, its scale and the half-line rows of a far atom all
    # enter the modulus as they enter the value.
    z = (0.3 + 0.8j, -0.2 + 1.1j, 0.5 + 0.6j)
    f = lambda u, v, w: np.abs(1.0 / ((u - z[0]) * (v - z[1]) * (w - z[2]))) + 0j
    base = Atomic((((50.0,), 1.0), ((-0.3,), 2.0)))
    r = integrate(PushforwardLadder(base, (0.8, 1.3), 2.3), f, cfg_nested)
    # For a nonnegative integrand the modulus integrates the value itself.
    assert r.converged and abs(r.modulus - r.value.real) <= 1e-12 * r.value.real
    parts = [integrate(PushforwardLadder(Atomic.single(w, *loc), (0.8, 1.3), 1.0), f, cfg_nested)
             for loc, w in base.atoms]
    assert r.modulus == pytest.approx(2.3 * sum(p.modulus for p in parts), rel=1e-14)


def test_a_line_whose_variable_enters_no_argument_is_decided_without_a_solve(monkeypatch):
    # With b = d = 0 the image ignores t2, so the integrand is constant
    # along the t2 line: a member reads an exact 0 where that constant is 0
    # and diverges elsewhere, with no quadrature at all.
    import nvk.measures as measures

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a line along which the integrand is constant")

    monkeypatch.setattr(measures, "integrate_rows", no_solve)
    mu = Pushforward2D(Atomic((((0.2,), 1.0), ((-0.5,), 2.0))), 1, 0, 1, 0)
    out = integrate_many(mu, lambda u, v, k: k * (u - 0.2) / (1.0 + v * v) + 0j, 2)
    assert out[0] == QuadratureResult(0j, 0.0, True, False, 0.0)
    assert (out[1].converged, out[1].diverged, out[1].error_estimate) == (False, True, math.inf)
    # The constant is read off one node per row: a member whose constant is
    # 0 on one atom only still diverges.
    out = integrate_many(mu, lambda u, v, k: (u - 0.2) + 0 * v + 0j, 1)
    assert out[0].diverged
    # A constant that is not finite fails as it would in a solve.
    with pytest.raises(IntegrandError):
        integrate(mu, lambda u, v: np.full(np.broadcast(u, v).shape, math.inf) + 0j)


def test_product_factors_must_be_atomic_or_densities(cfg):
    # A one-dimensional product is a valid measure, but not a factor.
    nested = Product((Product((lebesgue(),)),))
    with pytest.raises(DomainError, match="product factors"):
        integrate(nested, lambda t: 1.0 / (1.0 + t * t), cfg)
