"""Evaluation of functions from representation data."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from nvk.errors import DimensionMismatchError, DomainError, GrowthConditionError
from nvk.measures import Atomic, LebesgueDensity, PushforwardLadder, zero_measure
from nvk.representation import RepresentationData, check_herglotz, evaluate
from nvk.sampling import draw_upper_point, rng_for
from nvk.transform import transform

PI = math.pi


@pytest.fixture
def inverse_data(pi_delta0):
    """Data of q(z) = -1/z."""
    return RepresentationData(0.0, (0.0,), pi_delta0)


@pytest.fixture
def halfway_data(pi_delta0):
    """Data of (z1, z2) |-> -2/(z1 + z2): the transformed line measure."""
    return RepresentationData(0.0, (0.0, 0.0), PushforwardLadder(pi_delta0, (1.0,), 2.0))


def test_inverse_function_exact(inverse_data):
    rng = rng_for(7)
    for _ in range(10):
        (z,) = draw_upper_point(rng, 1)
        assert abs(evaluate(inverse_data, (z,)) - (-1.0 / z)) < 1e-14


def test_linear_part_only():
    data = RepresentationData(1.0, (0.0, 2.0), zero_measure(2))
    assert evaluate(data, (1j, 2j)) == 1.0 + 4j


def test_halfway_measure_evaluates_to_two_variable_inverse(halfway_data, cfg):
    v = evaluate(halfway_data, (1j, 1j), cfg)
    assert abs(v - 1j) < 1e-10
    rng = rng_for(8)
    for _ in range(5):
        z = draw_upper_point(rng, 2)
        want = -2.0 / (z[0] + z[1])
        assert abs(evaluate(halfway_data, z, cfg) - want) < 1e-9


def test_atomic_fast_path_has_zero_error(inverse_data):
    value, err = evaluate(inverse_data, (0.3 + 0.7j,), full_output=True)
    assert err == 0.0
    # Exact finite-sum form: a + b z + (1/pi) sum w_i K_1(z, x_i).
    from nvk.kernels import kernel_1d

    assert value == kernel_1d(0.3 + 0.7j, 0.0)


def test_convex_form_inverse_two_vars(inverse_data, cfg_nested):
    v = evaluate(transform(inverse_data, (0.5, 0.5)), (1j, 3j), cfg_nested)
    assert abs(v - 1j / 2) < 1e-8  # -1/(0.5 i + 1.5 i)


def test_convex_form_identity_function(cfg):
    data = RepresentationData(0.0, (1.0,), zero_measure(1))
    ks = (0.3, 0.45, 0.25)
    z = (0.2 + 1j, -1 + 2j, 0.5 + 0.5j)
    v = evaluate(transform(data, ks), z, cfg)
    assert abs(v - sum(k * w for k, w in zip(ks, z))) < 1e-14


def test_convex_form_inverse_three_vars(inverse_data, cfg_nested):
    v = evaluate(transform(inverse_data, (0.5, 0.25, 0.25)), (1j, 1j, 1j), cfg_nested)
    assert abs(v - 1j) < 1e-7


def test_herglotz_property_reports(inverse_data, halfway_data, cfg_nested):
    rep = check_herglotz(inverse_data, sample_count=100, seed=1)
    assert rep.passed and rep.min_imag > 0
    rep = check_herglotz(RepresentationData(0.0, (1.0, 1.0), zero_measure(2)),
                         sample_count=50, seed=2)
    assert rep.passed and rep.min_imag > 0
    rep = check_herglotz(halfway_data, sample_count=25, seed=3, cfg=cfg_nested)
    assert rep.passed and rep.min_imag > 0


@pytest.mark.parametrize("count", [0, -1])
def test_herglotz_check_rejects_empty_sample_set(inverse_data, count):
    with pytest.raises(DomainError):
        check_herglotz(inverse_data, sample_count=count)


def test_linear_coefficient_monotonicity(inverse_data):
    z = (0.7 + 1.3j,)
    eps = 0.25
    bumped = RepresentationData(0.0, (eps,), inverse_data.mu)
    dv = evaluate(bumped, z) - evaluate(inverse_data, z)
    assert abs(dv - eps * z[0]) < 1e-15


def test_growth_violation_raises():
    data = RepresentationData(0.0, (0.0, 0.0),
                              LebesgueDensity(2, density=lambda a, b: 1.0 + a * a))
    with pytest.raises(GrowthConditionError, match="growth condition"):
        evaluate(data, (1j, 1j))


def test_constant_imaginary_from_plain_lebesgue_squared(cfg_nested):
    # Lebesgue measure on R^2 satisfies the growth condition and produces
    # the constant function i.
    data = RepresentationData(0.0, (0.0, 0.0), LebesgueDensity(2))
    v = evaluate(data, (0.4 + 0.9j, -1.2 + 2j), cfg_nested)
    assert abs(v - 1j) < 1e-7


def test_validation():
    with pytest.raises(DomainError):
        RepresentationData(0.0, (-1.0,), zero_measure(1))
    with pytest.raises(DimensionMismatchError):
        RepresentationData(0.0, (0.0,), zero_measure(2))
    data = RepresentationData(0.0, (0.0,), zero_measure(1))
    with pytest.raises(DomainError):
        evaluate(data, (1.0 - 1j,))
    with pytest.raises(DimensionMismatchError):
        evaluate(data, (1j, 1j))


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(_NON_FINITE, st.integers(0, 2), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_non_finite_data_rejected(bad, where, n):
    a, b = 0.5, [1.0] * n
    if where == 0:
        a = bad
    else:
        b[where % n] = bad
    with pytest.raises(DomainError):
        RepresentationData(a, tuple(b), zero_measure(n))


@given(_NON_FINITE, st.booleans(), st.floats(-3.0, 3.0), st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_non_finite_point_rejected(bad, in_real, x, y):
    data = RepresentationData(0.0, (0.0,), Atomic.single(math.pi, 0.0))
    z = complex(bad, y) if in_real else complex(x, bad)
    with pytest.raises(DomainError):
        evaluate(data, (z,))
