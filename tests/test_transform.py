"""Coefficient bijection, ladder matrix and the convex-combination transform."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvk.errors import DomainError
from nvk.measures import (
    Atomic,
    LebesgueDensity,
    LebesguePad,
    Product,
    PushforwardLadder,
    is_zero_measure,
    zero_measure,
)
from nvk.representation import RepresentationData, evaluate
from nvk.sampling import draw_upper_point, rng_for
from nvk.transform import (
    coefficients_to_ladder,
    ladder_matrix,
    ladder_normalization,
    ladder_to_coefficients,
    transform,
    validate_convex_coefficients,
)

PI = math.pi


def test_coefficients_to_ladder_examples():
    assert np.allclose(coefficients_to_ladder((0.5, 0.5)), [1.0])
    assert np.allclose(coefficients_to_ladder((0.5, 0.25, 0.25)), [0.5, 1.0])
    n = 5
    assert np.allclose(coefficients_to_ladder([1.0 / n] * n), np.ones(n - 1))


def test_ladder_to_coefficients_examples():
    assert np.allclose(ladder_to_coefficients((1.0,)), [0.5, 0.5])
    assert ladder_normalization((1.0,)) == 2.0
    assert np.allclose(ladder_to_coefficients((0.5, 1.0)), [0.5, 0.25, 0.25])
    assert ladder_normalization((0.5, 1.0)) == 2.0


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_bijection_roundtrip(n, seed):
    rng = rng_for(seed)
    b = np.exp(rng.uniform(np.log(0.1), np.log(10), n - 1))
    k = ladder_to_coefficients(b)
    assert abs(k.sum() - 1.0) < 1e-14
    back = coefficients_to_ladder(k)
    assert np.max(np.abs(back - b) / b) < 1e-13
    k2 = rng.uniform(0.05, 1.0, n)
    k2 = k2 / k2.sum()
    round_k = ladder_to_coefficients(coefficients_to_ladder(k2))
    assert np.max(np.abs(round_k - k2)) < 1e-14


def test_normalization_closed_form_examples():
    rng = rng_for(9)
    b1 = float(rng.uniform(0.2, 5))
    assert abs(ladder_normalization((b1,)) - (1 + b1)) < 1e-15
    assert ladder_normalization((1.0, 1.0, 1.0)) == 4.0
    assert ladder_normalization((2.0, 3.0)) == 11.0  # 3 + 2 + 6


def test_ladder_matrix_examples():
    assert np.array_equal(ladder_matrix((1.0,)), [[1, -1], [1, 1]])
    assert np.array_equal(ladder_matrix((0.5, 1.0)),
                          [[1, -0.5, 0], [1, 0, -1], [1, 1, 1]])


def test_normalization_matches_determinant():
    rng = rng_for(10)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        b = np.exp(rng.uniform(np.log(0.2), np.log(5), n - 1))
        det = float(np.linalg.det(ladder_matrix(b)))
        beta = ladder_normalization(b)
        assert abs(det - beta) <= 1e-12 * abs(beta)


def test_transform_structure(pi_delta0):
    data = RepresentationData(0.0, (0.0,), pi_delta0)
    out = transform(data, (0.5, 0.5))
    assert out.a == 0.0 and out.b == (0.0, 0.0)
    assert isinstance(out.mu, PushforwardLadder)
    assert out.mu.b == (1.0,) and out.mu.scale == 2.0

    affine = RepresentationData(1.5, (2.0,), zero_measure(1))
    out = transform(affine, (0.25, 0.75))
    assert out.a == 1.5 and out.b == (0.5, 1.5)
    assert is_zero_measure(out.mu)


def test_transform_pointwise_equality(pi_delta0, cfg):
    data = RepresentationData(0.0, (0.3,), Atomic((((1.0,), PI), ((-0.5,), 0.7))))
    rng = rng_for(11)
    for n in (2, 3):
        k = rng.uniform(0.2, 1.0, n)
        k = k / k.sum()
        out = transform(data, k)
        from nvk.quadrature import QuadratureConfig

        cfg_path = cfg if n == 2 else QuadratureConfig(rel_tol=1e-8, abs_tol=1e-11)
        for _ in range(3):
            z = draw_upper_point(rng, n)
            combined = sum(kl * zl for kl, zl in zip(k, z))
            want = evaluate(data, (combined,), cfg)
            got = evaluate(out, z, cfg_path)
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


def test_transform_general_product_padding(pi_delta0):
    data = RepresentationData(0.25, (1.0,), pi_delta0)
    out = transform(data, (1.0, 0.0))
    assert out.b == (1.0, 0.0)
    assert isinstance(out.mu, Product)
    assert out.mu.factors[0] is pi_delta0
    assert out.mu.factors[1].dimension == 1 and out.mu.factors[1].density is None

    out = transform(data, (0.0, 1.0))
    assert out.b == (0.0, 1.0)
    assert isinstance(out.mu, Product)
    assert out.mu.factors[1] is pi_delta0


def test_transform_general_mixed_axes(pi_delta0):
    data = RepresentationData(0.0, (0.0,), pi_delta0)
    out = transform(data, (0.5, 0.0, 0.5))
    assert isinstance(out.mu, LebesguePad)
    assert out.mu.axes == (0, 2) and out.mu.dim == 3
    inner = out.mu.inner
    assert isinstance(inner, PushforwardLadder)
    assert np.allclose(inner.b, [1.0]) and inner.scale == 2.0


def test_transform_general_two_zero_axes(pi_delta0):
    from nvk.quadrature import QuadratureConfig

    data = RepresentationData(0.0, (0.0,), pi_delta0)
    out = transform(data, (0.5, 0.0, 0.0, 0.5))
    assert isinstance(out.mu, LebesguePad)
    assert out.mu.axes == (0, 3) and out.mu.dim == 4
    z = (0.4 + 1.1j, -0.8 + 0.9j, 0.3 + 1.4j, 1.0 + 0.7j)
    got = evaluate(out, z, QuadratureConfig(rel_tol=1e-6, abs_tol=1e-9))
    want = -1.0 / (0.5 * z[0] + 0.5 * z[3])
    assert abs(got - want) <= 1e-6 * abs(want)


def test_errors(pi_delta0):
    data = RepresentationData(0.0, (0.0,), pi_delta0)
    with pytest.raises(DomainError, match="strictly positive"):
        coefficients_to_ladder((1.0, 0.0))
    with pytest.raises(DomainError):
        transform(data, (0.5, 0.4))  # does not sum to 1
    with pytest.raises(DomainError):
        transform(data, (0.0, 0.0))
    with pytest.raises(DomainError):
        coefficients_to_ladder((1.2, -0.2))


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5), st.data())
@settings(max_examples=30, deadline=None)
def test_non_finite_coefficients_rejected(ks, data):
    i = data.draw(st.integers(0, len(ks) - 1))
    ks[i] = data.draw(_NON_FINITE)
    with pytest.raises(DomainError):
        validate_convex_coefficients(ks)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e-320, 0.0, -1.0],
                         ids=["inf", "nan", "tiny", "zero", "negative"])
def test_ladder_entry_points_reject_bad_coefficients(bad):
    # ladder_normalization((nan, 1.0)) returned nan silently, and 1e-320
    # (whose reciprocal overflows) gave inf/nan with RuntimeWarnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (ladder_normalization, ladder_matrix, ladder_to_coefficients):
            with pytest.raises(DomainError, match="ladder coefficients"):
                entry((bad, 1.0))
        with pytest.raises(DomainError, match="ladder coefficients"):
            PushforwardLadder(Atomic.single(1.0, 0.0), (1.0, bad), 1.0)


_ATOMS = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 3.0)), min_size=1, max_size=3)
# k in the simplex at n = 2 and 3, zero coefficients included (normalised in the test).
_K = st.sampled_from([2, 3]).flatmap(lambda n: st.lists(
    st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=n, max_size=n)).filter(any)
_UPPER = st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.1, 3.0))


@given(st.floats(-2.0, 2.0), st.floats(0.0, 2.0), _ATOMS, _K, st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_transformed_atoms_match_the_combined_point_within_their_estimate(a, b, atoms, k, data):
    # Two routes to q(k1 z1 + ... + kn zn): nested quadrature of the
    # transformed data, and the exact one-variable atomic sum at the point.
    ks = [kl / sum(k) for kl in k]
    z = data.draw(st.tuples(*[_UPPER] * len(ks)))
    base = RepresentationData(a, (b,), Atomic(tuple(((x,), w) for x, w in atoms)))
    value, err = evaluate(transform(base, ks), z, full_output=True)
    reference = evaluate(base, (sum(kl * zl for kl, zl in zip(ks, z)),))
    assert abs(value - reference) <= err + 1e-13 * max(1.0, abs(reference))


# Lorentzian mixtures: component i has weight w_i, centre c_i and width s_i.
_LORENTZIANS = st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(-30.0, 30.0),
                                  st.floats(-2.5, 1.5).map(lambda e: 10.0 ** e)),
                        min_size=1, max_size=3)
# k at n = 1 (the data itself) and in the simplex at n = 2, zero coefficients
# included (normalised in the test).
_K12 = st.sampled_from([1, 2]).flatmap(lambda n: st.lists(
    st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=n, max_size=n)).filter(any)
_UPPER_NEAR = st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.03, 3.0))


@given(st.floats(-2.0, 2.0), st.floats(0.0, 2.0), _LORENTZIANS, _K12, st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_transformed_lorentzians_match_the_combined_point_within_their_estimate(a, b, parts, k,
                                                                                 data):
    # The density sum_i w_i s_i / (pi ((t - c_i)^2 + s_i^2)) represents
    # q(x) = a + b x + sum_i (w_i/pi) (1/(c_i - i s_i - x) - Re 1/(c_i - i (1 + s_i))),
    # evaluated by quadrature at n = 1 and through ``transform`` at n = 2.
    ks = [kl / sum(k) for kl in k]
    z = data.draw(st.tuples(*[_UPPER_NEAR] * len(ks)))

    def density(t):
        return sum(w * s / (math.pi * ((t - c) ** 2 + s * s)) for w, c, s in parts)

    base = RepresentationData(a, (b,), LebesgueDensity(1, density))
    value, err = evaluate(base if len(ks) == 1 else transform(base, ks), z, full_output=True)
    x = sum(kl * zl for kl, zl in zip(ks, z))
    reference = a + b * x + sum(w / math.pi * (1.0 / (c - 1j * s - x)
                                               - (1.0 / (c - 1j * (1.0 + s))).real)
                                for w, c, s in parts)
    assert abs(value - reference) <= err + 1e-13 * max(1.0, abs(reference))
