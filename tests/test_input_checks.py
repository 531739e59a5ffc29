"""Inputs from outside the package that each public constructor or function
rejects with ``DomainError`` before doing any work."""

import math
import re

import pytest

from nvk.conditions import (
    check_cubic_condition,
    check_nevanlinna_nvar,
    derive_traits,
    nevanlinna_grid,
    nevanlinna_inner_value,
)
from nvk.descriptors import measure_to_json
from nvk.errors import DimensionMismatchError, DomainError
from nvk.kernels import (
    kernel_1d,
    kernel_nd_rational,
    kernel_nd_sum,
    ladder_kernel,
    ladder_kernel_full,
    require_ladder_coefficients,
    require_upper_half,
)
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
    LebesguePad,
    Measure,
    Product,
    PushforwardLadder,
    integrate,
    integrate_many,
    lebesgue,
)
from nvk.representation import RepresentationData, evaluate
from nvk.transform import ladder_to_coefficients, transform, validate_convex_coefficients

_ATOM = Atomic.single(math.pi, 0.0)


def _wrong_dimension(got: int, n: int) -> str:
    """The one message of a point with ``got`` coordinates where ``n`` are
    expected, as a pattern that matches nothing else."""
    return f"^{re.escape(f'point has {got} coordinates, but the dimension is {n}')}$"


class _BareMeasure(Measure):
    """A measure variant that no integrator and no writer knows."""

    dimension = 1


_REJECTED = {
    "product_no_factors": (lambda: Product(()), "at least one factor"),
    "product_2d_factor": (lambda: Product((_ATOM, lebesgue(2))), "one-dimensional"),
    "ladder_empty_b": (lambda: PushforwardLadder(_ATOM, (), 1.0), "at least one coefficient"),
    "ladder_nested_b": (lambda: PushforwardLadder(_ATOM, ((1.0,),), 1.0), "flat sequence"),
    "ladder_2d_base": (lambda: PushforwardLadder(lebesgue(2), (1.0,), 1.0), "one-dimensional"),
    "pad_unsorted_axes": (lambda: LebesguePad(lebesgue(2), (1, 0), 3), "ascending"),
    "pad_axis_out_of_range": (lambda: LebesguePad(lebesgue(), (3,), 3), "out of range"),
    "pad_inner_dimension": (lambda: LebesguePad(lebesgue(2), (0,), 3), "must match axes"),
    "lebesgue_dimension_0": (lambda: LebesgueDensity(0), "dimension must be >= 1"),
    "atomic_dim_mismatch": (lambda: Atomic((((0.0,), 1.0),), dim=2), "dim inconsistent"),
    "kernel_1d_two_coordinates": (lambda: kernel_1d((1j, 1j), 0.0), _wrong_dimension(2, 1)),
    "kernel_nd_sum_lengths": (lambda: kernel_nd_sum((1j, 1j), (0.0,)), _wrong_dimension(2, 1)),
    "kernel_nd_rational_lengths": (lambda: kernel_nd_rational((1j, 1j), (0.0,)),
                                   _wrong_dimension(2, 1)),
    "ladder_kernel_t_length": (lambda: ladder_kernel((1j, 1j, 1j), (0.0,), (1.0, 1.0), 2, 1),
                               "length m"),
    "one_convex_coefficient": (lambda: validate_convex_coefficients([1.0]), "at least two"),
    "no_ladder_coefficients": (lambda: ladder_to_coefficients([]), "at least one"),
    "transform_two_variable_data": (
        lambda: transform(RepresentationData(0.0, (0.0, 0.0), Atomic.single(1.0, 0.0, 0.0)),
                          (0.5, 0.5)),
        "one-variable data"),
    "nevanlinna_nvar_dimension": (lambda: check_nevanlinna_nvar(lebesgue(2), (1j, 1j, 1j)),
                                  _wrong_dimension(3, 2)),
    "nevanlinna_grid_dimension": (lambda: nevanlinna_grid(lebesgue(3), [(1j, 1j)]),
                                  "two-dimensional measure"),
    "nevanlinna_grid_one_coordinate": (lambda: nevanlinna_grid(lebesgue(2), [(1j, 1j), (1j,)]),
                                       _wrong_dimension(1, 2)),
    "nevanlinna_grid_three_coordinates": (lambda: nevanlinna_grid(lebesgue(2), [(1j, 1j, 1j)]),
                                          _wrong_dimension(3, 2)),
    "cubic_condition_dimension": (lambda: check_cubic_condition(1.0, 1.0, 1.0, lebesgue(2)),
                                  "one-dimensional"),
    "derive_traits_dimension": (lambda: derive_traits(lebesgue(2)), "one-dimensional"),
    "integrate_unknown_variant": (lambda: integrate(_BareMeasure(), lambda t: t),
                                  "unknown measure variant"),
    "serialize_unknown_variant": (lambda: measure_to_json(_BareMeasure()), "cannot serialize"),
    "inner_value_beta_delta_zero": (lambda: nevanlinna_inner_value(1.0, 0.0, 1.0, 0.0, 0.0, 1j, 1j),
                                    "beta = delta = 0"),
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_outside_input_rejected(name):
    call, match = _REJECTED[name]
    with pytest.raises(DomainError, match=match):
        call()


_ONE_VARIABLE = RepresentationData(0.0, (0.0,), _ATOM)
_LADDER = PushforwardLadder(_ATOM, (1.0,), 1.0)

# Every public function that takes a point, with the dimension it expects:
# it reads the point through ``require_upper_half``, so a point of the wrong
# length raises the one message before any work.
_POINT_READERS = {
    "require_upper_half": (2, lambda z: require_upper_half(z, 2)),
    "kernel_1d": (1, lambda z: kernel_1d(z, 0.0)),
    "kernel_nd_sum": (2, lambda z: kernel_nd_sum(z, (0.0, 0.0))),
    "kernel_nd_rational": (2, lambda z: kernel_nd_rational(z, (0.0, 0.0))),
    "ladder_kernel": (3, lambda z: ladder_kernel(z, (0.0, 0.0), (1.0, 1.0), 2, 1)),
    "ladder_kernel_full": (2, lambda z: ladder_kernel_full(z, (0.0, 0.0), (1.0,))),
    "evaluate": (2, lambda z: evaluate(RepresentationData(0.0, (0.0, 0.0), lebesgue(2)), z)),
    "ladder_closed_form": (2, lambda z: ladder_closed_form(z, _LADDER)),
    "check_nevanlinna_nvar": (2, lambda z: check_nevanlinna_nvar(lebesgue(2), z)),
    "nevanlinna_grid": (2, lambda z: nevanlinna_grid(lebesgue(2), [(1j, 1j), z])),
    "check_cubic_condition": (2, lambda z: check_cubic_condition(1.0, 1.0, 1.0, _ATOM, [z])),
    "verify_main_theorem": (2, lambda z: verify_main_theorem(_ONE_VARIABLE, (0.5, 0.5),
                                                             [(1j, 1j), z])),
    "verify_step": (3, lambda z: verify_step(3, 0, (1.0, 1.0), z, (0.0, 0.0))),
    "verify_final_step": (3, lambda z: verify_final_step(3, (1.0, 1.0), z, 0.0)),
    "verify_full_reduction": (3, lambda z: verify_full_reduction(3, (1.0, 1.0), z, 0.0)),
}


@pytest.mark.parametrize("name", sorted(_POINT_READERS))
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_a_point_of_the_wrong_dimension_gets_the_one_message(name, extra):
    n, call = _POINT_READERS[name]
    with pytest.raises(DimensionMismatchError, match=_wrong_dimension(n + extra, n)):
        call((0.5 + 1j,) * (n + extra))


# Every reader of an outside vector, fed a ragged, a nested and a
# non-numeric sequence: numpy cannot build the first or the last, and the
# nested one has the wrong shape.
_VECTOR_READERS = {
    "require_ladder_coefficients": (require_ladder_coefficients, "flat sequence"),
    "push_forward_ladder": (lambda b: PushforwardLadder(_ATOM, b, 1.0), "flat sequence"),
    "ladder_kernel": (lambda b: ladder_kernel((1j, 1j, 1j), (0.0, 0.0, 0.0), b, 3, 0),
                      "flat sequence"),
    "rung_prefactors": (rung_prefactors, "flat sequence"),
    "validate_convex_coefficients": (validate_convex_coefficients, "flat sequence"),
    "transform": (lambda k: transform(_ONE_VARIABLE, k), "flat sequence"),
    "verify_main_theorem": (lambda k: verify_main_theorem(_ONE_VARIABLE, k, [(1j, 1j)]),
                            "flat sequence"),
    "integrate_many_poles": (
        lambda p: integrate_many(lebesgue(2), lambda t1, t2, k: t1 * t2, 2, poles=p),
        "one row per member"),
}
_BAD_VECTORS = {
    "ragged": [[0.5], 0.5],
    "nested": [[[0.5, 0.5]], [[0.5, 0.5]]],
    "non_numeric": ["half", "half"],
}


@pytest.mark.parametrize("name", sorted(_VECTOR_READERS))
@pytest.mark.parametrize("kind", sorted(_BAD_VECTORS))
def test_a_vector_numpy_cannot_read_as_flat_is_a_domain_error(name, kind):
    call, match = _VECTOR_READERS[name]
    with pytest.raises(DomainError, match=match):
        call(_BAD_VECTORS[kind])


def test_ladder_arithmetic_uses_the_coefficients_as_read():
    # Numerals are read as the numbers they name, by every step after the
    # check as well as by the check.
    z = (0.3 + 1j, -0.2 + 0.8j, 0.1 + 1.2j)
    assert ladder_kernel(z[:2], (0.1, -0.2), ["1.5"], 2, 0) == \
        ladder_kernel(z[:2], (0.1, -0.2), [1.5], 2, 0)
    assert verify_final_step(3, ["1", "2"], z, 0.1) == verify_final_step(3, [1.0, 2.0], z, 0.1)
    assert rung_prefactors(["1", "2"]) == rung_prefactors((1.0, 2.0))
    with pytest.raises(DomainError, match="ladder coefficients"):
        rung_prefactors((1.0, 0.0))
