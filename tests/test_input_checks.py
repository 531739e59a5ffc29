"""Inputs from outside the package that each public constructor or function
rejects with ``DomainError`` before doing any work."""

import math

import pytest

from nvk.conditions import (
    check_cubic_condition,
    check_nevanlinna_nvar,
    derive_traits,
    nevanlinna_grid,
    nevanlinna_inner_value,
)
from nvk.descriptors import measure_to_json
from nvk.errors import DomainError
from nvk.kernels import kernel_1d, kernel_nd_rational, kernel_nd_sum, ladder_kernel
from nvk.measures import (
    Atomic,
    LebesgueDensity,
    LebesguePad,
    Measure,
    Product,
    PushforwardLadder,
    integrate,
    lebesgue,
)
from nvk.representation import RepresentationData
from nvk.transform import ladder_to_coefficients, transform, validate_convex_coefficients

_ATOM = Atomic.single(math.pi, 0.0)


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
    "kernel_1d_two_coordinates": (lambda: kernel_1d((1j, 1j), 0.0), "one coordinate"),
    "kernel_nd_sum_lengths": (lambda: kernel_nd_sum((1j, 1j), (0.0,)), "same length"),
    "kernel_nd_rational_lengths": (lambda: kernel_nd_rational((1j, 1j), (0.0,)), "same length"),
    "ladder_kernel_t_length": (lambda: ladder_kernel((1j, 1j, 1j), (0.0,), (1.0, 1.0), 2, 1),
                               "length m"),
    "one_convex_coefficient": (lambda: validate_convex_coefficients([1.0]), "at least two"),
    "no_ladder_coefficients": (lambda: ladder_to_coefficients([]), "at least one"),
    "transform_two_variable_data": (
        lambda: transform(RepresentationData(0.0, (0.0, 0.0), Atomic.single(1.0, 0.0, 0.0)),
                          (0.5, 0.5)),
        "one-variable data"),
    "nevanlinna_nvar_dimension": (lambda: check_nevanlinna_nvar(lebesgue(2), (1j, 1j, 1j)),
                                  "dimension must match"),
    "nevanlinna_grid_dimension": (lambda: nevanlinna_grid(lebesgue(3), [(1j, 1j)]),
                                  "two-dimensional measure"),
    "nevanlinna_grid_one_coordinate": (lambda: nevanlinna_grid(lebesgue(2), [(1j, 1j), (1j,)]),
                                       "two-coordinate points"),
    "nevanlinna_grid_three_coordinates": (lambda: nevanlinna_grid(lebesgue(2), [(1j, 1j, 1j)]),
                                          "two-coordinate points"),
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
