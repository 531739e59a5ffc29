"""Herglotz-Nevanlinna functions evaluated from their representation data.

A function q on the poly-upper half-plane is determined by a triple
(a, b, mu): a real constant, nonnegative linear coefficients and a positive
Borel measure satisfying the growth condition, via

    q(z) = a + sum_l b_l z_l + (1/pi^n) int K_n(z, t) dmu(t).

Atomic measures integrate exactly (no quadrature), which is the backbone of
the desk-scale tests.  The growth condition is not re-validated on every
evaluation; use the conditions module for explicit checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, GrowthConditionError
from .kernels import kernel_1d, kernel_nd_rational, require_upper_half
from .measures import Measure, integrate
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = ["RepresentationData", "evaluate", "HerglotzReport", "check_herglotz"]


@dataclass(frozen=True)
class RepresentationData:
    """The triple (a, b, mu); ``b`` has one entry per variable."""

    a: float
    b: tuple[float, ...]
    mu: Measure

    def __post_init__(self):
        bs = self.b if isinstance(self.b, (tuple, list, np.ndarray)) else (self.b,)
        object.__setattr__(self, "b", tuple(float(x) for x in bs))
        object.__setattr__(self, "a", float(self.a))
        if not (isfinite(self.a) and all(isfinite(x) for x in self.b)):
            raise DomainError("a and b must be finite")
        if any(x < 0 for x in self.b):
            raise DomainError("linear coefficients must be nonnegative")
        if self.mu.dimension != len(self.b):
            raise DimensionMismatchError("measure dimension must match len(b)")

    @property
    def n(self) -> int:
        return len(self.b)


def evaluate(data: RepresentationData, z: Sequence[complex],
             cfg: QuadratureConfig = DEFAULT_CONFIG,
             full_output: bool = False):
    """q(z) from the data; returns (value, error_estimate) if ``full_output``.

    Raises ``GrowthConditionError`` when the representation integral
    diverges numerically.
    """
    zs = require_upper_half(z)
    n = data.n
    if len(zs) != n:
        raise DimensionMismatchError("z must have one coordinate per variable")

    if n == 1:
        kernel = lambda t: kernel_1d(zs, t)
    else:
        kernel = lambda *ts: kernel_nd_rational(zs, ts)

    r = integrate(data.mu, kernel, cfg)
    if r.diverged:
        raise GrowthConditionError("measure violates growth condition (numerically)")
    value = data.a + sum(bl * zl for bl, zl in zip(data.b, zs)) + r.value / pi ** n
    if full_output:
        return value, r.error_estimate / pi ** n
    return value


@dataclass(frozen=True)
class HerglotzReport:
    sample_count: int
    min_imag: float
    worst_point: tuple[complex, ...]
    passed: bool


def check_herglotz(data: RepresentationData, sample_count: int = 100,
                   seed: int = 0, cfg: QuadratureConfig = DEFAULT_CONFIG,
                   tolerance: float = 1e-10) -> HerglotzReport:
    """Sample the poly-upper half-plane and report the minimum of Im q."""
    if sample_count < 1:
        raise DomainError("check_herglotz needs at least one sample")
    rng = np.random.default_rng(seed)
    n = data.n
    min_im = np.inf
    worst: tuple[complex, ...] = ()
    for _ in range(sample_count):
        z = tuple(rng.uniform(-10, 10) + 1j * rng.uniform(0.1, 10) for _ in range(n))
        v = evaluate(data, z, cfg)
        if v.imag < min_im:
            min_im = v.imag
            worst = z
    return HerglotzReport(sample_count, float(min_im), worst, min_im >= -tolerance)
