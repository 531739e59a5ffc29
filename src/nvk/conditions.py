"""Growth and Nevanlinna condition checkers, and the classifier for planar
pushforward measures.

A positive Borel measure on R^n represents a Herglotz-Nevanlinna function
exactly when the growth integral

    int prod_j 1/(1 + t_j^2) dmu(t)

is finite and the Nevanlinna condition holds: the sum over sign vectors
rho in {-1,0,1}^n containing both -1 and +1 of int prod_j N_{rho_j, j} dmu
vanishes for every z in the poly-upper half-plane, where

    N_{-1,j} = 1/(t_j - z_j) - 1/(t_j - i)
    N_{ 0,j} = 1/(t_j - i)   - 1/(t_j + i)
    N_{+1,j} = 1/(t_j + i)   - 1/(t_j - conj(z_j)).

For n = 2 the condition is equivalent to
int dmu / ((t1 - z1)^2 (t2 - conj(z2))^2) = 0.

A "for all z" condition is checked numerically on a fixed quasi-random grid
of 25 points per variable pair with Im in [0.1, 10] and Re in [-10, 10];
this is the strongest desk-scale surrogate for the universally quantified
statement.  A value counts as zero when |value| <= max(1e-8, 1e-6 * S)
where S integrates the modulus of the integrand (cancellation-dominated
integrals need a relative yardstick).

The classifier for measures of the planar pushforward family decides from
the affine coefficients and declared traits of the base measure which of
the eight representing cases applies, or that the measure does not
represent.  Declared traits are trusted over numerics when they conflict;
the command-line front end reports such conflicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .measures import Box, Measure, integrate, is_zero_measure, mass
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureResult
from .residues import RationalFunction

__all__ = [
    "Case",
    "MeasureTraits",
    "Classification",
    "check_growth",
    "check_nevanlinna_2var",
    "check_nevanlinna_nvar",
    "nevanlinna_modulus_scale",
    "default_z_grid",
    "nevanlinna_zero_tolerance",
    "check_cubic_condition",
    "classify_pushforward2d",
    "derive_traits",
    "growth_inner_rational",
    "growth_inner_value",
    "nevanlinna_inner_rational",
    "nevanlinna_inner_value",
]


class Case(str, Enum):
    """Cases of the planar pushforward classification."""

    I1 = "i1"
    I2 = "i2"
    II1 = "ii1"
    II2 = "ii2"
    III1A = "iii1a"
    III1B = "iii1b"
    III2A = "iii2a"
    III2B = "iii2b"
    NOT_REPRESENTING = "not_representing"


@dataclass(frozen=True)
class MeasureTraits:
    """Declared analytic properties of a one-dimensional base measure."""

    is_zero: bool
    is_finite: bool
    satisfies_1var_growth: bool
    satisfies_cubic_condition: Optional[bool] = None

    def __post_init__(self):
        if self.is_zero and not self.is_finite:
            raise DomainError("a zero measure is finite")
        if self.is_finite and not self.satisfies_1var_growth:
            raise DomainError("a finite measure satisfies the growth condition")


@dataclass(frozen=True)
class Classification:
    """Outcome of the classifier; ``representing`` is None when the cubic
    condition would decide but is unknown."""

    case: Case
    representing: Optional[bool]


def check_growth(mu: Measure, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """The growth integral int prod_j 1/(1+t_j^2) dmu; divergence flags a
    numerical violation."""

    def f(*ts):
        v = 1.0
        for tj in ts:
            v = v / (1.0 + tj * tj)
        return v + 0.0j

    return integrate(mu, f, cfg)


def check_nevanlinna_2var(mu: Measure, z: Sequence[complex],
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """int dmu / ((t1 - z1)^2 (t2 - conj(z2))^2) at one sample point z."""
    z1, z2 = (complex(v) for v in z)
    if z1.imag <= 0 or z2.imag <= 0:
        raise DomainError("sample point must lie in the poly-upper half-plane")
    z2c = z2.conjugate()

    def f(t1, t2):
        return 1.0 / ((t1 - z1) ** 2 * (t2 - z2c) ** 2)

    return integrate(mu, f, cfg)


def _nevanlinna_factor(rho_j: int, zj: complex):
    if rho_j == -1:
        return lambda tj: 1.0 / (tj - zj) - 1.0 / (tj - 1j)
    if rho_j == 0:
        return lambda tj: 1.0 / (tj - 1j) - 1.0 / (tj + 1j)
    return lambda tj: 1.0 / (tj + 1j) - 1.0 / (tj - zj.conjugate())


def _mixed_sign_vectors(n: int):
    for rho in itertools.product((-1, 0, 1), repeat=n):
        if -1 in rho and 1 in rho:
            yield rho


def check_nevanlinna_nvar(mu: Measure, z: Sequence[complex],
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """The n-variable Nevanlinna sum at one sample point: every sign vector
    containing both -1 and +1 contributes one integral (3^n - 2*2^n + 1
    terms in total)."""
    zs = tuple(complex(v) for v in z)
    if any(v.imag <= 0 for v in zs):
        raise DomainError("sample point must lie in the poly-upper half-plane")
    n = len(zs)
    if mu.dimension != n:
        raise DomainError("measure dimension must match the sample point")

    total = 0.0 + 0.0j
    err = 0.0
    converged = True
    for rho in _mixed_sign_vectors(n):
        factors = [_nevanlinna_factor(r, zj) for r, zj in zip(rho, zs)]

        def f(*ts, factors=factors):
            v = 1.0 + 0.0j
            for fac, tj in zip(factors, ts):
                v = v * fac(tj)
            return v

        r = integrate(mu, f, cfg)
        if r.diverged:
            return r
        total += r.value
        err += r.error_estimate
        converged = converged and r.converged
    return QuadratureResult(total, err, converged, False)


def nevanlinna_modulus_scale(mu: Measure, z: Sequence[complex],
                             cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """int |integrand| dmu for the two-variable Nevanlinna integral; the
    reference scale for deciding that a cancellation-dominated value is
    numerically zero."""
    z1, z2 = (complex(v) for v in z)
    z2c = z2.conjugate()

    def f(t1, t2):
        return 1.0 / (np.abs(t1 - z1) ** 2 * np.abs(t2 - z2c) ** 2) + 0.0j

    r = integrate(mu, f, cfg)
    return abs(r.value)


def nevanlinna_zero_tolerance(scale: float) -> float:
    return max(1e-8, 1e-6 * scale)


def _radical_inverse(i: int, base: int) -> float:
    """The digits of i in ``base`` mirrored behind the radix point."""
    x, scale = 0.0, 1.0 / base
    while i > 0:
        i, digit = divmod(i, base)
        x += digit * scale
        scale /= base
    return x


def _halton(d: int, count: int) -> list[list[float]]:
    """The first ``count`` points of the unscrambled Halton sequence in
    [0, 1)^d, starting at the origin, one prime base per coordinate."""
    primes: list[int] = []
    p = 2
    while len(primes) < d:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    return [[_radical_inverse(i, q) for q in primes] for i in range(count)]


def default_z_grid(n: int = 2, count: int = 25) -> list[tuple[complex, ...]]:
    """Deterministic quasi-random sample of the box
    {Re in [-10, 10], Im in [0.1, 10]}^n used for "for all z" checks."""
    pts = _halton(2 * n, count)
    grid = []
    for row in pts:
        z = tuple(
            (-10.0 + 20.0 * row[2 * j]) + 1j * (0.1 + 9.9 * row[2 * j + 1])
            for j in range(n)
        )
        grid.append(z)
    return grid


def check_cubic_condition(coeff_det: float, delta: float, beta: float,
                          mu1: Measure,
                          z_samples: Optional[Sequence[Sequence[complex]]] = None,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> bool:
    """Whether int dmu1 / (coeff_det * t1 - delta z1 + beta conj(z2))^3
    vanishes over the sample grid; ``coeff_det`` is alpha*delta - beta*gamma."""
    if coeff_det == 0:
        raise DomainError("the cubic condition needs alpha*delta - beta*gamma != 0")
    if mu1.dimension != 1:
        raise DomainError("the cubic condition applies to a one-dimensional measure")
    if is_zero_measure(mu1):
        return True
    if z_samples is None:
        z_samples = default_z_grid(2)
    for z1, z2 in z_samples:
        w = -delta * complex(z1) + beta * complex(z2).conjugate()

        def f(t1):
            return 1.0 / (coeff_det * t1 + w) ** 3

        def f_abs(t1):
            return 1.0 / np.abs(coeff_det * t1 + w) ** 3 + 0.0j

        r = integrate(mu1, f, cfg)
        if r.diverged:
            return False
        scale = abs(integrate(mu1, f_abs, cfg).value)
        if abs(r.value) > nevanlinna_zero_tolerance(scale):
            return False
    return True


def classify_pushforward2d(alpha: float, beta: float, gamma: float, delta: float,
                           traits: MeasureTraits) -> Classification:
    """Decision table for measures of the planar pushforward family.

    Growth requires, depending on (beta, delta): a finite base when the
    inner integral is bounded below, or the one-variable growth condition
    when it decays quadratically; the Nevanlinna condition holds
    automatically except when beta*delta > 0, where it forces either a zero
    base (degenerate direction) or the cubic condition.
    """
    if beta == 0 and delta == 0:
        return Classification(Case.NOT_REPRESENTING, False)

    if beta == 0:  # delta != 0
        if alpha == 0:
            ok = traits.is_finite
            return Classification(Case.I1 if ok else Case.NOT_REPRESENTING, ok)
        ok = traits.satisfies_1var_growth
        return Classification(Case.I2 if ok else Case.NOT_REPRESENTING, ok)

    if delta == 0:  # beta != 0
        if gamma == 0:
            ok = traits.is_finite
            return Classification(Case.II1 if ok else Case.NOT_REPRESENTING, ok)
        ok = traits.satisfies_1var_growth
        return Classification(Case.II2 if ok else Case.NOT_REPRESENTING, ok)

    det = alpha * delta - beta * gamma
    if beta * delta < 0:
        if det == 0:
            ok = traits.is_finite
            return Classification(Case.III1A if ok else Case.NOT_REPRESENTING, ok)
        ok = traits.satisfies_1var_growth
        return Classification(Case.III1B if ok else Case.NOT_REPRESENTING, ok)

    # beta * delta > 0
    if det == 0:
        ok = traits.is_zero
        return Classification(Case.III2A if ok else Case.NOT_REPRESENTING, ok)
    if not traits.satisfies_1var_growth:
        return Classification(Case.NOT_REPRESENTING, False)
    cubic = True if traits.is_zero else traits.satisfies_cubic_condition
    if cubic is None:
        return Classification(Case.III2B, None)
    return Classification(Case.III2B if cubic else Case.NOT_REPRESENTING, bool(cubic))


def derive_traits(mu1: Measure, cfg: QuadratureConfig = DEFAULT_CONFIG,
                  coefficients: Optional[tuple[float, float, float, float]] = None) -> MeasureTraits:
    """Numerically derived traits of a one-dimensional measure.

    When ``coefficients`` with beta*delta > 0 and a nonzero determinant are
    supplied, the cubic condition is evaluated as well; otherwise it is left
    unknown.  Numerical divergence detection is heuristic, so a declared
    trait always outranks the derived one.
    """
    if mu1.dimension != 1:
        raise DomainError("traits are derived for one-dimensional measures")
    if is_zero_measure(mu1):
        return MeasureTraits(True, True, True, True)

    total = mass(mu1, Box(((-math.inf, math.inf),)), cfg)
    zero = (not total.diverged) and abs(total.value) <= 1e-12
    finite = not total.diverged

    def g(t):
        return 1.0 / (1.0 + t * t) + 0.0j

    growth = not integrate(mu1, g, cfg).diverged

    cubic: Optional[bool] = True if zero else None
    if coefficients is not None and not zero:
        alpha, beta, gamma, delta = coefficients
        det = alpha * delta - beta * gamma
        if beta * delta > 0 and det != 0 and growth:
            cubic = check_cubic_condition(det, delta, beta, mu1, cfg=cfg)
    return MeasureTraits(zero, finite, growth, cubic)


# Rational-function forms of the inner integrands (fixed parameters), both
# the growth and the Nevanlinna one, together with their closed-form values.
# These are the oracle fixtures behind the classifier's decision table.

def growth_inner_rational(alpha: float, beta: float, gamma: float, delta: float,
                          t1: float) -> RationalFunction:
    """tau |-> 1/((a t1 + b tau - i)(a t1 + b tau + i)(g t1 + d tau - i)(g t1 + d tau + i))."""
    return RationalFunction.from_linear_factors(1.0, [
        (alpha * t1 - 1j, beta, 1),
        (alpha * t1 + 1j, beta, 1),
        (gamma * t1 - 1j, delta, 1),
        (gamma * t1 + 1j, delta, 1),
    ])


def growth_inner_value(alpha: float, beta: float, gamma: float, delta: float,
                       t1: float) -> float:
    """Closed form of the inner growth integral over the second variable."""
    if beta == 0 and delta == 0:
        return math.inf
    if beta == 0:
        return (1.0 / (alpha * alpha * t1 * t1 + 1.0)) * math.pi / abs(delta)
    if delta == 0:
        return (1.0 / (gamma * gamma * t1 * t1 + 1.0)) * math.pi / abs(beta)
    s2 = t1 * t1 * (beta * gamma - alpha * delta) ** 2
    if beta * delta < 0:
        return math.pi * abs(beta - delta) / (s2 + (beta - delta) ** 2)
    return math.pi * abs(beta + delta) / (s2 + (beta + delta) ** 2)


def nevanlinna_inner_rational(alpha: float, beta: float, gamma: float, delta: float,
                              t1: float, z1: complex, z2: complex) -> RationalFunction:
    """tau |-> 1/((a t1 + b tau - z1)^2 (g t1 + d tau - conj(z2))^2)."""
    return RationalFunction.from_linear_factors(1.0, [
        (alpha * t1 - complex(z1), beta, 2),
        (gamma * t1 - complex(z2).conjugate(), delta, 2),
    ])


def nevanlinna_inner_value(alpha: float, beta: float, gamma: float, delta: float,
                           t1: float, z1: complex, z2: complex) -> complex:
    """Closed form of the inner Nevanlinna integral over the second variable.

    Zero unless beta*delta > 0, in which case the sign of the residue
    contour follows the sign of beta and delta.
    """
    if beta == 0 and delta == 0:
        raise DomainError("inner integral is not finite for beta = delta = 0")
    if beta * delta <= 0:
        return 0.0 + 0.0j
    w = ((alpha * delta - beta * gamma) * t1
         - delta * complex(z1) + beta * complex(z2).conjugate())
    value = 4j * math.pi * beta * delta / w ** 3
    return value if beta > 0 else -value
