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
statement.  One rule, ``vanishes``, reads a set of such integrals: a value
counts as zero when |value| <= max(1e-8, 1e-6 * S) where S integrates the
modulus of the integrand (cancellation-dominated integrals need a relative
yardstick).  A diverged integral is nonzero; an unconverged one is zero or
nonzero only when its error estimate keeps it on one side of that
tolerance, and undecided otherwise.  ``decided`` reads a single integral
as finite, infinite or undecided.  The cubic condition and the
command-line evidence both read their integrals through these two, so an
undecided integral is never read as decided.  ``EVIDENCE_CONFIG`` solves
them two orders below both constants of the zero tolerance, at (rel 1e-8,
abs 1e-10): finer digits move no verdict, so ``nvk classify`` and the
conditions suite of ``nvk verify`` take it as their default.
``nevanlinna_grid`` is the one entry point for the two-variable condition;
a single point is a one-point grid.  A grid is one batched solve: the
values at all points are the members of one ``measures.integrate_many``
call at one config, with the points' poles (z1, conj z2) as the layout
hint, so every row's t2 lines sit on its own poles.  Each scale S is its
value's ``modulus``: the integral of |f| that the quadrature carries over
the value rows' own panels, so no second solve is needed.  The cubic
condition reads its scales the same way, and the sign vectors of the
n-variable sum are batched likewise.  The default grid's points are
checked once, when the grid is built.

The classifier for measures of the planar pushforward family decides from
the affine coefficients and declared traits of the base measure which of
the eight representing cases applies, or that the measure does not
represent.  Declared traits are trusted over numerics when they conflict;
the command-line front end reports such conflicts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .kernels import require_upper_half
from .measures import Box, Measure, integrate, integrate_many, mass
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureResult
from .residues import RationalFunction

__all__ = [
    "Case",
    "MeasureTraits",
    "Classification",
    "check_growth",
    "check_nevanlinna_nvar",
    "nevanlinna_grid",
    "default_z_grid",
    "nevanlinna_zero_tolerance",
    "EVIDENCE_CONFIG",
    "decided",
    "vanishes",
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
    """Declared analytic properties of a one-dimensional base measure; None
    marks a property that is unknown (numerics neither converged nor
    diverged, or the cubic condition was not evaluated)."""

    is_zero: Optional[bool]
    is_finite: Optional[bool]
    satisfies_1var_growth: Optional[bool]
    satisfies_cubic_condition: Optional[bool] = None

    def __post_init__(self):
        if self.is_zero is True and self.is_finite is False:
            raise DomainError("a zero measure is finite")
        if self.is_finite is True and self.satisfies_1var_growth is False:
            raise DomainError("a finite measure satisfies the growth condition")


@dataclass(frozen=True)
class Classification:
    """Outcome of the classifier; ``representing`` is None when the trait
    that decides is unknown, and ``case`` then names the case it decides."""

    case: Case
    representing: Optional[bool]


def _decide(case: Case, ok: Optional[bool]) -> Classification:
    if ok is None:
        return Classification(case, None)
    return Classification(case if ok else Case.NOT_REPRESENTING, ok)


def check_growth(mu: Measure, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """The growth integral int prod_j 1/(1+t_j^2) dmu; divergence flags a
    numerical violation."""

    def f(*ts):
        v = 1.0
        for tj in ts:
            v = v / (1.0 + tj * tj)
        return v + 0.0j

    return integrate(mu, f, cfg)


def nevanlinna_grid(mu: Measure, zs: Sequence[Sequence[complex]],
                    cfg: QuadratureConfig = DEFAULT_CONFIG,
                    ) -> tuple[list[QuadratureResult], list[float]]:
    """int dmu / ((t1 - z1)^2 (t2 - conj(z2))^2) at every point z of ``zs``,
    and the modulus scales (the integrals of the integrand's modulus) of the
    points before the first one whose integral diverged (a "for all z"
    check stops there).  A single point is a one-point grid.

    The values are the members of one ``integrate_many`` call at ``cfg``
    whose layout follows the poles (z1, conj z2), so the grid costs one
    batched solve; each scale is its value's ``modulus``, integrated over
    the value's own panels.
    """
    if mu.dimension != 2:
        raise DimensionMismatchError("the Nevanlinna grid needs a two-dimensional measure")
    pts = [require_upper_half(z, 2) for z in zs]
    z1 = np.array([z[0] for z in pts], dtype=complex)
    z2c = np.array([z[1] for z in pts], dtype=complex).conj()

    def f(t1, t2, k):
        return 1.0 / ((t1 - z1[k]) ** 2 * (t2 - z2c[k]) ** 2)

    values = integrate_many(mu, f, len(pts), cfg, poles=np.column_stack((z1, z2c)))
    upto = next((i for i, v in enumerate(values) if v.diverged), len(values))
    return values, [r.modulus for r in values[:upto]]


def _mixed_sign_vectors(n: int):
    for rho in itertools.product((-1, 0, 1), repeat=n):
        if -1 in rho and 1 in rho:
            yield rho


def check_nevanlinna_nvar(mu: Measure, z: Sequence[complex],
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """The n-variable Nevanlinna sum at one sample point: every sign vector
    containing both -1 and +1 contributes one integral (3^n - 2*2^n + 1
    terms in total), each a member of one ``integrate_many`` call."""
    zs = require_upper_half(z, mu.dimension)
    choice = np.array(list(_mixed_sign_vectors(len(zs)))) + 1  # rho_j + 1, one row per term

    def f(*args):
        *ts, k = args
        v = 1.0 + 0.0j
        for j, (tj, zj) in enumerate(zip(ts, zs)):
            a, b = 1.0 / (tj - 1j), 1.0 / (tj + 1j)
            # N_{-1,j}, N_{0,j} and N_{+1,j}; each term picks its own.
            factors = (1.0 / (tj - zj) - a, a - b, b - 1.0 / (tj - zj.conjugate()))
            v = v * np.choose(choice[k, j], factors)
        return v

    terms = integrate_many(mu, f, len(choice), cfg)
    diverged = next((r for r in terms if r.diverged), None)
    if diverged is not None:
        return diverged
    return QuadratureResult(sum((r.value for r in terms), 0j),
                            sum(r.error_estimate for r in terms),
                            all(r.converged for r in terms), False,
                            sum(r.modulus for r in terms))


# The zero rule's absolute floor and its factor on the modulus; evidence is
# solved two orders below both.
_ZERO_ABS, _ZERO_REL = 1e-8, 1e-6
EVIDENCE_CONFIG = QuadratureConfig(rel_tol=1e-2 * _ZERO_REL, abs_tol=1e-2 * _ZERO_ABS)


def nevanlinna_zero_tolerance(scale: float) -> float:
    return max(_ZERO_ABS, _ZERO_REL * scale)


def decided(r: QuadratureResult) -> Optional[bool]:
    """Finite (True), infinite (False), or None when the integral neither
    converged nor diverged."""
    return r.converged if (r.converged or r.diverged) else None


def vanishes(results: Sequence[QuadratureResult]) -> Optional[bool]:
    """Whether every integral of ``results`` is zero within the tolerance of
    its modulus: False when one diverged or is nonzero, otherwise None when
    one is undecided, otherwise True.

    A converged value is zero exactly when it is within its tolerance.  An
    unconverged one is zero when its error estimate keeps it within, nonzero
    when the estimate keeps it beyond, and undecided otherwise."""
    verdicts = set()
    for r in results:
        size, err = abs(r.value), 0.0 if r.converged else r.error_estimate
        tol = nevanlinna_zero_tolerance(r.modulus)
        verdicts.add(False if r.diverged or size - err > tol else size + err <= tol or None)
    return False if False in verdicts else None if None in verdicts else True


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


@functools.lru_cache(maxsize=32)
def _z_grid(n: int, count: int) -> tuple[tuple[complex, ...], ...]:
    # Kept as checked points, so the checkers that take them need not
    # check them again.
    return tuple(
        require_upper_half(tuple((-10.0 + 20.0 * row[2 * j]) + 1j * (0.1 + 9.9 * row[2 * j + 1])
                                 for j in range(n)), n)
        for row in _halton(2 * n, count))


def default_z_grid(n: int = 2, count: int = 25) -> list[tuple[complex, ...]]:
    """Deterministic quasi-random sample of the box
    {Re in [-10, 10], Im in [0.1, 10]}^n used for "for all z" checks.

    The points are computed once per (n, count); each call returns a new
    list of them."""
    return list(_z_grid(n, count))


def check_cubic_condition(coeff_det: float, delta: float, beta: float,
                          mu1: Measure,
                          z_samples: Optional[Sequence[Sequence[complex]]] = None,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> Optional[bool]:
    """Whether int dmu1 / (coeff_det * t1 - delta z1 + beta conj(z2))^3
    vanishes over the sample grid; ``coeff_det`` is alpha*delta - beta*gamma.

    Read by ``vanishes``: False when one integral diverges or is nonzero,
    None when one is undecided, since it cannot be read as zero."""
    if coeff_det == 0:
        raise DomainError("the cubic condition needs alpha*delta - beta*gamma != 0")
    if mu1.dimension != 1:
        raise DomainError("the cubic condition applies to a one-dimensional measure")
    points = [require_upper_half(z, 2)
              for z in (default_z_grid(2) if z_samples is None else z_samples)]
    if not points:
        raise DomainError("the cubic condition needs at least one sample point")
    w = np.array([-delta * z1 + beta * z2.conjugate() for z1, z2 in points])
    return vanishes(integrate_many(mu1, lambda t1, k: 1.0 / (coeff_det * t1 + w[k]) ** 3,
                                   w.size, cfg))


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
            return _decide(Case.I1, traits.is_finite)
        return _decide(Case.I2, traits.satisfies_1var_growth)

    if delta == 0:  # beta != 0
        if gamma == 0:
            return _decide(Case.II1, traits.is_finite)
        return _decide(Case.II2, traits.satisfies_1var_growth)

    det = alpha * delta - beta * gamma
    if beta * delta < 0:
        if det == 0:
            return _decide(Case.III1A, traits.is_finite)
        return _decide(Case.III1B, traits.satisfies_1var_growth)

    # beta * delta > 0; with det != 0 growth decides first, then the cubic
    # condition.
    if det == 0:
        return _decide(Case.III2A, traits.is_zero)
    if traits.satisfies_1var_growth is not True:
        return _decide(Case.III2B, traits.satisfies_1var_growth)
    return _decide(Case.III2B, True if traits.is_zero else traits.satisfies_cubic_condition)


def derive_traits(mu1: Measure, cfg: QuadratureConfig = DEFAULT_CONFIG,
                  coefficients: Optional[tuple[float, float, float, float]] = None) -> MeasureTraits:
    """Numerically derived traits of a one-dimensional measure.

    When ``coefficients`` with beta*delta > 0 and a nonzero determinant are
    supplied, the cubic condition is evaluated as well; otherwise it is left
    unknown.  A mass or growth integral that neither converged nor diverged
    leaves its traits unknown (None) rather than satisfied.  Numerical
    divergence detection is heuristic, so a declared trait always outranks
    the derived one.
    """
    if mu1.dimension != 1:
        raise DomainError("traits are derived for one-dimensional measures")

    total = mass(mu1, Box(((-math.inf, math.inf),)), cfg)
    finite = decided(total)
    zero = finite and abs(total.value) <= 1e-12

    growth = decided(check_growth(mu1, cfg))

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
    return RationalFunction((1.0,), [
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
    return RationalFunction((1.0,), [
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
