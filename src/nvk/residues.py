"""Contour integration of rational functions given as linear factors.

This is the oracle side of every closed-form identity in the package: for a
rational function f with deg(den) >= deg(num) + 2 and no real poles, the
line integral over R equals 2*pi*i times the sum of the upper-half-plane
residues, and also minus 2*pi*i times the lower sum.  Both are computed and
must agree.

The denominator is stored as the linear factors (c0 + c1 x)^k it is built
from, so no root is ever searched for: the poles are the factors' roots
-c0/c1, and each residue is a Taylor coefficient read off the numerator and
the other factors at the pole.

Coefficients are numbers, not symbols: parameters are bound to values
before the oracle runs, and identities are validated at many random
parameter choices instead of symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InconsistencyError

__all__ = ["RationalFunction", "find_poles", "residue_at", "line_integral"]

_REAL_AXIS_TOL = 1e-9
# Roots closer than this (relative) are one pole: proportional factors give
# the same root up to rounding.
_SAME_ROOT = 1e-12


def _same_root(p: complex, q: complex) -> bool:
    return abs(p - q) <= _SAME_ROOT * max(abs(p), abs(q))


def _horner(coeffs, x):
    """The polynomial with ascending coefficients ``coeffs`` at ``x``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class RationalFunction:
    """num(x) / prod (c0 + c1 x)^k.

    ``num`` holds the numerator's complex coefficients in ascending degree,
    ``factors`` one ``(c0, c1, k)`` per denominator factor, with k >= 1.  A
    factor with c1 = 0 is a nonzero constant.
    """

    num: tuple[complex, ...]
    factors: tuple[tuple[complex, complex, int], ...]

    def __post_init__(self):
        num = [complex(c) for c in self.num]
        while num and num[-1] == 0:
            num.pop()
        for c0, c1, k in self.factors:
            if (c0 == 0 and c1 == 0) or k != int(k) or k < 1:
                raise DomainError("each factor (c0, c1, k) needs c0 or c1 nonzero and an integer k >= 1")
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "factors",
                           tuple((complex(c0), complex(c1), int(k)) for c0, c1, k in self.factors))

    def __call__(self, x):
        den = 1.0
        for c0, c1, k in self.factors:
            den = den * (c0 + c1 * x) ** k
        return _horner(self.num, x) / den

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1

    @property
    def den_degree(self) -> int:
        return sum(k for _, c1, k in self.factors if c1 != 0)


def find_poles(f: RationalFunction) -> list[tuple[complex, int]]:
    """The factors' roots -c0/c1 with their orders.

    Factors whose roots agree to 1e-12 relative count as one pole, their
    powers summed.  A root shared with the numerator is still reported; its
    residue is 0.
    """
    poles: list[list] = []
    for c0, c1, k in f.factors:
        if c1 == 0:
            continue
        root = -c0 / c1
        for pole in poles:
            if _same_root(pole[0], root):
                pole[1] += k
                break
        else:
            poles.append([root, k])
    return [(p, m) for p, m in poles]


def residue_at(f: RationalFunction, pole: complex, multiplicity: int = 1) -> complex:
    """Residue of f at a pole of the stated multiplicity.

    With u = x - pole, f = num(pole + u) * prod_other (a + c1 u)^-k /
    (prod_at_pole c1^k * u^m), a = c0 + c1 pole, so the residue is the
    u^(m-1) coefficient of the numerator's Taylor series times one binomial
    series per other factor, all truncated after m terms.
    """
    if multiplicity < 1:
        raise DomainError("multiplicity must be >= 1")
    m = multiplicity
    if not any(_same_root(p, pole) and order == m for p, order in find_poles(f)):
        raise InconsistencyError(f"{pole} is not a pole of order {m}")
    # The j-th Taylor coefficient of num at the pole is num^(j)(pole) / j!.
    series = [_horner([math.comb(i, j) * f.num[i] for i in range(j, len(f.num))], pole)
              for j in range(m)]
    leading = 1.0
    for c0, c1, k in f.factors:
        if c1 != 0 and _same_root(-c0 / c1, pole):
            leading *= c1 ** k
            continue
        # (a + c1 u)^-k = a^-k sum_j C(k+j-1, j) (-c1/a)^j u^j.
        a = c0 + c1 * pole
        binomial = [math.comb(k + j - 1, j) * (-c1 / a) ** j / a ** k for j in range(m)]
        series = [sum(series[i] * binomial[j - i] for i in range(j + 1)) for j in range(m)]
    return complex(series[m - 1] / leading)


def line_integral(f: RationalFunction) -> complex:
    """Integral of f over the real line by residue summation.

    Requires deg(den) >= deg(num) + 2 (so the arc contribution vanishes) and
    no real poles.  The upper-half-plane and lower-half-plane evaluations
    are cross-checked against each other.
    """
    if f.den_degree < f.num_degree + 2:
        raise DomainError("arc contribution nonzero: need deg(den) >= deg(num) + 2")
    poles = find_poles(f)
    upper = 0.0 + 0.0j
    lower = 0.0 + 0.0j
    residue_mass = 0.0
    for p, m in poles:
        if abs(p.imag) <= _REAL_AXIS_TOL * max(1.0, abs(p)):
            raise DomainError("real pole on the integration path")
        r = residue_at(f, p, m)
        residue_mass += abs(r)
        if p.imag > 0:
            upper += r
        else:
            lower += r
    val_up = 2j * math.pi * upper
    val_lo = -2j * math.pi * lower
    # The achievable agreement degrades with cancellation between residues,
    # so the guard scales with the total residue mass.
    tol = 1e-10 * max(1.0, abs(val_up), abs(val_lo), 2.0 * math.pi * residue_mass)
    if abs(val_up - val_lo) > tol:
        raise InconsistencyError("upper and lower residue sums disagree")
    return (val_up + val_lo) / 2.0
