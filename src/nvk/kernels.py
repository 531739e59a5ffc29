"""Integration kernels for Herglotz-Nevanlinna representations.

Two algebraically equivalent forms of the n-variable kernel K_n are kept as
separate code paths so they can be cross-checked numerically; the rational
single-fraction form is the one ``evaluate`` uses (one division, better
rounding).

The ladder kernels arise when K_n is composed with the affine map

    (t1, ..., tn) |-> (t1 - b1 t2, ..., t1 - b_{n-1} tn, t1 + ... + tn)

and then integrated out one Lebesgue variable at a time, innermost last
variable first.  ``ladder_kernel(z, t, b, m, d)``, the kernel after d such
integrations, is K_m at a reduced point divided by a weight F, so it is
evaluated by ``kernel_nd_rational``; d = 0, m = n is the composed kernel.

All evaluators broadcast when one of the real coordinates arrives as a
numpy array, which is how the adaptive quadrature drives them.

Points are read by ``require_upper_half(z, n)``, once per call and never per
node: it rejects points of another dimension than n and points outside the
poly-upper half-plane, and warns when a coordinate lies within
``POLE_PROXIMITY`` of the real axis.  The kernels have their poles at
t_j = z_j and t_j = +-i, and for real t the distance |t_j - z_j| is at
least Im z_j, so no real node comes closer to a pole than that check
allows.  A point it returns is marked as checked, and passing it on to
another kernel costs one type test and one length comparison.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError

__all__ = [
    "require_upper_half",
    "kernel_1d",
    "kernel_nd_sum",
    "kernel_nd_rational",
    "ladder_kernel_full",
    "ladder_kernel",
    "require_ladder_coefficients",
    "ladder_weight",
    "ladder_z_sum",
]

_I_POW = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)

POLE_PROXIMITY = 1e-12


class _UpperPoint(tuple):
    """Coordinates that ``require_upper_half`` has already checked."""

    __slots__ = ()


def require_upper_half(z: Sequence[complex], n: int) -> tuple[complex, ...]:
    """Validate that ``z`` has ``n`` coordinates, each finite with strictly
    positive imaginary part; warn once when one lies within
    ``POLE_PROXIMITY`` of the real axis.  A scalar is a one-coordinate
    point.  This is the one reader of points: every function that takes a
    point reads it here, with the dimension it expects."""
    if type(z) is _UpperPoint and len(z) == n:
        return z
    zs = tuple(complex(v) for v in (z if isinstance(z, (tuple, list)) or np.ndim(z) else (z,)))
    if len(zs) != n:
        raise DimensionMismatchError(f"point has {len(zs)} coordinates, but the dimension is {n}")
    if not zs:
        raise DomainError("a point needs at least one coordinate")
    if any(v.imag <= 0 for v in zs):
        raise DomainError("point not in poly-upper half-plane")
    if not all(cmath.isfinite(v) for v in zs):
        raise DomainError("point coordinates must be finite")
    if min(v.imag for v in zs) < POLE_PROXIMITY:
        warnings.warn(
            "point within 1e-12 of the real axis, where the kernel has its poles; "
            "result is ill-conditioned",
            RuntimeWarning,
            stacklevel=3,
        )
    return _UpperPoint(zs)


def kernel_1d(z: complex, t):
    """One-variable kernel 1/(t - z) - t/(1 + t^2), Im z > 0.

    ``z`` is a number or a one-coordinate point from ``require_upper_half``.
    """
    z, = require_upper_half(z, 1)
    return 1.0 / (t - z) - t / (1.0 + t * t)


def kernel_nd_sum(z: Sequence[complex], t: Sequence):
    """n-variable kernel in the product/difference form

    i * ( 2/(2i)^n * prod_j (1/(t_j - z_j) - 1/(t_j + i))
          - 1/(2i)^n * prod_j (1/(t_j - i) - 1/(t_j + i)) ).
    """
    n = len(t)
    zs = require_upper_half(z, n)
    two_i_n = (2j) ** n
    p1 = 1.0 + 0.0j
    p2 = 1.0 + 0.0j
    for zj, tj in zip(zs, t):
        p1 = p1 * (1.0 / (tj - zj) - 1.0 / (tj + 1j))
        p2 = p2 * (1.0 / (tj - 1j) - 1.0 / (tj + 1j))
    return 1j * (2.0 / two_i_n * p1 - 1.0 / two_i_n * p2)


def kernel_nd_rational(z: Sequence[complex], t: Sequence):
    """n-variable kernel as a single fraction

    ( i^(3n+1) prod_j (t_j - i)(z_j + i) - 2^(n-1) i prod_j (t_j - z_j) )
    / ( 2^(n-1) prod_j (t_j - z_j)(t_j - i)(t_j + i) ).

    For real t the factor (t_j - i)(t_j + i) is t_j^2 + 1, and prod_j (z_j + i)
    is one number per call, so the fraction is evaluated, divided through by
    2^(n-1), as

        ( w prod_j (t_j - i) - i prod_j (t_j - z_j) )
        / ( prod_j (t_j - z_j) prod_j (t_j^2 + 1) ),

    w = i^(3n+1) prod_j (z_j + i) / 2^(n-1), with the products accumulated in
    place and one complex division.
    """
    n = len(t)
    zs = require_upper_half(z, n)
    w = _I_POW[(3 * n + 1) % 4] * math.prod(zj + 1j for zj in zs) / 2.0 ** (n - 1)
    # np.broadcast takes at most 32 operands on numpy 1.x (64 on 2.x).
    shape = (np.broadcast(*t).shape if n <= 32
             else np.broadcast_shapes(*(np.shape(tj) for tj in t)))
    p1 = np.subtract(t[0], 1j, out=np.empty(shape, dtype=complex))
    p2 = np.subtract(t[0], zs[0], out=np.empty(shape, dtype=complex))
    q = np.multiply(t[0], t[0], out=np.empty(shape))
    q += 1.0
    for zj, tj in zip(zs[1:], t[1:]):
        p1 *= tj - 1j
        p2 *= tj - zj
        q *= np.multiply(tj, tj) + 1.0
    p1 *= w
    p1 -= 1j * p2
    p2 *= q
    p1 /= p2
    return p1 if shape else complex(p1)


def _array(v, dtype) -> Optional[np.ndarray]:
    """numpy's array of the outside vector ``v``, or None when numpy cannot
    build one (a ragged sequence, or an entry that is not a number); the
    shared first step of the vector readers."""
    try:
        return np.asarray(v, dtype=dtype)
    except (TypeError, ValueError):
        return None


def require_ladder_coefficients(b: Sequence[float]) -> tuple[float, ...]:
    """The ladder coefficients ``b`` as a tuple of floats.  Rejects anything
    but a non-empty flat sequence of numbers, and coefficients that are not
    finite and strictly positive or whose reciprocal overflows (b_j below
    about 5.6e-309)."""
    bs = _array(b, float)
    if bs is None or bs.ndim != 1 or bs.size < 1:
        raise DomainError("ladder needs at least one coefficient, as a flat sequence")
    if not all(0 < bj < math.inf and 1.0 / bj < math.inf for bj in bs.tolist()):
        raise DomainError("ladder coefficients must be finite and strictly positive, "
                          "with finite reciprocals")
    return tuple(bs.tolist())


def ladder_weight(m: int, d: int, b: Sequence[float]) -> float:
    """Weight accumulated by d integrations: 1 + sum_{j=m}^{m+d-1} 1/b_j."""
    return 1.0 + sum(1.0 / b[i - 1] for i in range(m, m + d))


def ladder_z_sum(m: int, d: int, b: Sequence[float], z: Sequence[complex]) -> complex:
    """Weighted tail sum z_m/b_m + ... + z_{m+d-1}/b_{m+d-1} + z_{m+d}."""
    tail = sum((complex(z[i - 1]) / b[i - 1] for i in range(m, m + d)), 0j)
    return tail + complex(z[m + d - 1])


def _check_ladder(z, b, m: int, d: int) -> tuple[_UpperPoint, tuple[float, ...]]:
    """The checks of ``ladder_kernel`` that do not involve t; returns the
    checked point and coefficients, which the ladder's arithmetic uses."""
    if m < 1 or d < 0 or m + d < 2:
        raise DomainError("need m >= 1, d >= 0 and m + d >= 2")
    zs = require_upper_half(z, m + d)
    bs = require_ladder_coefficients(b)
    if len(bs) != m + d - 1:
        raise DimensionMismatchError("need n - 1 ladder coefficients")
    return zs, bs


def _ladder_core(zs: _UpperPoint, bs: tuple[float, ...], m: int, d: int) -> Callable:
    """The ladder kernel at a point and coefficients that ``_check_ladder``
    returned, as a function of t = (t1, ..., tm) of length m.

    The reduced point and the weight F are formed once, so an integrand
    built on this pays only the arithmetic per call; ``kernel_nd_rational``
    is looked up at call time."""
    if d:
        f_w = ladder_weight(m, d, bs)
        reduced = _UpperPoint(zs[:m - 1] + (ladder_z_sum(m, d, bs, zs) / f_w,))

    def kernel(t):
        u = [t[0] - bs[j] * t[j + 1] for j in range(m - 1)]
        if d == 0:
            u.append(sum(t[1:], start=t[0]))
            return kernel_nd_rational(zs, u)
        u.append(sum(t[1:], start=f_w * t[0]) / f_w)
        return kernel_nd_rational(reduced, u) / f_w
    return kernel


def ladder_kernel(z: Sequence[complex], t: Sequence, b: Sequence[float],
                  m: int, d: int):
    """Ladder kernel after d integrations, a function of t = (t1, ..., tm):

        K_m((z_1, ..., z_{m-1}, Z/F), (u_1, ..., u_{m-1}, T/F)) / F,

    with u_j = t1 - b_j t_{j+1}, F = ``ladder_weight(m, d, b)``, Z =
    ``ladder_z_sum(m, d, b, z)`` and T = F t1 + t2 + ... + tm.  Z/F is a
    convex combination of z_m, ..., z_n, so the reduced point is never
    closer to the real axis than z.  At d = 0, F = 1 and the kernel is
    K_n(z, M t) itself.

    Requires m >= 1, d >= 0, m + d = len(z) >= 2 and all b_j > 0.
    """
    zs, bs = _check_ladder(z, b, m, d)
    if len(t) != m:
        raise DimensionMismatchError("t must have length m")
    return _ladder_core(zs, bs, m, d)(t)


def ladder_kernel_full(z: Sequence[complex], t: Sequence, b: Sequence[float]):
    """The composed kernel K_n(z, M t) before any integration (d = 0)."""
    return ladder_kernel(z, t, b, len(t), 0)
