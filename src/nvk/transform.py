"""Convex-combination transform of one-variable representation data.

Composing a one-variable Herglotz-Nevanlinna function q with a convex
combination z |-> k1 z1 + ... + kn zn yields an n-variable function whose
representation data is explicit: the constant is unchanged, the linear
coefficients are (k1 b, ..., kn b), and the measure is the ladder
pushforward of mu with coefficients b_j = k_n / k_j and normalisation
beta_n = det(M_n).

Zero coefficients are handled by the general route: the axes with k = 0
receive Lebesgue factors, the remaining axes carry the transform of the
reduced (strictly positive) combination.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError
from .kernels import require_ladder_coefficients
from .measures import LebesguePad, Product, PushforwardLadder, is_zero_measure, lebesgue, zero_measure
from .representation import RepresentationData

__all__ = [
    "ZERO_COEFFICIENT_TOL",
    "validate_convex_coefficients",
    "coefficients_to_ladder",
    "ladder_to_coefficients",
    "ladder_matrix",
    "ladder_normalization",
    "transform",
    "transform_general",
]

# Coefficients at or below this magnitude are treated as exact zeros and
# routed through the general (Lebesgue padding) construction.
ZERO_COEFFICIENT_TOL = 1e-15


def validate_convex_coefficients(k: Sequence[float], strict: bool = False) -> np.ndarray:
    ks = np.asarray(k, dtype=float)
    if ks.ndim != 1 or ks.size < 2:
        raise DomainError("need at least two convex coefficients")
    if not np.all(np.isfinite(ks)):
        raise DomainError("convex coefficients must be finite")
    if np.any(ks < 0):
        raise DomainError("convex coefficients must be nonnegative")
    if abs(ks.sum() - 1.0) > 1e-12:
        raise DomainError("convex coefficients must sum to 1")
    if strict and np.any(ks <= ZERO_COEFFICIENT_TOL):
        raise DomainError(
            "coefficients with zeros require the general transform (transform_general)"
        )
    return ks


def coefficients_to_ladder(k: Sequence[float]) -> np.ndarray:
    """b_j = k_n / k_j for j = 1..n-1; requires strictly positive k."""
    ks = validate_convex_coefficients(k, strict=True)
    return ks[-1] / ks[:-1]


def ladder_to_coefficients(b: Sequence[float]) -> np.ndarray:
    """Inverse map: k_l = prod(b) / (b_l beta_n), k_n = prod(b) / beta_n."""
    bs = _validate_ladder(b)
    beta = ladder_normalization(bs)
    prod = float(np.prod(bs))
    ks = np.empty(len(bs) + 1)
    ks[:-1] = prod / (bs * beta)
    ks[-1] = prod / beta
    return ks


def _validate_ladder(b: Sequence[float]) -> np.ndarray:
    bs = np.asarray(b, dtype=float)
    if bs.ndim != 1 or bs.size < 1:
        raise DomainError("need at least one ladder coefficient")
    require_ladder_coefficients(bs)
    return bs


def ladder_matrix(b: Sequence[float]) -> np.ndarray:
    """n x n matrix with rows e1 - b_j e_{j+1} (j < n) and a final row of ones."""
    bs = _validate_ladder(b)
    n = len(bs) + 1
    m = np.zeros((n, n))
    m[:, 0] = 1.0
    for j, bj in enumerate(bs):
        m[j, j + 1] = -bj
    m[n - 1, :] = 1.0
    return m


def ladder_normalization(b: Sequence[float]) -> float:
    """det of the ladder matrix: sum_j prod_{i != j} b_i + prod_i b_i."""
    bs = _validate_ladder(b)
    prod = float(np.prod(bs))
    return float(sum(prod / bj for bj in bs) + prod)


def transform(data: RepresentationData, k: Sequence[float]) -> RepresentationData:
    """n-variable data of z |-> q(k1 z1 + ... + kn zn), all k strictly positive."""
    ks = validate_convex_coefficients(k, strict=True)
    if data.n != 1:
        raise DomainError("transform starts from one-variable data")
    n = len(ks)
    b_tilde = tuple(float(kl * data.b[0]) for kl in ks)
    if is_zero_measure(data.mu):
        mu_tilde = zero_measure(n)
    else:
        bs = coefficients_to_ladder(ks)
        mu_tilde = PushforwardLadder(data.mu, tuple(bs), ladder_normalization(bs))
    return RepresentationData(data.a, b_tilde, mu_tilde)


def transform_general(data: RepresentationData, k: Sequence[float]) -> RepresentationData:
    """Like ``transform`` but allowing zero coefficients.

    Axes with k = 0 are padded with Lebesgue factors; the strictly positive
    sub-combination is transformed on the remaining axes.  A single surviving
    axis carries the original measure itself.
    """
    ks = validate_convex_coefficients(k)
    if data.n != 1:
        raise DomainError("transform starts from one-variable data")
    n = len(ks)
    zero = ks <= ZERO_COEFFICIENT_TOL
    support = [i for i in range(n) if not zero[i]]
    if not support:
        raise DomainError("at least one coefficient must be positive")
    if len(support) == n:
        return transform(data, ks)

    b_tilde = tuple(float(kl * data.b[0]) if not z else 0.0 for kl, z in zip(ks, zero))

    if is_zero_measure(data.mu):
        return RepresentationData(data.a, b_tilde, zero_measure(n))

    if len(support) == 1:
        factors = [lebesgue() for _ in range(n)]
        factors[support[0]] = data.mu
        return RepresentationData(data.a, b_tilde, Product(tuple(factors)))

    sub = transform(data, ks[support] / ks[support].sum())
    mu_hat = LebesguePad(sub.mu, tuple(support), n)
    return RepresentationData(data.a, b_tilde, mu_hat)
