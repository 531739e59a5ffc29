"""Convex-combination transform of one-variable representation data.

Composing a one-variable Herglotz-Nevanlinna function q with a convex
combination z |-> k1 z1 + ... + kn zn yields an n-variable function whose
representation data is explicit: the constant is unchanged, the linear
coefficients are (k1 b, ..., kn b), and the measure is the ladder
pushforward of mu with coefficients b_j = k_n / k_j and normalisation
beta_n = det(M_n).

``transform`` takes every k in the simplex.  Axes with k = 0 get zero
linear coefficients and Lebesgue factors: a single surviving axis carries
mu itself in a ``Product``, and two or more carry the ladder pushforward of
the renormalised positive coefficients inside a ``LebesguePad``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError
from .kernels import _array, require_ladder_coefficients
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
]

# Coefficients at or below this magnitude are treated as exact zeros: their
# axes are padded with Lebesgue factors.
ZERO_COEFFICIENT_TOL = 1e-15


def validate_convex_coefficients(k: Sequence[float]) -> np.ndarray:
    ks = _array(k, float)
    if ks is None or ks.ndim != 1 or ks.size < 2:
        raise DomainError("need at least two convex coefficients, as a flat sequence")
    if not np.all(np.isfinite(ks)):
        raise DomainError("convex coefficients must be finite")
    if np.any(ks < 0):
        raise DomainError("convex coefficients must be nonnegative")
    if abs(ks.sum() - 1.0) > 1e-12:
        raise DomainError("convex coefficients must sum to 1")
    return ks


def coefficients_to_ladder(k: Sequence[float]) -> np.ndarray:
    """b_j = k_n / k_j for j = 1..n-1; requires strictly positive k."""
    ks = validate_convex_coefficients(k)
    if np.any(ks <= ZERO_COEFFICIENT_TOL):
        raise DomainError("ladder coefficients need strictly positive convex coefficients")
    return ks[-1] / ks[:-1]


def ladder_to_coefficients(b: Sequence[float]) -> np.ndarray:
    """Inverse map: k_l = prod(b) / (b_l beta_n), k_n = prod(b) / beta_n."""
    bs = np.asarray(require_ladder_coefficients(b))
    beta = ladder_normalization(bs)
    prod = float(np.prod(bs))
    ks = np.empty(len(bs) + 1)
    ks[:-1] = prod / (bs * beta)
    ks[-1] = prod / beta
    return ks


def ladder_matrix(b: Sequence[float]) -> np.ndarray:
    """n x n matrix with rows e1 - b_j e_{j+1} (j < n) and a final row of ones."""
    bs = require_ladder_coefficients(b)
    n = len(bs) + 1
    m = np.zeros((n, n))
    m[:, 0] = 1.0
    for j, bj in enumerate(bs):
        m[j, j + 1] = -bj
    m[n - 1, :] = 1.0
    return m


def ladder_normalization(b: Sequence[float]) -> float:
    """det of the ladder matrix: sum_j prod_{i != j} b_i + prod_i b_i."""
    bs = require_ladder_coefficients(b)
    prod = float(np.prod(bs))
    return float(sum(prod / bj for bj in bs) + prod)


def transform(data: RepresentationData, k: Sequence[float]) -> RepresentationData:
    """n-variable data of z |-> q(k1 z1 + ... + kn zn) for k in the simplex.

    Strictly positive k give the ladder pushforward of mu.  Axes with k = 0
    are padded with Lebesgue factors; a single surviving axis carries mu
    itself, and two or more carry the transform of the renormalised
    positive sub-combination.
    """
    ks = validate_convex_coefficients(k)
    if data.n != 1:
        raise DomainError("transform starts from one-variable data")
    n = len(ks)
    zero = ks <= ZERO_COEFFICIENT_TOL
    support = np.flatnonzero(~zero)
    b_tilde = tuple(0.0 if z else float(kl * data.b[0]) for kl, z in zip(ks, zero))

    if is_zero_measure(data.mu):
        mu_tilde = zero_measure(n)
    elif support.size == 1:
        factors = [lebesgue() for _ in range(n)]
        factors[support[0]] = data.mu
        mu_tilde = Product(tuple(factors))
    else:
        # k is renormalised only when an axis drops out, so that a strictly
        # positive k reaches the ladder exactly as given.
        positive = ks[support]
        bs = coefficients_to_ladder(positive if support.size == n else positive / positive.sum())
        mu_tilde = PushforwardLadder(data.mu, bs, ladder_normalization(bs))
        if support.size < n:
            mu_tilde = LebesguePad(mu_tilde, tuple(support.tolist()), n)
    return RepresentationData(data.a, b_tilde, mu_tilde)
