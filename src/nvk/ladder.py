"""First-class verification of the kernel ladder and the end-to-end
convex-combination identity.

The ladder reduces the composed kernel to the one-variable kernel by
integrating out one Lebesgue variable at a time:

    int ladder_kernel(m, d) dt_m   = (pi / b_{m-1}) * ladder_kernel(m-1, d+1)
    int ladder_kernel(2, n-2) dt_2 = pi * (prod_{j>=2} b_j / beta_n)
                                       * K_1(k1 z1 + ... + kn zn, t1)

and composing all rungs telescopes to

    int ladder_kernel(n, 0) dt_n ... dt_2 = (pi^{n-1} / beta_n)
                                             * K_1(k1 z1 + ... + kn zn, t1).

Every rung is checked by adaptive quadrature of the left side against the
closed-form right side.  Full (n-1)-dimensional quadrature of the last
identity is kept to n in {2, 3}; for larger n the rung-by-rung checks and
the telescoping of the prefactors substitute.  Each verifier checks z, b
and the dimensions once, before any integration, and integrates the
kernel's unchecked core, the arithmetic ``ladder_kernel`` runs after its
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Sequence

import numpy as np

from .errors import DomainError, QuadratureFailure
from .kernels import _check_ladder, _ladder_core, kernel_1d, require_upper_half
from .measures import Atomic, Product, PushforwardLadder, integrate, is_zero_measure, lebesgue
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .representation import RepresentationData, evaluate
from .transform import ZERO_COEFFICIENT_TOL, ladder_normalization, ladder_to_coefficients, transform

__all__ = [
    "MainTheoremReport",
    "verify_step",
    "verify_final_step",
    "verify_full_reduction",
    "rung_prefactors",
    "ladder_closed_form",
    "verify_main_theorem",
]


@dataclass(frozen=True)
class MainTheoremReport:
    sample_count: int
    max_closed_form_error: float
    max_quadrature_error: float
    samples: tuple[tuple[complex, complex, complex], ...]  # (reference, closed, quad)


# Lebesgue measure on the line and on the plane, whose integration plans
# the checks share; the last variable is innermost.
_LINE = lebesgue()
_PLANE = Product((_LINE, _LINE))


def _reduced(zs, b: Sequence[float], m: int, d: int, fixed, cfg: QuadratureConfig,
             what: str) -> tuple[complex, tuple]:
    """The integral of the (m, d) kernel over the coordinates after
    ``fixed``, and ``fixed`` as a tuple, which is formed after the kernel's
    checks.  Raises ``QuadratureFailure`` naming ``what`` unless the
    integral converged."""
    _check_ladder(zs, b, m, d)
    fixed = tuple(fixed)
    kernel = _ladder_core(zs, b, m, d)
    mu = _LINE if m - len(fixed) == 1 else _PLANE
    r = integrate(mu, lambda *rest: kernel(fixed + rest), cfg)
    if r.diverged or not r.converged:
        raise QuadratureFailure(f"quadrature failed while verifying {what}")
    return r.value, fixed


def _combined_point(b: Sequence[float], zs: Sequence[complex]) -> tuple[complex, float]:
    """(sum k_l z_l, beta_n) for the ladder coefficients ``b``, by the
    transform's route rather than the ladder kernels."""
    ks = ladder_to_coefficients(b)
    return sum(k * zj for k, zj in zip(ks, zs)), ladder_normalization(b)


def verify_step(m: int, d: int, b: Sequence[float], z: Sequence[complex],
                t: Sequence[float], cfg: QuadratureConfig = DEFAULT_CONFIG
                ) -> tuple[complex, complex]:
    """One middle rung: integrate the (m, d) kernel over its last variable
    and compare with (pi / b_{m-1}) times the (m-1, d+1) kernel at ``t``.

    Requires m >= 3; the final rung (m = 2) has its own closed form.
    """
    zs = require_upper_half(z)
    if m < 3:
        raise DomainError("middle rungs need m >= 3")
    if len(t) != m - 1:
        raise DomainError("t must fix the first m - 1 coordinates")
    lhs, ts = _reduced(zs, b, m, d, (float(x) for x in t), cfg, f"the ({m},{d}) ladder rung")
    return lhs, pi / b[m - 2] * _ladder_core(zs, b, m - 1, d + 1)(ts)


def verify_final_step(n: int, b: Sequence[float], z: Sequence[complex],
                      t1: float, cfg: QuadratureConfig = DEFAULT_CONFIG
                      ) -> tuple[complex, complex]:
    """The last rung: integrate the (2, n-2) kernel over t2 and compare with
    pi * (prod_{j=2}^{n-1} b_j / beta_n) * K_1(sum k_l z_l, t1)."""
    zs = require_upper_half(z)
    lhs, _ = _reduced(zs, b, 2, n - 2, (t1,), cfg, "the final ladder rung")
    s, beta = _combined_point(b, zs)
    return lhs, pi * float(np.prod(b[1:])) / beta * kernel_1d(s, t1)


def verify_full_reduction(n: int, b: Sequence[float], z: Sequence[complex],
                          t1: float, cfg: QuadratureConfig = DEFAULT_CONFIG
                          ) -> tuple[complex, complex]:
    """Full (n-1)-fold quadrature of the composed kernel against the closed
    form (pi^{n-1} / beta_n) * K_1(sum k_l z_l, t1); limited to n in {2, 3}
    because the quadrature cost grows geometrically with n."""
    zs = require_upper_half(z)
    if n not in (2, 3):
        raise DomainError("full quadrature is limited to n in {2, 3}; "
                          "verify rung by rung for larger n")
    lhs, _ = _reduced(zs, b, n, 0, (t1,), cfg, "the full ladder reduction")
    s, beta = _combined_point(b, zs)
    return lhs, pi ** (n - 1) / beta * kernel_1d(s, t1)


def rung_prefactors(b: Sequence[float]) -> tuple[float, float]:
    """(product of all rung prefactors, closed form pi^{n-1}/beta_n).

    The middle rungs contribute pi/b_j for j = n-1 down to 2 and the final
    rung pi * prod_{j=2}^{n-1} b_j / beta_n, which telescopes.
    """
    n = len(b) + 1
    prod = 1.0
    for j in range(n - 1, 1, -1):  # b_{n-1} ... b_2
        prod *= pi / b[j - 1]
    prod *= pi * float(np.prod(b[1:])) / ladder_normalization(b)
    return prod, pi ** (n - 1) / ladder_normalization(b)


def ladder_closed_form(z: Sequence[complex], mu: PushforwardLadder) -> complex:
    """int K_n(z, .) dmu for a ladder pushforward with an atomic base,
    through the full reduction: scale * (pi^{n-1}/beta_n) * sum_i w_i
    K_1(sum k_l z_l, x_i).  Exact up to rounding; no quadrature."""
    if not isinstance(mu.base, Atomic):
        raise DomainError("closed form requires an atomic base measure")
    zs = require_upper_half(z)
    if len(zs) != mu.dimension:
        raise DomainError("z must match the measure dimension")
    s, beta = _combined_point(mu.b, zs)
    acc = 0.0 + 0.0j
    for (x,), w in mu.base.atoms:
        acc += w * kernel_1d(s, x)
    return mu.scale * pi ** (len(zs) - 1) / beta * acc


def verify_main_theorem(data: RepresentationData, k: Sequence[float],
                        z_points: Sequence[Sequence[complex]],
                        cfg: QuadratureConfig = DEFAULT_CONFIG,
                        quadrature: bool = True) -> MainTheoremReport:
    """Pointwise comparison of the transformed data against the composed
    function q(k1 z1 + ... + kn zn).

    The reference is the one-variable evaluation at the combined point; the
    quadrature path evaluates ``transform(data, k)`` by nested integration.
    The closed-form path reduces the transformed measure exactly (atomic
    base); it needs a ladder pushforward, so it runs only when every
    coefficient is positive.  A zero coefficient with ``quadrature=False``
    leaves no path to run and raises ``DomainError``.
    """
    if data.n != 1:
        raise DomainError("main-theorem verification starts from one-variable data")
    if not isinstance(data.mu, Atomic):
        raise DomainError("verification requires an atomic base measure")

    ks = np.asarray(k, dtype=float)
    strict = bool(np.all(ks > ZERO_COEFFICIENT_TOL))
    if not (strict or quadrature):
        raise DomainError("a zero coefficient leaves only the quadrature path, which is off")
    tilde = transform(data, ks)

    max_closed = 0.0
    max_quad = 0.0
    rows = []
    for z in z_points:
        zs = require_upper_half(z)
        combined = sum(kl * zl for kl, zl in zip(ks, zs))
        reference = evaluate(data, (combined,), cfg)
        scale = max(1.0, abs(reference))

        closed = complex("nan")
        if strict:
            closed = tilde.a + sum(bl * zl for bl, zl in zip(tilde.b, zs))
            if not is_zero_measure(tilde.mu):
                closed += ladder_closed_form(zs, tilde.mu) / pi ** tilde.n
            max_closed = max(max_closed, abs(closed - reference) / scale)

        quad = complex("nan")
        if quadrature:
            quad = evaluate(tilde, zs, cfg)
            max_quad = max(max_quad, abs(quad - reference) / scale)

        rows.append((reference, closed, quad))

    return MainTheoremReport(len(rows), max_closed, max_quad, tuple(rows))
