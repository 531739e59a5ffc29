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
the telescoping of the prefactors substitute.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Sequence

import numpy as np

from .errors import DomainError, QuadratureFailure
from .kernels import kernel_1d, ladder_kernel, ladder_kernel_full, require_upper_half
from .measures import Atomic, Product, PushforwardLadder, integrate, is_zero_measure, lebesgue
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .representation import RepresentationData, evaluate
from .transform import ladder_normalization, ladder_to_coefficients, transform, transform_general

__all__ = [
    "LadderReport",
    "MainTheoremReport",
    "verify_step",
    "verify_final_step",
    "verify_full_reduction",
    "rung_report",
    "rung_prefactors",
    "ladder_closed_form",
    "verify_main_theorem",
]


@dataclass(frozen=True)
class LadderReport:
    m: int
    d: int
    sample_count: int
    max_rel_error: float
    samples: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        if self.max_rel_error < 0:
            raise DomainError("max_rel_error must be nonnegative")


@dataclass(frozen=True)
class MainTheoremReport:
    sample_count: int
    max_closed_form_error: float
    max_quadrature_error: float
    samples: tuple[tuple[complex, complex, complex], ...]  # (reference, closed, quad)


# Lebesgue measure on the line, whose integration plan the rungs share.
_LINE = lebesgue()


def _require_converged(r, what: str) -> complex:
    if r.diverged or not r.converged:
        raise QuadratureFailure(f"quadrature failed while verifying {what}")
    return r.value


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
    n = len(zs)
    if m < 3 or m + d != n:
        raise DomainError("middle rungs need m >= 3 and m + d = len(z)")
    if len(t) != m - 1:
        raise DomainError("t must fix the first m - 1 coordinates")
    ts = tuple(float(x) for x in t)

    r = integrate(_LINE, lambda x: ladder_kernel(zs, ts + (x,), b, m, d), cfg)
    lhs = _require_converged(r, f"the ({m},{d}) ladder rung")
    rhs = pi / b[m - 2] * ladder_kernel(zs, ts, b, m - 1, d + 1)
    return lhs, rhs


def verify_final_step(n: int, b: Sequence[float], z: Sequence[complex],
                      t1: float, cfg: QuadratureConfig = DEFAULT_CONFIG
                      ) -> tuple[complex, complex]:
    """The last rung: integrate the (2, n-2) kernel over t2 and compare with
    pi * (prod_{j=2}^{n-1} b_j / beta_n) * K_1(sum k_l z_l, t1)."""
    zs = require_upper_half(z)
    if len(zs) != n or n < 2:
        raise DomainError("need n >= 2 coordinates")
    if len(b) != n - 1:
        raise DomainError("need n - 1 ladder coefficients")

    r = integrate(_LINE, lambda x: ladder_kernel(zs, (t1, x), b, 2, n - 2), cfg)
    lhs = _require_converged(r, "the final ladder rung")
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
    if len(zs) != n or len(b) != n - 1:
        raise DomainError("inconsistent dimensions")

    def f(*rest):
        return ladder_kernel_full(zs, (t1,) + tuple(rest), b)

    # t2 outermost, t_n innermost.
    r = integrate(Product((lebesgue(),) * (n - 1)), f, cfg)
    lhs = _require_converged(r, "the full ladder reduction")
    s, beta = _combined_point(b, zs)
    return lhs, pi ** (n - 1) / beta * kernel_1d(s, t1)


def rung_report(m: int, d: int, sample_count: int = 20, seed: int = 0,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> LadderReport:
    """Verify one ladder rung on random draws and collect the outcomes.

    Middle rungs (m >= 3) integrate out the last variable; m = 2 runs the
    final rung against the one-variable kernel.
    """
    from .sampling import draw_ladder_coefficients, draw_upper_point, rng_for

    n = m + d
    worst = 0.0
    pairs = []
    for i in range(sample_count):
        rng = rng_for(seed, i)
        b = draw_ladder_coefficients(rng, n)
        z = draw_upper_point(rng, n)
        if m >= 3:
            t = tuple(rng.uniform(-2, 2, m - 1))
            lhs, rhs = verify_step(m, d, b, z, t, cfg)
        else:
            lhs, rhs = verify_final_step(n, b, z, float(rng.uniform(-2, 2)), cfg)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
        pairs.append((lhs, rhs))
    return LadderReport(m, d, sample_count, worst, tuple(pairs))


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


def _closed_form_evaluate(data_nvar: RepresentationData, z: Sequence[complex]) -> complex:
    zs = require_upper_half(z)
    linear = data_nvar.a + sum(bl * zl for bl, zl in zip(data_nvar.b, zs))
    if is_zero_measure(data_nvar.mu):
        return linear
    return linear + ladder_closed_form(zs, data_nvar.mu) / pi ** data_nvar.n


def verify_main_theorem(data: RepresentationData, k: Sequence[float],
                        z_points: Sequence[Sequence[complex]],
                        cfg: QuadratureConfig = DEFAULT_CONFIG,
                        quadrature: bool = True) -> MainTheoremReport:
    """Pointwise comparison of the transformed data against the composed
    function q(k1 z1 + ... + kn zn).

    The reference is the one-variable evaluation at the combined point; the
    closed-form path reduces the transformed measure exactly (atomic base),
    and the quadrature path evaluates the transformed data by nested
    integration.  Coefficients with zeros route through the general
    transform, where only the quadrature path applies.
    """
    if data.n != 1:
        raise DomainError("main-theorem verification starts from one-variable data")
    if not (is_zero_measure(data.mu) or isinstance(data.mu, Atomic)):
        raise DomainError("verification requires an atomic base measure")

    ks = np.asarray(k, dtype=float)
    strict = bool(np.all(ks > 1e-15))
    tilde = transform(data, ks) if strict else transform_general(data, ks)

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
            closed = _closed_form_evaluate(tilde, zs)
            max_closed = max(max_closed, abs(closed - reference) / scale)

        quad = complex("nan")
        if quadrature:
            quad = evaluate(tilde, zs, cfg)
            max_quad = max(max_quad, abs(quad - reference) / scale)

        rows.append((reference, closed, quad))

    return MainTheoremReport(len(rows), max_closed, max_quad, tuple(rows))
