"""Adaptive complex-valued quadrature over the real line.

The whole line is compactified through the substitution t = tan(theta),
theta in (-pi/2, pi/2), and the transformed integrand is refined adaptively
with an embedded Gauss-Kronrod (7, 15) pair.  Finite and half-infinite
segments go through the same substitution restricted to the matching
theta-interval, so indicator-type integrands and box masses reuse one code
path.

One row-batched engine does all the work.  ``integrate_rows`` solves many
integrals at once: its integrand ``f(x, rows)`` receives a block of panels
laid out node-major, the nodes ``x`` with shape (15, P) (column p holds
panel p's nodes) and ``rows`` with shape (P,), the row (integral) of each
panel.  Per-row data is thus gathered once per panel, as ``data[rows]``,
and broadcast along the node axis, and elementwise arithmetic runs over P
contiguous elements at a time.  All rows share one config.  Every row has
its own segment [lo, hi] (the whole line unless stated) and its own
substitution centre and halfwidth; it keeps its own panels, running total
and error and stops by its own rules: tolerance met, subdivision cap, or
noise floor.  No rule stops a row because its total is large, so a heavy
integrand converges like a light one.  The initial panels of all rows are
evaluated first; after that each round splits the worst panel of every row
still running and evaluates all new panels.  A batch of panels goes to
``f`` in blocks of at most ``_PANEL_BLOCK`` panels, sized so that one
call's arrays stay in a per-core L2 cache; each panel's sums then run on a
panel-major copy of the block's values.  A row's arithmetic does not
depend on the other rows of its batch or on the blocking, so a row solved
alone returns the same bits.  A nest level whose integrand is itself an
integral thus evaluates all of its nodes with a few large batched inner
solves per round.  A single integral of a function of one variable is
``measures.integrate(lebesgue(), f)``.

Divergence cannot be proven numerically.  It is declared heuristically,
from how the integral grows rather than how large it gets: the rows that
fail to settle on a segment with an infinite end are scanned together over
dyadic shells around the segment's finite end (0 on the whole line), and
a row whose outermost shells keep adding as much as the shells inside
them is flagged (``_diverging``).  Integrands that oscillate themselves to
a conditionally finite value are outside the scope of the detector.

Iterated integrals are measure integrals: ``measures.integrate`` against a
``Product`` of Lebesgue factors runs one ``integrate_rows`` solve per nest
level.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrandError

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "RowResults",
    "DEFAULT_CONFIG",
    "integrate_rows",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        m = self.max_subdivisions
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise DomainError("max_subdivisions must be an integer >= 1")

    def tighter(self, factor: float = 0.1) -> "QuadratureConfig":
        """Config for a nested (inner) integral; clamped at round-off level."""
        return replace(
            self,
            rel_tol=max(self.rel_tol * factor, 5e-15),
            abs_tol=max(self.abs_tol * factor, 1e-16),
        )


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    converged: bool
    diverged: bool

    def __post_init__(self):
        if self.converged and self.diverged:
            raise DomainError("converged and diverged are mutually exclusive")


@dataclass(frozen=True)
class RowResults:
    """Outcome of ``integrate_rows``: one entry per row in each array."""

    value: np.ndarray
    error_estimate: np.ndarray
    converged: np.ndarray
    diverged: np.ndarray


DEFAULT_CONFIG = QuadratureConfig()


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights, matching the odd-indexed Kronrod nodes.
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
# The Kronrod rule and its difference from the Gauss rule as the columns of
# one matrix, so one product yields the integral and the raw error.
_WKD = np.zeros((_XK.size, 2), dtype=complex)
_WKD[:, 0], _WKD[:, 1] = _WK, _WK
_WKD[1::2, 1] -= _WG

# Rows per batched solve; larger batches are solved in chunks of this size.
_ROW_CHUNK = 1024

# Panels per integrand call; larger batches are evaluated block by block.
# One block is 3,840 nodes, so the node arrays and the integrand's
# temporaries of one call (a kernel keeps several complex arrays of that
# length, 60 KB each) stay inside a 2 MiB per-core L2 cache instead of
# streaming through memory.  With node-major blocks, on a 2-vCPU Xeon with
# 2 MiB L2 per core, blocks of 128 panels took 1.18x the time of 256 on the
# benchmark's convex_atomic ops and 1.06x on its ladder_verify ops, and
# blocks of 512 took 1.21x and 1.03x (in process, medians of 15 interleaved
# passes over 60 ops).  A block holds more nodes than ``_ROW_CHUNK`` rows,
# so the inner solve that one block feeds still runs in chunks of full size.
_PANEL_BLOCK = 256

# Rounds over which a row's error estimate must drop by 2% (noise floor).
_NOISE_ROUNDS = 50


def _panels(g: Callable, a: np.ndarray, b: np.ndarray, rows: np.ndarray):
    """Gauss-Kronrod panels [a[p], b[p]] of rows ``rows[p]``, evaluated in
    calls of ``g`` on blocks of at most ``_PANEL_BLOCK`` panels; returns
    (integrals, error estimates)."""
    if a.size <= _PANEL_BLOCK:
        return _panel_block(g, a, b, rows)
    parts = [_panel_block(g, a[s:s + _PANEL_BLOCK], b[s:s + _PANEL_BLOCK],
                          rows[s:s + _PANEL_BLOCK])
             for s in range(0, a.size, _PANEL_BLOCK)]
    return (np.concatenate([v for v, _ in parts]),
            np.concatenate([e for _, e in parts]))


def _panel_block(g: Callable, a: np.ndarray, b: np.ndarray, rows: np.ndarray):
    """The panels of ``_panels`` in one call of ``g``."""
    d = b - a
    h = 0.5 * d
    x = 0.5 * (a + b) + h * _XK[:, None]
    y = np.asarray(g(x, rows), dtype=complex)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    # The sums below run panel by panel, on a panel-major copy.
    y = np.ascontiguousarray(y.T)
    resabs = h * _node_sums(np.abs(y), _WK)
    if not math.isfinite(np.add.reduce(resabs)):
        raise IntegrandError("integrand not finite")
    kd = _node_sums(y, _WKD)
    ik = h * kd[:, 0]
    diff = np.abs(h * kd[:, 1])
    # QUADPACK-style estimate: scale the raw Gauss/Kronrod difference by the
    # variation of the integrand so that non-smooth panels are not trusted.
    # A panel of zero width (a row with lo == hi) has no mean to subtract.
    mean = np.divide(ik, d, out=np.zeros_like(ik), where=d != 0)
    resasc = h * _node_sums(np.abs(y - mean[:, None]), _WK)
    rough = resasc > 0.0
    ratio = 200.0 * diff / np.where(rough, resasc, 1.0)
    err = np.where(rough, resasc * np.minimum(1.0, ratio ** 1.5), diff)
    return ik, np.maximum(err, 1e-15 * resabs)


def _node_sums(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row p of ``y`` times the weights ``w`` (a vector or a matrix), for
    every panel p.  The rows go to ``matmul`` as a stack of one-row
    matrices, which it multiplies one at a time.  The product of the whole
    matrix would go to BLAS in one call, which blocks rows and rounds the
    last rows of a block differently; this way a panel's sums do not depend
    on the other panels of its block."""
    return np.matmul(y[:, None, :], w)[:, 0]


def _adaptive(g: Callable, nrows: int, lo, hi, cfg: QuadratureConfig):
    """Adaptive bisection of [lo, hi] for ``nrows`` integrals at once; ``lo``
    and ``hi`` are shared scalars or arrays with one entry per row.

    ``g(x, rows)`` evaluates the (15, P) nodes ``x`` of P panels, panel p
    in row ``rows[p]``, as in ``integrate_rows``.  Returns the arrays
    (value, error, converged).

    Panels live in tables with one slot per (insertion step, row): each round
    fills two new slots of every row still running, so slot order is
    insertion order in every row.  ``pk`` holds each panel's error estimate
    as its priority (0 for a panel at floating-point resolution, -inf for a
    free slot); the first maximum of a row is the panel a heap keyed on
    (error, insertion order) would pop.
    """
    p0 = 8  # equal panels per row to start with
    # Equispaced edges of every row, by np.linspace's arithmetic (without
    # its per-call overhead, which one-row solves would pay each time).
    lo, hi = lo + np.zeros(nrows), hi + np.zeros(nrows)
    edges = np.arange(p0 + 1.0)[:, None] * ((hi - lo) / p0) + lo
    edges[-1] = hi
    # A panel after k splits is at least span / p0 / 2**k - ulp wide, where
    # span is the narrowest row's, so none can be at floating-point
    # resolution (midpoint on an endpoint) while that bound exceeds a few
    # ulps of the largest endpoint.
    span, big = float((hi - lo).min()), float(np.abs(edges[[0, -1]]).max())
    resolution = 2.0 ** -50 * big + 1e-300
    ids = np.arange(nrows)
    v, e = _panels(g, edges[:-1].ravel(), edges[1:].ravel(), np.tile(ids, p0))
    pa, pb = np.empty((4 * p0, nrows)), np.empty((4 * p0, nrows))
    pv, pk = np.empty(pa.shape, dtype=complex), np.full(pa.shape, -np.inf)
    pa[:p0], pb[:p0] = edges[:-1], edges[1:]
    pv[:p0], pk[:p0] = v.reshape(p0, nrows), e.reshape(p0, nrows)
    # Running sums add each row's panels in order, whatever the row count
    # (a one-row ``sum`` would add them pairwise).
    total, total_err = np.add.accumulate(pv[:p0])[-1], np.add.accumulate(pk[:p0])[-1]
    pushed = np.zeros(nrows, dtype=int)  # rounds in which the row could not split
    history = np.empty((_NOISE_ROUNDS + 1, nrows))
    value, error = np.empty(nrows, dtype=complex), np.empty(nrows)
    converged = np.zeros(nrows, dtype=bool)
    stale = True
    for rounds in itertools.count():
        conv = total_err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        done = conv | (rounds - pushed >= cfg.max_subdivisions)
        # Noise floor: when fifty further rounds have not reduced the error
        # estimate, the integrand is rough at round-off level (typically an
        # inner quadrature feeding this one) and refinement cannot help.
        history[rounds % (_NOISE_ROUNDS + 1)] = total_err
        if rounds >= _NOISE_ROUNDS:
            done |= total_err > 0.98 * history[(rounds + 1) % (_NOISE_ROUNDS + 1)]
        if np.count_nonzero(done):
            out = ids[done]
            value[out], error[out], converged[out] = total[done], total_err[done], conv[done]
            keep = ~done
            if not np.count_nonzero(keep):
                return value, error, converged
            ids, total, total_err, pushed = ids[keep], total[keep], total_err[keep], pushed[keep]
            # compress returns C-contiguous copies, as the flat views need.
            history, pa, pb, pv, pk = (x.compress(keep, axis=1) for x in (history, pa, pb, pv, pk))
            stale = True
        u = p0 + 2 * rounds
        if u + 2 > pk.shape[0]:
            pa, pb, pv = (np.concatenate((x, np.empty_like(x))) for x in (pa, pb, pv))
            pk = np.concatenate((pk, np.full_like(pk, -np.inf)))
            stale = True
        if stale:
            # Flat views for gathering one panel per row.
            fa, fb, fv, fk = (x.reshape(-1) for x in (pa, pb, pv, pk))
            n, r = ids.size, np.arange(ids.size)
            ids2 = np.concatenate((ids, ids))
            stale = False

        sel = pk.argmax(axis=0) * n + r
        a, b, v_old, e_old = fa[sel], fb[sel], fv[sel], fk[sel]
        fk[sel] = -np.inf
        mid = 0.5 * (a + b)
        left, right = np.concatenate((a, mid)), np.concatenate((mid, b))
        narrow = span / p0 * 0.5 ** rounds <= resolution
        stuck = (mid <= a) | (mid >= b) if narrow else None
        if not (narrow and np.count_nonzero(stuck)):
            v, e = _panels(g, left, right, ids2)
            k = e
        else:
            # A panel at floating-point resolution cannot be split: it moves
            # to the back of its row's queue with priority 0, next to a free
            # slot, and leaves the row's total and error unchanged.
            pushed += stuck
            v = np.concatenate((v_old, np.zeros(n, dtype=complex)))
            e = np.concatenate((e_old, np.zeros(n)))
            s = np.flatnonzero(~stuck)
            if s.size:
                s2 = np.concatenate((s, s + n))
                v[s2], e[s2] = _panels(g, left[s2], right[s2], ids2[s2])
            k = np.where(np.concatenate((stuck, stuck)), np.repeat([0.0, -np.inf], n), e)
            right[:n] = np.where(stuck, b, mid)
        total += v[:n] + v[n:] - v_old
        total_err += e[:n] + e[n:] - e_old
        new = slice(u * n, (u + 2) * n)
        fa[new], fb[new], fv[new], fk[new] = left, right, v, k


# The divergence scan of a row with an infinite end runs around the row's
# anchor c (its finite end, or 0 on the whole line) over shell 0, the core
# |x - c| <= 1, and the shells 2^(j-1) <= |x - c| <= 2^j, j = 1..27, each in
# 8 panels a side and cut to the row's segment.  Row j of ``_SCAN_EDGES``
# holds shell j's edges on the positive side, as offsets from c.
_SHELLS = 27
_SCAN_EDGES = np.vstack((np.linspace(0.0, 1.0, 9),
                         2.0 ** np.arange(_SHELLS)[:, None] * np.linspace(1.0, 2.0, 9)))
_SCAN_LO = np.hstack((_SCAN_EDGES[:, :-1], -_SCAN_EDGES[:, 1:])).ravel()
_SCAN_HI = np.hstack((_SCAN_EDGES[:, 1:], -_SCAN_EDGES[:, :-1])).ravel()
# Outermost shells that must each add at least what the shell inside adds.
# For f ~ C |x|^-p, shell j adds C' 2^(j(1-p)), so the run holds for
# every shell exactly when p <= 1, whatever C; four shells rather than one
# keep an integrand that merely has a bump or a sign change far out (a
# shell that happens to add more than the one inside it) from passing.
_GROWTH_RUN = 4


def _diverging(f: Callable, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               cfg: QuadratureConfig) -> np.ndarray:
    """For each of ``rows`` (with their segments), whether each of the
    outermost ``_GROWTH_RUN`` shells of its scan adds at least what the
    shell inside it adds, and more than ``cfg``'s tolerance on the partial
    integral so far.  All rows' panels go to ``f(x, rows)`` in one
    ``_panels`` call."""
    c = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))[:, None]
    a = np.clip(c + _SCAN_LO, lo[:, None], hi[:, None])
    b = np.clip(c + _SCAN_HI, lo[:, None], hi[:, None])
    keep = a < b  # a shell part off the segment holds no panel
    v, _ = _panels(f, a[keep], b[keep], np.broadcast_to(rows[:, None], a.shape)[keep])
    # 16 panels per shell, so a panel's flat index // 16 is its (row, shell).
    slot, size = np.flatnonzero(keep) // 16, rows.size * (_SHELLS + 1)
    shells = (np.bincount(slot, v.real, size)
              + 1j * np.bincount(slot, v.imag, size)).reshape(rows.size, -1)
    partial = np.abs(np.cumsum(shells, axis=1)[:, -_GROWTH_RUN:])
    added = np.abs(shells[:, -_GROWTH_RUN - 1:])
    # Equal shells (p = 1) may differ by round-off.
    grows = added[:, 1:] >= (1.0 - 1e-9) * added[:, :-1]
    sizeable = added[:, 1:] > np.maximum(cfg.abs_tol, cfg.rel_tol * partial)
    return np.all(grows & sizeable, axis=1)


def _solve(f: Callable, nrows: int, cfg: QuadratureConfig, lo, hi,
           center, halfwidth) -> RowResults:
    """``nrows`` integrals of ``f(x, rows)`` over [lo, hi] under the
    substitution x = center + halfwidth * tan(theta), with per-row or shared
    ``lo``, ``hi``, ``center`` and ``halfwidth``; unconverged rows with an
    infinite end get the divergence scan over their own segment."""
    if not (np.all(np.greater(halfwidth, 0)) and np.all(np.isfinite(center))
            and np.all(np.isfinite(halfwidth))):
        raise DomainError("need a finite center and a positive halfwidth")
    c_rows, w_rows = np.ndim(center) > 0, np.ndim(halfwidth) > 0

    def g(theta, rows):
        # One centre and halfwidth per panel, broadcast over its nodes.
        u = np.tan(theta)
        c = center[rows] if c_rows else center
        w = halfwidth[rows] if w_rows else halfwidth
        return np.asarray(f(c + w * u, rows), dtype=complex) * (w * (1.0 + u * u))

    # theta with x = center + halfwidth * tan(theta); arctan(+-inf) is +-pi/2.
    # A segment more than about 1e16 halfwidths from the centre maps to a
    # theta interval of zero width, where no node can resolve it.
    theta_lo = np.arctan((lo - center) / halfwidth)
    theta_hi = np.arctan((hi - center) / halfwidth)
    if np.any((theta_lo >= theta_hi) & np.less(lo, hi)):
        raise DomainError("segment too far from its center for the substitution; "
                          "center it on the segment")
    value, err, converged = _adaptive(g, nrows, theta_lo, theta_hi, cfg)
    diverged = np.zeros(nrows, dtype=bool)
    if not converged.all():
        # A near-zero non-converged estimate cannot hide a divergence, so
        # only sizeable values of rows with an infinite end are scanned.
        scan = ~converged & (np.abs(value) > 1000.0 * cfg.abs_tol)
        rows = np.flatnonzero(scan & (np.isinf(lo) | np.isinf(hi)))
        if rows.size:
            diverged[rows] = _diverging(f, rows, *(np.broadcast_to(v, nrows)[rows]
                                                   for v in (lo, hi)), cfg)
            err[diverged] = math.inf
    return RowResults(value, err, converged, diverged)


def integrate_rows(f: Callable, nrows: int, cfg: QuadratureConfig = DEFAULT_CONFIG, *,
                   center=0.0, halfwidth=1.0, lo=-math.inf, hi=math.inf) -> RowResults:
    """``nrows`` integrals over the segments [lo, hi] in one batched solve.

    ``f(x, rows)`` receives a block of P panels: the nodes ``x``, a (15, P)
    array whose column p holds panel p's nodes, and ``rows``, a (P,)
    integer array naming the row of each panel.  It returns the integrand at
    every node, as any value that broadcasts to ``x``'s shape: a (15, P)
    array, a (P,) array with one value per panel (``c[rows]``), or a
    scalar.  ``lo``, ``hi``, ``center`` and ``halfwidth`` are scalars or
    arrays with one entry per row; either end of a segment may be infinite
    (the default is the whole line).  ``center`` and ``halfwidth`` shift
    and stretch the substitution x = center + halfwidth * tan(theta): they
    do not change the value, only how well the node layout matches where
    the integrand lives, but a segment more than about 1e16 halfwidths from
    its centre cannot be resolved and raises ``DomainError``.  Every row
    converges at ``cfg``'s tolerances or stops at the subdivision cap or
    the noise floor, whatever the size of its total; the rows left
    unconverged with an infinite end are then scanned together for
    divergence (see the module docstring).
    """
    if not isinstance(cfg, QuadratureConfig):
        raise DomainError("cfg must be one QuadratureConfig")
    if nrows < 1:
        raise DomainError("need at least one row")
    if not np.all(np.less_equal(lo, hi)):
        raise DomainError("segment endpoints must satisfy lo <= hi")
    if nrows <= _ROW_CHUNK:
        return _solve(f, nrows, cfg, lo, hi, center, halfwidth)
    # Rows are independent: solving them in chunks bounds the node arrays
    # (and the integrand's temporaries) that one round allocates.
    parts = []
    for start in range(0, nrows, _ROW_CHUNK):
        part = slice(start, min(start + _ROW_CHUNK, nrows))
        parts.append(_solve(lambda x, rows, s=start: f(x, rows + s), part.stop - start, cfg,
                            *(v[part] if np.ndim(v) else v for v in (lo, hi, center, halfwidth))))
    return RowResults(*(np.concatenate([getattr(p, name) for p in parts])
                        for name in ("value", "error_estimate", "converged", "diverged")))

