"""Positive Borel measures on R^k with integration of test functions.

Variants
--------
``Atomic``            finitely many weighted points (exact integration).
``LebesgueDensity``   a nonnegative density against Lebesgue measure; the
                      density defaults to 1, which encodes Lebesgue measure
                      itself.
``Product``           a product of one-dimensional measures.
``Pushforward2D``     the planar measure U |-> int (int chi_U(a t1 + b t2,
                      g t1 + d t2) dt2) dmu1(t1): the image of mu1 x Lebesgue
                      under an affine map, inner Lebesgue integral first.
``PushforwardLadder`` the n-dimensional measure U |-> scale * int (int
                      chi_U(t1 - b1 t2, ..., t1 - b_{n-1} tn,
                      t1 + t2 + ... + tn) dtn ... dt2) dmu(t1).
``LebesguePad``       an inner measure placed on a subset of the axes, with
                      Lebesgue factors filling the remaining axes; the
                      Lebesgue axes are integrated first, in descending
                      axis order.

Integration order is part of each variant's definition and is never
reversed.  Test functions receive one argument per axis and must broadcast
when any argument arrives as an array; arrays passed together have one
length.  Every nest level is one row-batched solve (``integrate_rows``): the
inner integrals for all nodes of the level above, and for all atoms of an
atomic base, are the rows of a single adaptive pass, so outer coordinates
reach the test function as arrays as long as the innermost variable's nodes.

Each nest level of a ladder has two centre lines for the variable t_m it
integrates: where the image coordinate u_{m-1} = t1 - b_{m-1} t_m vanishes,
and where the two lines of the level below meet (at the innermost level,
where u_n = t1 + ... + t_n vanishes).  When they lie more than the base
halfwidth from their midpoint, the row is solved as two half-line rows
split at the midpoint, each centred on its own line, and their values and
error estimates are added; otherwise one substitution is centred on the
midpoint (innermost level) or on the first line (levels above it).

A family of test functions shares those solves: ``integrate_many(mu, f, m)``
computes int f(t, k) dmu for the members k = 0, ..., m-1, and ``f`` receives
the integer array of member indices as an extra last argument.  The members
are the outermost rows of every nest level and are carried down like an
outer coordinate.  Each member keeps its own error estimate, ``converged``
and ``diverged``: one whose inner integral diverges reports (nan, inf,
False, True), its rows leave the later solves, and the other members go on.
The work stops early only when every member has diverged.  ``integrate`` is
the one-member case.

Sets are finite unions of closed axis-aligned boxes.  Atoms sitting on a
box boundary count as inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureResult,
    RowResults,
    integrate_rows,
)

__all__ = [
    "Measure",
    "Atomic",
    "LebesgueDensity",
    "Product",
    "Pushforward2D",
    "PushforwardLadder",
    "LebesguePad",
    "Box",
    "lebesgue",
    "zero_measure",
    "indicator",
    "integrate",
    "integrate_many",
    "mass",
    "is_zero_measure",
]


class _Diverged(Exception):
    """Internal: an inner integral of a measure nest diverged."""


@dataclass(frozen=True)
class Measure:
    """Abstract base; use one of the concrete variants."""

    @property
    def dimension(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Atomic(Measure):
    """Finitely many atoms ((location, weight), ...), weights > 0.

    ``dim`` is only needed when the atom list is empty (the zero measure).
    """

    atoms: tuple[tuple[tuple[float, ...], float], ...]
    dim: Optional[int] = None

    def __post_init__(self):
        norm = []
        for loc, w in self.atoms:
            loc = tuple(float(x) for x in (loc if isinstance(loc, (tuple, list, np.ndarray)) else (loc,)))
            if not w > 0:
                raise DomainError("atomic weights must be strictly positive")
            if not (math.isfinite(w) and all(math.isfinite(x) for x in loc)):
                raise DomainError("atom locations and weights must be finite")
            norm.append((loc, float(w)))
        object.__setattr__(self, "atoms", tuple(norm))
        if self.atoms:
            k = len(self.atoms[0][0])
            if any(len(loc) != k for loc, _ in self.atoms):
                raise DimensionMismatchError("atoms must share one dimension")
            if self.dim is not None and self.dim != k:
                raise DimensionMismatchError("dim inconsistent with atom locations")
            object.__setattr__(self, "dim", k)
        elif self.dim is None:
            raise DomainError("empty atomic measure needs an explicit dim")

    @classmethod
    def single(cls, weight: float, *location: float) -> "Atomic":
        return cls(((tuple(location), weight),))

    @property
    def dimension(self) -> int:
        return int(self.dim)  # type: ignore[arg-type]


@dataclass(frozen=True)
class LebesgueDensity(Measure):
    """Density against Lebesgue measure on R^k; ``density=None`` means 1.

    ``decay_degree`` is an optional hint for the divergence detector: the
    density grows at most like |t|^decay_degree.  The default assumes O(1)
    and relies on windowed doubling alone.
    """

    dim: int
    density: Optional[Callable] = None
    decay_degree: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dimension must be >= 1")

    @property
    def dimension(self) -> int:
        return self.dim


def lebesgue(dim: int = 1) -> LebesgueDensity:
    """Lebesgue measure on R^dim."""
    return LebesgueDensity(dim)


def zero_measure(dim: int) -> Atomic:
    """The zero measure on R^dim."""
    return Atomic((), dim=dim)


def is_zero_measure(mu: Measure) -> bool:
    return isinstance(mu, Atomic) and not mu.atoms


@dataclass(frozen=True)
class Product(Measure):
    """Product of one-dimensional measures; the last factor is innermost."""

    factors: tuple[Measure, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise DomainError("product needs at least one factor")
        for f in self.factors:
            if f.dimension != 1:
                raise DimensionMismatchError("product factors must be one-dimensional")

    @property
    def dimension(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class Pushforward2D(Measure):
    """Image of mu1 x Lebesgue under (t1, t2) |-> (a t1 + b t2, g t1 + d t2)."""

    base: Measure
    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        if self.base.dimension != 1:
            raise DimensionMismatchError("base measure must be one-dimensional")

    @property
    def dimension(self) -> int:
        return 2

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)


@dataclass(frozen=True)
class PushforwardLadder(Measure):
    """Image measure supported on the ladder map

        (t1, ..., tn) |-> (t1 - b1 t2, ..., t1 - b_{n-1} tn, t1 + ... + tn),

    scaled by ``scale``.  The scale is stored rather than recomputed so
    unscaled variants can be represented for testing.
    """

    base: Measure
    b: tuple[float, ...]
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if self.base.dimension != 1:
            raise DimensionMismatchError("base measure must be one-dimensional")
        if not self.b:
            raise DomainError("ladder needs at least one coefficient")
        if any(not bj > 0 for bj in self.b):
            raise DomainError("ladder coefficients must be strictly positive")
        if not self.scale > 0:
            raise DomainError("scale must be strictly positive")

    @property
    def dimension(self) -> int:
        return len(self.b) + 1


@dataclass(frozen=True)
class LebesguePad(Measure):
    """Inner measure on the listed axes, Lebesgue factors on the rest.

    Integration runs the Lebesgue (padding) axes first, innermost the one
    with the largest index, then the inner measure over its own axes.
    """

    inner: Measure
    axes: tuple[int, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))
        if list(self.axes) != sorted(set(self.axes)):
            raise DomainError("axes must be strictly ascending")
        if self.axes and (self.axes[0] < 0 or self.axes[-1] >= self.dim):
            raise DomainError("axes out of range")
        if self.inner.dimension != len(self.axes):
            raise DimensionMismatchError("inner measure dimension must match axes")

    @property
    def dimension(self) -> int:
        return self.dim

    @property
    def padded_axes(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.dim) if j not in self.axes)


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box; bounds may be +-inf."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        norm = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", norm)
        for lo, hi in self.bounds:
            if not lo <= hi:
                raise DomainError("box bounds need lo <= hi on every axis")

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def contains(self, point: Sequence[float]) -> bool:
        return all(lo <= x <= hi for (lo, hi), x in zip(self.bounds, point))


Region = Union[Box, Sequence[Box]]


def indicator(region: Region) -> Callable:
    """Elementwise indicator function of a finite union of closed boxes."""
    boxes = [region] if isinstance(region, Box) else list(region)

    def chi(*args):
        inside = None
        for box in boxes:
            this = None
            for (lo, hi), x in zip(box.bounds, args):
                cond = (np.asarray(x) >= lo) & (np.asarray(x) <= hi)
                this = cond if this is None else (this & cond)
            inside = this if inside is None else (inside | this)
        return np.asarray(inside, dtype=float)

    return chi


@dataclass
class _ErrorBudget:
    """Error totals and flags per member of one ``integrate_many`` call."""

    total: np.ndarray
    converged: np.ndarray
    diverged: np.ndarray

    @classmethod
    def for_members(cls, m: int) -> "_ErrorBudget":
        return cls(np.zeros(m), np.ones(m, dtype=bool), np.zeros(m, dtype=bool))

    def absorb(self, r: RowResults, k: np.ndarray):
        """Fold in one solve whose row i belongs to member ``k[i]``."""
        if r.diverged.any():
            self.diverged[k[r.diverged]] = True
            if self.diverged.all():
                raise _Diverged
        self.total += np.bincount(k, weights=r.error_estimate, minlength=self.total.size)
        self.converged[k[~r.converged]] = False


def _line(g: Callable, k: np.ndarray, cfg: QuadratureConfig, budget: _ErrorBudget,
          center=0.0, halfwidth=1.0, lo=-math.inf, hi=math.inf) -> np.ndarray:
    """Integrals of ``g(x, rows)`` over [lo, hi] (the line by default) in one
    batched solve, row i for member ``k[i]``.  Rows of diverged members are
    not solved and read 0, so the levels above them settle at once."""
    if budget.diverged.any() and budget.diverged[k].any():
        live = np.flatnonzero(~budget.diverged[k])
        out = np.zeros(k.size, dtype=complex)
        if live.size:
            out[live] = _line(lambda x, rows: g(x, live[rows]), k[live], cfg, budget,
                              *(v[live] if np.ndim(v) else v
                                for v in (center, halfwidth, lo, hi)))
        return out
    r = integrate_rows(g, k.size, cfg, center=center, halfwidth=halfwidth, lo=lo, hi=hi)
    budget.absorb(r, k)
    if r.diverged.any():
        return np.where(budget.diverged[k], 0.0, r.value)
    return r.value


def _atom_sum(atoms, vals: np.ndarray) -> np.ndarray:
    """Sum over the atoms of weight times ``vals[..., i]``, atom by atom."""
    total = np.zeros(vals.shape[:-1], dtype=complex)
    for i, (_, w) in enumerate(atoms):
        total += w * vals[..., i]
    return total


def integrate_many(mu: Measure, f: Callable, m: int,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> list[QuadratureResult]:
    """The ``m`` integrals of ``f(t, k)`` against ``mu`` for k = 0, ..., m-1.

    ``f`` takes ``mu.dimension`` coordinates followed by an integer array of
    member indices, and must broadcast when any argument arrives as an
    array.  The members are the outermost rows of every batched solve; each
    keeps its own error estimate and flags, and one whose integral diverges
    reports ``(nan, inf, False, True)`` without disturbing the others.
    """
    if m < 0:
        raise DomainError("need a nonnegative member count")
    if m == 0:
        return []
    budget = _ErrorBudget.for_members(m)
    try:
        values = _integrate(mu, f, np.arange(m), cfg, budget)
    except _Diverged:
        values = np.full(m, complex("nan"))
    return [QuadratureResult(complex("nan"), math.inf, False, True) if budget.diverged[j]
            else QuadratureResult(complex(values[j]), float(budget.total[j]),
                                  bool(budget.converged[j]), False)
            for j in range(m)]


def integrate(mu: Measure, f: Callable,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integral of ``f`` against ``mu``: ``integrate_many`` with one member.

    ``f`` takes ``mu.dimension`` positional arguments and must broadcast when
    any of them arrives as an array; arrays passed together have one length.
    Divergence is reported through the result, not raised.
    """
    return integrate_many(mu, lambda *args: f(*args[:-1]), 1, cfg)[0]


def _integrate(mu: Measure, f: Callable, k: np.ndarray, cfg: QuadratureConfig,
               budget: _ErrorBudget) -> np.ndarray:
    """Integrals of ``f(t, k[i])`` against ``mu``, one per entry of ``k``."""
    if isinstance(mu, Atomic):
        total = np.zeros(k.size, dtype=complex)
        for loc, w in mu.atoms:
            total += w * np.asarray(f(*loc, k), dtype=complex)
        return total

    if isinstance(mu, LebesgueDensity):
        return _integrate_lebesgue(mu, f, k, cfg, budget)

    if isinstance(mu, Product):
        return _integrate_product(mu, f, k, cfg, budget)

    if isinstance(mu, Pushforward2D):
        return _integrate_pushforward2d(mu, f, k, cfg, budget)

    if isinstance(mu, PushforwardLadder):
        return _integrate_ladder(mu, f, k, cfg, budget)

    if isinstance(mu, LebesguePad):
        return _integrate_padded(mu, f, k, cfg, budget)

    raise DomainError(f"unknown measure variant {type(mu).__name__}")


def _integrate_lebesgue(mu: LebesgueDensity, f: Callable, k: np.ndarray,
                        cfg: QuadratureConfig, budget: _ErrorBudget) -> np.ndarray:
    dim = mu.dim
    dens = mu.density

    def rec(fixed: tuple, k: np.ndarray) -> np.ndarray:
        # Axis 0 is outermost; the last axis is the innermost integral.
        depth = len(fixed)
        lcfg = cfg.tighter(0.1 ** depth) if depth else cfg

        def g(x, rows):
            args = tuple(t[rows] for t in fixed) + (x,)
            if depth < dim - 1:
                return rec(args, k[rows])
            vals = np.asarray(f(*args, k[rows]), dtype=complex)
            return vals * np.asarray(dens(*args)) if dens is not None else vals

        return _line(g, k, lcfg, budget)

    return rec((), k)


def _against_base(base: Measure, g: Callable, k: np.ndarray, cfg: QuadratureConfig,
                  budget: _ErrorBudget) -> np.ndarray:
    """Integrals of ``g`` against a one-dimensional base, one per entry of
    ``k``; ``g(x, k)`` maps arrays of base points and their members to values
    (all atoms of all members are evaluated at once, members outermost)."""
    if isinstance(base, Atomic):
        if not base.atoms:
            return np.zeros(k.size, dtype=complex)
        xs = np.array([x for (x,), _ in base.atoms])
        vals = np.asarray(g(np.tile(xs, k.size), k.repeat(xs.size)), dtype=complex)
        return _atom_sum(base.atoms, vals.reshape(k.size, xs.size))
    if isinstance(base, LebesgueDensity):
        dens = base.density

        def h(x, rows):
            v = g(x, k[rows])
            return v * np.asarray(dens(x)) if dens is not None else v

        return _line(h, k, cfg, budget)
    raise DomainError("base measure must be atomic or a Lebesgue density")


def _integrate_pushforward2d(mu: Pushforward2D, f: Callable, k: np.ndarray,
                             cfg: QuadratureConfig, budget: _ErrorBudget) -> np.ndarray:
    a, b, g_, d = mu.coefficients

    def inner(t1: np.ndarray, k: np.ndarray) -> np.ndarray:
        at1, gt1 = a * t1, g_ * t1

        def h(t2, rows):
            return f(at1[rows] + b * t2, gt1[rows] + d * t2, k[rows])

        # Recenter the substitution where the image coordinates are small,
        # otherwise the node layout degrades as |t1| grows.
        centers = []
        width = 1.0
        if b != 0:
            centers.append(-a * t1 / b)
            width = max(width, 1.0 / abs(b))
        if d != 0:
            centers.append(-g_ * t1 / d)
            width = max(width, 1.0 / abs(d))
        if len(centers) == 2:
            center = 0.5 * (centers[0] + centers[1])
            width = np.maximum(width, 0.5 * np.abs(centers[0] - centers[1]))
        else:
            center = centers[0] if centers else 0.0
        return _line(h, k, cfg.tighter(), budget, center=center, halfwidth=width)

    return _against_base(mu.base, inner, k, cfg, budget)


def _integrate_ladder(mu: PushforwardLadder, f: Callable, k: np.ndarray,
                      cfg: QuadratureConfig, budget: _ErrorBudget) -> np.ndarray:
    b = mu.b
    n = len(b) + 1

    def coords(t1, rest):
        out = [t1 - b[j] * rest[j] for j in range(n - 1)]
        out.append(t1 + sum(rest))
        return out

    # After t_n, ..., t_{j+3} are integrated out, the integrand of t_{j+2}
    # peaks on two lines: c1 = t1 / b_j, where u_{j+1} = t1 - b_j t_{j+2}
    # vanishes, and c2 = -(F_j t1 + t2 + ... + t_{j+1}) with F_j = 1 +
    # sum_{i>j} 1/b_i, where the two lines of the level below meet.  At the
    # innermost level F = 1 and c2 is where u_n = t1 + ... + t_n vanishes.
    # In units of Im z the c1 peak is 1/b_j wide and the c2 peak F_j wide:
    # integrating out a level convolves its two peaks, and the widths add.
    F = [1.0 + sum(1.0 / x for x in b[j + 1:]) for j in range(n - 1)]

    def rec(t1: np.ndarray, fixed: tuple, k: np.ndarray) -> np.ndarray:
        depth = len(fixed)
        lcfg = cfg.tighter(0.1 ** (depth + 1))
        j = depth  # integrating t_{j+2}, entering u_{j+1} = t1 - b_j t_{j+2}
        c1 = t1 / b[j]
        width = max(1.0, 1.0 / b[j])
        innermost = depth == n - 2

        def g(x, rows):
            rest = tuple(t[rows] for t in fixed) + (x,)
            if innermost:
                return f(*coords(t1[rows], rest), k[rows])
            return rec(t1[rows], rest, k[rows])

        # Rows whose centres lie within the base width of their midpoint get
        # one substitution with the base width, centred on the midpoint at
        # the innermost level and on c1 above it.  A row with centres further
        # apart becomes two half-line rows, split at the midpoint, each
        # centred on its own centre line (with halfwidth max(width, F_j) on
        # c2); their values and error estimates add up to the row's.
        c2 = -(F[j] * t1 + sum(fixed))
        mid = 0.5 * (c1 + c2)
        near = mid if innermost else c1
        far = np.flatnonzero(0.5 * np.abs(c1 - c2) > width)
        if not far.size:
            return _line(g, k, lcfg, budget, center=near, halfwidth=width)
        m = k.size
        src = np.concatenate((np.arange(m), far))
        lo, hi = np.full(src.size, -math.inf), np.full(src.size, math.inf)
        hi[far] = lo[m:] = mid[far]
        c1_low = c1[far] < c2[far]
        center = np.concatenate((near, np.where(c1_low, c2[far], c1[far])))
        center[far] = np.where(c1_low, c1[far], c2[far])
        halfwidth = np.full(src.size, width)
        halfwidth[far] = np.where(c1_low, width, max(width, F[j]))
        halfwidth[m:] = np.where(c1_low, max(width, F[j]), width)
        v = _line(lambda x, rows: g(x, src[rows]), k[src], lcfg, budget,
                  center=center, halfwidth=halfwidth, lo=lo, hi=hi)
        out = v[:m].copy()
        out[far] += v[m:]
        return out

    value = _against_base(mu.base, lambda t1, k: rec(t1, (), k), k, cfg, budget)
    return mu.scale * value


def _integrate_product(mu: Product, f: Callable, k: np.ndarray,
                       cfg: QuadratureConfig, budget: _ErrorBudget) -> np.ndarray:
    dim = len(mu.factors)

    def rec(fixed: tuple, k: np.ndarray) -> np.ndarray:
        axis = len(fixed)
        factor = mu.factors[axis]
        lcfg = cfg.tighter(0.1 ** axis) if axis else cfg

        def g(x, rows):
            args = tuple(t[rows] for t in fixed) + (x,)
            return f(*args, k[rows]) if axis == dim - 1 else rec(args, k[rows])

        if isinstance(factor, Atomic):
            if not factor.atoms:
                return np.zeros(k.size, dtype=complex)
            # One entry per (row, atom) pair, rows outermost.
            xs = np.array([x for (x,), _ in factor.atoms])
            rows = np.repeat(np.arange(k.size), xs.size)
            vals = np.asarray(g(np.tile(xs, k.size), rows), dtype=complex)
            return _atom_sum(factor.atoms, np.broadcast_to(vals, rows.shape).reshape(k.size, -1))

        if isinstance(factor, LebesgueDensity):
            dens = factor.density

            def h(x, rows):
                v = np.asarray(g(x, rows), dtype=complex)
                return v * np.asarray(dens(x)) if dens is not None else v

            return _line(h, k, lcfg, budget)

        raise DomainError("product factors must be atomic or Lebesgue densities")

    return rec((), k)


def _integrate_padded(mu: LebesguePad, f: Callable, k: np.ndarray,
                      cfg: QuadratureConfig, budget: _ErrorBudget) -> np.ndarray:
    pad = mu.padded_axes

    if not pad:
        return _integrate(mu.inner, f, k, cfg, budget)

    # Padding axes run first, innermost the largest index.
    pad_desc = tuple(sorted(pad, reverse=True))

    def rec(fixed: dict, depth: int, k: np.ndarray) -> np.ndarray:
        # ``fixed`` maps each axis already set to its value in every row.
        axis = pad_desc[len(pad) - 1 - depth]  # outermost pad axis first

        def h(x, rows):
            sub = {j: t[rows] for j, t in fixed.items()}
            sub[axis] = x
            if depth == len(pad) - 1:
                return f(*(sub[j] for j in range(mu.dim)), k[rows])
            return rec(sub, depth + 1, k[rows])

        return _line(h, k, cfg.tighter(0.1 ** (depth + 1)), budget)

    def g(*args):
        # The inner measure's coordinates, then its members; one row each.
        shape = np.broadcast(*args).shape
        *s, kk = (np.broadcast_to(v, shape).reshape(-1) for v in args)
        s = [np.real(v).astype(float) for v in s]
        return rec(dict(zip(mu.axes, s)), 0, kk).reshape(shape)

    return _integrate(mu.inner, g, k, cfg, budget)


def mass(mu: Measure, region: Region,
         cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Measure of a finite union of closed boxes.

    Exact for atomic measures; otherwise equals ``integrate(mu, chi_U)``.
    """
    boxes = [region] if isinstance(region, Box) else list(region)
    for box in boxes:
        if box.dimension != mu.dimension:
            raise DimensionMismatchError("box dimension must match the measure")

    if isinstance(mu, Atomic):
        total = sum(w for loc, w in mu.atoms if any(b.contains(loc) for b in boxes))
        return QuadratureResult(complex(total), 0.0, True, False)

    return integrate(mu, indicator(boxes), cfg)
