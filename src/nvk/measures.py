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
    total: float = 0.0
    converged: bool = True

    def absorb(self, r: RowResults):
        if r.diverged.any():
            raise _Diverged
        self.total += float(r.error_estimate.sum())
        if not r.converged.all():
            self.converged = False


def _line(g: Callable, nrows: int, cfg: QuadratureConfig, budget: _ErrorBudget,
          center=0.0, halfwidth=1.0) -> np.ndarray:
    """Line integrals of ``g(x, rows)`` for ``nrows`` rows in one batched solve."""
    r = integrate_rows(g, nrows, cfg, center=center, halfwidth=halfwidth)
    budget.absorb(r)
    return r.value


def _atom_sum(atoms, vals: np.ndarray) -> np.ndarray:
    """Sum over the atoms of weight times ``vals[..., i]``, atom by atom."""
    total = np.zeros(vals.shape[:-1], dtype=complex)
    for i, (_, w) in enumerate(atoms):
        total += w * vals[..., i]
    return total


def integrate(mu: Measure, f: Callable,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integral of ``f`` against ``mu``.

    ``f`` takes ``mu.dimension`` positional arguments and must broadcast when
    any of them arrives as an array; arrays passed together have one length.
    Divergence is reported through the result, not raised.
    """
    try:
        budget = _ErrorBudget()
        value = _integrate(mu, f, cfg, budget)
    except _Diverged:
        return QuadratureResult(complex("nan"), math.inf, False, True)
    return QuadratureResult(complex(value), budget.total, budget.converged, False)


def _integrate(mu: Measure, f: Callable, cfg: QuadratureConfig,
               budget: _ErrorBudget) -> complex:
    if isinstance(mu, Atomic):
        total = 0.0 + 0.0j
        for loc, w in mu.atoms:
            total += w * complex(f(*loc))
        return total

    if isinstance(mu, LebesgueDensity):
        return _integrate_lebesgue(mu, f, cfg, budget)

    if isinstance(mu, Product):
        return _integrate_product(mu, f, cfg, budget)

    if isinstance(mu, Pushforward2D):
        return _integrate_pushforward2d(mu, f, cfg, budget)

    if isinstance(mu, PushforwardLadder):
        return _integrate_ladder(mu, f, cfg, budget)

    if isinstance(mu, LebesguePad):
        return _integrate_padded(mu, f, cfg, budget)

    raise DomainError(f"unknown measure variant {type(mu).__name__}")


def _integrate_lebesgue(mu: LebesgueDensity, f: Callable, cfg: QuadratureConfig,
                        budget: _ErrorBudget) -> complex:
    k = mu.dim
    dens = mu.density

    def rec(fixed: tuple, nrows: int) -> np.ndarray:
        # Axis 0 is outermost; the last axis is the innermost integral.
        depth = len(fixed)
        lcfg = cfg.tighter(0.1 ** depth) if depth else cfg

        def g(x, rows):
            args = tuple(t[rows] for t in fixed) + (x,)
            if depth < k - 1:
                return rec(args, x.size)
            vals = np.asarray(f(*args), dtype=complex)
            return vals * np.asarray(dens(*args)) if dens is not None else vals

        return _line(g, nrows, lcfg, budget)

    return rec((), 1)[0]


def _against_base(base: Measure, g: Callable, cfg: QuadratureConfig,
                  budget: _ErrorBudget) -> complex:
    """Integral of ``g`` against a one-dimensional base; ``g`` maps an array
    of base points to an array of values (all atoms are evaluated at once)."""
    if isinstance(base, Atomic):
        if not base.atoms:
            return 0.0 + 0.0j
        return _atom_sum(base.atoms, g(np.array([x for (x,), _ in base.atoms])))[()]
    if isinstance(base, LebesgueDensity):
        dens = base.density

        def h(x, rows):
            v = g(x)
            return v * np.asarray(dens(x)) if dens is not None else v

        return _line(h, 1, cfg, budget)[0]
    raise DomainError("base measure must be atomic or a Lebesgue density")


def _integrate_pushforward2d(mu: Pushforward2D, f: Callable, cfg: QuadratureConfig,
                             budget: _ErrorBudget) -> complex:
    a, b, g_, d = mu.coefficients

    def inner(t1: np.ndarray) -> np.ndarray:
        at1, gt1 = a * t1, g_ * t1

        def h(t2, rows):
            return f(at1[rows] + b * t2, gt1[rows] + d * t2)

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
        return _line(h, t1.size, cfg.tighter(), budget, center=center, halfwidth=width)

    return _against_base(mu.base, inner, cfg, budget)


def _integrate_ladder(mu: PushforwardLadder, f: Callable, cfg: QuadratureConfig,
                      budget: _ErrorBudget) -> complex:
    b = mu.b
    n = len(b) + 1

    def coords(t1, rest):
        out = [t1 - b[j] * rest[j] for j in range(n - 1)]
        out.append(t1 + sum(rest))
        return out

    def rec(t1: np.ndarray, fixed: tuple) -> np.ndarray:
        depth = len(fixed)
        lcfg = cfg.tighter(0.1 ** (depth + 1))
        j = depth  # integrating t_{j+2}, entering u_{j+1} = t1 - b_j t_{j+2}
        c1 = t1 / b[j]
        width = max(1.0, 1.0 / b[j])
        innermost = depth == n - 2
        if innermost:  # integrating t_n
            c2 = -(t1 + sum(fixed))
            center = 0.5 * (c1 + c2)
            width = np.maximum(width, 0.5 * np.abs(c1 - c2))
        else:
            center = c1

        def g(x, rows):
            rest = tuple(t[rows] for t in fixed) + (x,)
            if innermost:
                return f(*coords(t1[rows], rest))
            return rec(t1[rows], rest)

        return _line(g, t1.size, lcfg, budget, center=center, halfwidth=width)

    value = _against_base(mu.base, lambda t1: rec(t1, ()), cfg, budget)
    return mu.scale * value


def _integrate_product(mu: Product, f: Callable, cfg: QuadratureConfig,
                       budget: _ErrorBudget) -> complex:
    k = len(mu.factors)

    def rec(fixed: tuple, nrows: int) -> np.ndarray:
        axis = len(fixed)
        factor = mu.factors[axis]
        lcfg = cfg.tighter(0.1 ** axis) if axis else cfg

        def g(x, rows):
            args = tuple(t[rows] for t in fixed) + (x,)
            return f(*args) if axis == k - 1 else rec(args, x.size)

        if isinstance(factor, Atomic):
            if not factor.atoms:
                return np.zeros(nrows, dtype=complex)
            # One entry per (row, atom) pair, rows outermost.
            xs = np.array([x for (x,), _ in factor.atoms])
            rows = np.repeat(np.arange(nrows), xs.size)
            vals = np.asarray(g(np.tile(xs, nrows), rows), dtype=complex)
            return _atom_sum(factor.atoms, np.broadcast_to(vals, rows.shape).reshape(nrows, -1))

        if isinstance(factor, LebesgueDensity):
            dens = factor.density

            def h(x, rows):
                v = np.asarray(g(x, rows), dtype=complex)
                return v * np.asarray(dens(x)) if dens is not None else v

            return _line(h, nrows, lcfg, budget)

        raise DomainError("product factors must be atomic or Lebesgue densities")

    return rec((), 1)[0]


def _integrate_padded(mu: LebesguePad, f: Callable, cfg: QuadratureConfig,
                      budget: _ErrorBudget) -> complex:
    pad = mu.padded_axes

    if not pad:
        return _integrate(mu.inner, f, cfg, budget)

    # Padding axes run first, innermost the largest index.
    pad_desc = tuple(sorted(pad, reverse=True))

    def rec(fixed: dict, depth: int, nrows: int) -> np.ndarray:
        # ``fixed`` maps each axis already set to its value in every row.
        axis = pad_desc[len(pad) - 1 - depth]  # outermost pad axis first

        def h(x, rows):
            sub = {j: t[rows] for j, t in fixed.items()}
            sub[axis] = x
            if depth == len(pad) - 1:
                return f(*(sub[j] for j in range(mu.dim)))
            return rec(sub, depth + 1, x.size)

        return _line(h, nrows, cfg.tighter(0.1 ** (depth + 1)), budget)

    def g(*s_vals):
        s = np.broadcast_arrays(*(np.atleast_1d(np.real(v)).astype(float) for v in s_vals))
        return rec(dict(zip(mu.axes, s)), 0, s[0].size).reshape(np.shape(s_vals[0]))

    return _integrate(mu.inner, g, cfg, budget)


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
