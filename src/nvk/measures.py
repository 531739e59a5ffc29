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
                      axis order, at the tolerances of the levels below
                      the inner measure's.

Integration order is part of each variant's definition and is never
reversed.  Test functions and densities receive one argument per axis and
must broadcast when any argument arrives as an array; arguments passed
together broadcast against each other, but need not share one shape.

Every variant but ``Atomic`` (summed exactly) compiles to one plan: its
one-dimensional levels, outermost first, each a set of atoms or a line
with an optional 1-D density; a matrix ``A`` taking the level variables to
the test function's arguments; an optional joint density; and a scale.
One walker runs every plan.  Each line level is one row-batched solve
(``integrate_rows``): the inner integrals for all nodes of the level above,
and for all atoms of an atomic level, are the rows of a single adaptive
pass.  That solve hands each block of panels over node-major: at the
innermost level the test function gets the innermost variable as a (15, P)
array of nodes, and the outer variables, every argument free of the
innermost variable and the member indices once per panel, as (P,) arrays
that broadcast along the node axis.  A level above the innermost flattens
its nodes, panel by panel, into the rows of the next level's solve.  Level
i runs at ``cfg.tighter(0.1**i)``, the outermost at ``cfg``.

A line level's node layout is data: a centre (a linear form in the outer
level variables) with a halfwidth and, for a variable that enters two
arguments, its two centre lines.  A ladder's t_m has the lines where
u_{m-1} = t1 - b_{m-1} t_m vanishes and where the two lines of the level
below meet (at the innermost level, where u_n = t1 + ... + t_n vanishes); a
planar pushforward's t2 has the lines where either image coordinate
vanishes.  When a row's lines lie more than the halfwidth from their
midpoint, the row is solved as two half-line rows split at the midpoint,
each centred on its own line, and their values and error estimates are
added; otherwise the one substitution is centred on the level's centre.

A caller of ``integrate_many`` that knows where its test function peaks
passes ``poles``: for each member, the pole nearest the real line in each
argument.  The two t2 lines of a planar pushforward with beta and delta
nonzero, which sit where an image coordinate vanishes, then sit, row by
row, where that coordinate equals Re p, |Im p| / |coefficient| wide.  Every
other line keeps its layout, and without poles the layout is the one
above.

Error estimates are weighted like the values they belong to: a row's
estimate enters its member's total times the measure's scale and the
weights of the atoms the row sits on.

Every member also carries its modulus, the integral of |f| over the nodes
that its value used (``QuadratureResult.modulus``).  The innermost line
level takes it from the quadrature, which sums |f| over each panel; a line
level above passes its rows' moduli, times |density|, to its own solve as
the companion of their values; an atomic level and the half-line rows of
a far row add moduli as they add values.  The moduli are passengers: no
value, estimate or flag depends on them.  They are as good as the value's
panels resolve |f|: where |f| has a slower tail than f, as on a ladder
whose inner integrals cancel, they can fall short by a few parts in 1e4.

A line level whose variable enters no argument and no density, the
innermost t2 of a planar pushforward with beta = delta = 0, has an
integrand constant along the line.  The plan marks such a line when it is
compiled (no other variant builds one), and its rows are decided from one
node each, without a solve: exactly 0 where the constant is 0, diverged
elsewhere.

A family of test functions shares those solves: ``integrate_many(mu, f, m)``
computes int f(t, k) dmu for the members k = 0, ..., m-1, and ``f`` receives
the integer array of member indices as an extra last argument.  The members
are the outermost rows of every nest level.  Each row carries its own
member and its weight, the factor above: an atomic level repeats a row's
member once per atom and multiplies its weight by the atom weights, and a
line level passes both on to the rows of its nodes.  Each member keeps its
own error estimate, ``converged`` and ``diverged``: one whose inner
integral diverges reports (nan, inf, False, True), its rows leave the later
solves, and the other members go on.  The work stops early only when every
member has diverged.  ``integrate`` is the one-member case.  All members
share one config, so a family that needs two configs takes two calls.  A
row's result does not depend on the other rows of its solve, so every
member equals its own one-member call bit for bit.

Sets are finite unions of closed axis-aligned boxes.  Atoms sitting on a
box boundary count as inside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, DomainError, IntegrandError
from .kernels import _array, ladder_weight, require_ladder_coefficients
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


@dataclass(frozen=True)
class Measure:
    """Abstract base; use one of the concrete variants."""

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    @functools.cached_property
    def _plan(self) -> "_Plan":
        """The measure's integration plan, compiled on first use."""
        return _compile(self)


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
    """Density against Lebesgue measure on R^k; ``density=None`` means 1."""

    dim: int
    density: Optional[Callable] = None

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
        if not all(math.isfinite(c) for c in self.coefficients):
            raise DomainError("pushforward coefficients must be finite")

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
        if self.base.dimension != 1:
            raise DimensionMismatchError("base measure must be one-dimensional")
        object.__setattr__(self, "b", require_ladder_coefficients(self.b))
        if not 0 < self.scale < math.inf:
            raise DomainError("scale must be finite and strictly positive")

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


Region = Union[Box, Sequence[Box]]


def indicator(region: Region) -> Callable:
    """Elementwise indicator function of a finite union of closed boxes."""
    boxes = [region] if isinstance(region, Box) else list(region)

    def chi(*args):
        # The empty union is nowhere, the empty product everywhere.
        inside = False
        for box in boxes:
            this = True
            for (lo, hi), x in zip(box.bounds, args):
                this = this & (np.asarray(x) >= lo) & (np.asarray(x) <= hi)
            inside = inside | this
        return np.asarray(inside, dtype=float)

    return chi


# A linear form in level variables is a tuple of (variable index,
# coefficient) pairs over its nonzero coefficients; variables are numbered
# from the outermost level on.
_Form = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class _Atoms:
    """A plan level of finitely many atoms: row a of ``points`` holds atom
    a's values of the level's variables (one or more)."""

    points: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class _Line:
    """A plan level integrating one variable over the line, against
    ``density`` when given.

    The node layout is data: ``centre`` is a form in the outer level
    variables and ``halfwidth`` its width.  ``split``, when given, holds two
    centre lines as (form, halfwidth) pairs: a row whose lines lie more than
    ``halfwidth`` from their midpoint is solved as two half-line rows split
    there, each centred on its own line; other rows use ``centre``.

    ``anchors``, when given, holds for each split line the test-function
    argument j that vanishes on it and the coefficient q of this level's
    variable in that argument.  Given poles, the line moves to where
    argument j equals Re p_j and is |Im p_j| / |q| wide (``_layout``).

    ``constant`` marks a line whose variable enters no argument and no
    density, so the integrand is constant along it.
    """

    density: Optional[Callable] = None
    centre: _Form = ()
    halfwidth: float = 1.0
    split: Optional[tuple[tuple[_Form, float], tuple[_Form, float]]] = None
    anchors: tuple[tuple[int, float], ...] = ()
    constant: bool = False


@dataclass(frozen=True)
class _Plan:
    """A measure as ordered one-dimensional levels, outermost first.

    The test function's arguments are the forms ``A`` (one per argument, the
    rows of a matrix) in the level variables, the integrand is multiplied by
    ``density`` (a function of the first ``density_dim`` level variables)
    when given, and the integral by ``scale``.
    """

    levels: tuple[Union[_Atoms, _Line], ...]
    A: tuple[_Form, ...]
    density: Optional[Callable] = None
    density_dim: int = 0
    scale: float = 1.0

    def evaluate(self, f: Callable, vals: list, members: np.ndarray) -> np.ndarray:
        """The integrand ``f(*args, members)`` at the level variables ``vals``.

        ``A`` is applied form by form: a matrix product over a stacked copy
        of the variables ran slower here than these few array operations."""
        out = np.asarray(f(*[_form(row, vals) for row in self.A], members), dtype=complex)
        if self.density is not None:
            out = out * np.asarray(self.density(*vals[:self.density_dim]))
        return out


def _eye(n: int) -> tuple[_Form, ...]:
    return tuple(((i, 1.0),) for i in range(n))


def _form(terms: _Form, vals: Sequence) -> Union[float, np.ndarray]:
    """The form's value at the variables ``vals``; 0.0 for the empty form."""
    out = None
    for j, c in terms:
        t = vals[j] if c == 1.0 else c * vals[j]
        out = t if out is None else out + t
    return 0.0 if out is None else out


def _one_dimensional_level(mu: Measure, what: str) -> Union[_Atoms, _Line]:
    """The single level of a one-dimensional atomic or density measure."""
    if not isinstance(mu, (Atomic, LebesgueDensity)):
        raise DomainError(f"{what} must be atomic or Lebesgue densities")
    return _compile(mu).levels[0]


def _compile(mu: Measure) -> _Plan:
    """The plan of a measure.  An atomic measure is compiled as a
    ``LebesguePad``'s inner measure, and as a ``Product`` factor or a
    pushforward base through ``_one_dimensional_level``; ``integrate_many``
    sums a top-level one itself."""
    if isinstance(mu, Atomic):
        points = np.array([loc for loc, _ in mu.atoms]).reshape(len(mu.atoms), mu.dimension)
        return _Plan((_Atoms(points, np.array([w for _, w in mu.atoms])),), _eye(mu.dimension))

    if isinstance(mu, LebesgueDensity):
        if mu.dim == 1:
            return _Plan((_Line(mu.density),), _eye(1))
        return _Plan((_Line(),) * mu.dim, _eye(mu.dim), mu.density, mu.dim)

    if isinstance(mu, Product):
        levels = tuple(_one_dimensional_level(f, "product factors") for f in mu.factors)
        return _Plan(levels, _eye(len(levels)))

    if isinstance(mu, Pushforward2D):
        a, b, g, d = map(float, mu.coefficients)
        # t2 peaks where either image coordinate vanishes: on t2 = -a t1/b
        # and on t2 = -g t1/d, each 1/|coefficient| wide (in units of Im z).
        lines = [(-p / q, 1.0 / abs(q)) for p, q in ((a, b), (g, d)) if q != 0]
        width = max([1.0] + [h for _, h in lines])
        # The two lines are anchored on the image coordinates; a lone line
        # (beta or delta 0) is not yet, for the reason ROADMAP item 1 records.
        if len(lines) == 2:
            (c1, _), (c2, _) = lines
            t2 = _Line(None, ((0, 0.5 * (c1 + c2)),), width,
                       ((((0, c1),), width), (((0, c2),), width)), ((0, b), (1, d)))
        else:
            # Without a line (beta = delta = 0) t2 enters no argument.
            t2 = _Line(None, tuple((0, c) for c, _ in lines if c), width, constant=not lines)
        # An image coordinate that is identically 0 keeps one zero term, so
        # it still reaches the test function as an array.
        A = tuple(tuple((j, c) for j, c in enumerate(row) if c) or ((0, 0.0),)
                  for row in ((a, b), (g, d)))
        return _Plan((_one_dimensional_level(mu.base, "base measures"), t2), A)

    if isinstance(mu, PushforwardLadder):
        bs = mu.b
        n = len(bs) + 1
        # After t_n, ..., t_{j+3} are integrated out, the integrand of t_{j+2}
        # peaks on two lines: t1 / b_j, where u_{j+1} = t1 - b_j t_{j+2}
        # vanishes, and -(F_j t1 + t2 + ... + t_{j+1}) with F_j = 1 +
        # sum_{i>j} 1/b_i, where the two lines of the level below meet.  At
        # the innermost level F = 1 and the second line is where u_n = t1 +
        # ... + t_n vanishes.  In units of Im z the first peak is 1/b_j wide
        # and the second F_j wide: integrating out a level convolves its two
        # peaks, and the widths add.  Near rows are centred on the midpoint
        # at the innermost level and on the first line above it.
        levels = [_one_dimensional_level(mu.base, "base measures")]
        for j in range(n - 1):
            F = ladder_weight(j + 2, n - j - 2, bs)
            width = max(1.0, 1.0 / bs[j])
            c1 = ((0, 1.0 / bs[j]),)
            c2 = ((0, -F),) + tuple((i, -1.0) for i in range(1, j + 1))
            near = c1
            if j == n - 2:
                near = ((0, 0.5 * (1.0 / bs[j] - F)),) + tuple((i, -0.5) for i in range(1, j + 1))
            levels.append(_Line(None, near, width, ((c1, width), (c2, max(width, F)))))
        # The forms t1 - b_j t_{j+2}, then t1 + t2 + ... + tn.
        A = tuple(((0, 1.0), (j + 1, -bs[j])) for j in range(n - 1))
        return _Plan(tuple(levels), A + (tuple((i, 1.0) for i in range(n)),), scale=mu.scale)

    if isinstance(mu, LebesguePad):
        # The inner measure's levels run outermost, then one Lebesgue level
        # per padded axis, the largest index innermost.
        # Anchors name arguments, so the inner measure's move to its axes.
        inner = _compile(mu.inner)
        nv = sum(v.points.shape[1] if isinstance(v, _Atoms) else 1 for v in inner.levels)
        pad = mu.padded_axes
        rows = dict(zip(mu.axes, inner.A))
        rows.update((axis, ((nv + p, 1.0),)) for p, axis in enumerate(pad))
        levels = tuple(replace(v, anchors=tuple((mu.axes[j], q) for j, q in v.anchors))
                       if isinstance(v, _Line) and v.anchors else v for v in inner.levels)
        return _Plan(levels + (_Line(),) * len(pad), tuple(rows[axis] for axis in range(mu.dim)),
                     inner.density, inner.density_dim, inner.scale)

    raise DomainError(f"unknown measure variant {type(mu).__name__}")


@dataclass
class _Run:
    """What the levels of one ``integrate_many`` call share: ``cfgs[i]`` is
    level i's config, ``cfg.tighter(0.1**i)`` (``cfg`` itself at level 0),
    formed once per call; ``poles`` holds one row of test-function poles per
    member; ``total``, ``converged`` and ``diverged`` hold each member's
    error total and flags, which every solve updates in place."""

    plan: _Plan
    f: Callable
    cfgs: tuple[QuadratureConfig, ...]
    poles: Optional[np.ndarray]
    total: np.ndarray
    converged: np.ndarray
    diverged: np.ndarray


def _solve(run: _Run, i: int, g: Callable, member: np.ndarray, weight: np.ndarray, center,
           halfwidth, lo=-math.inf, hi=math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ``g(x, rows)`` over [lo, hi] in one batched solve at the
    tolerances of level i, and their moduli.  Row r belongs to ``member[r]``
    and its error estimate enters that member's total times ``weight[r]``.
    Rows of diverged members read 0, so the levels above them settle at
    once."""
    r = integrate_rows(g, member.size, run.cfgs[i], center=center, halfwidth=halfwidth,
                       lo=lo, hi=hi)
    return _settle(run, member, weight, r)


def _settle(run: _Run, member: np.ndarray, weight: np.ndarray, r: RowResults):
    """Enter the rows' estimates and flags into their members' and return
    the rows' (values, moduli), 0 for the rows of diverged members."""
    if r.diverged.any():
        run.diverged[member[r.diverged]] = True
    run.total += np.bincount(member, weights=r.error_estimate * weight, minlength=run.total.size)
    run.converged[member[~r.converged]] = False
    if run.diverged.any():
        gone = run.diverged[member]
        return np.where(gone, 0.0, r.value), np.where(gone, 0.0, r.modulus)
    return r.value, r.modulus


def _constant_rows(g: Callable, nrows: int) -> RowResults:
    """The integrals over the whole line of an integrand that is constant
    along it, ``g(x, rows)`` at one node per row: exactly 0 and converged
    where the constant is 0, diverged elsewhere."""
    c = np.broadcast_to(np.asarray(g(np.zeros((1, nrows)), np.arange(nrows)), dtype=complex),
                        (1, nrows))[0]
    if not np.isfinite(c).all():
        raise IntegrandError("integrand not finite")
    zero = c == 0
    size = np.where(zero, 0.0, math.inf)
    return RowResults(np.zeros(nrows, dtype=complex), size, zero, ~zero, size)


def _layout(level: _Line, vals: list, poles: Optional[np.ndarray]):
    """The node layout of a line level's rows at the outer variables
    ``vals``: (centre, halfwidth, lines), ``lines`` None or the two centre
    lines as (centre, halfwidth) pairs; each a scalar or one entry per row.

    ``poles``, one row per level row, moves both anchored lines to where
    their arguments equal the real parts of the row's poles, |Im p| / |q|
    wide; they share their midpoint as centre and the larger halfwidth.
    """
    if poles is None or not level.anchors:
        lines = None if level.split is None else tuple((_form(f, vals), w) for f, w in level.split)
        return _form(level.centre, vals), level.halfwidth, lines
    (c1, w1), (c2, w2) = lines = tuple(
        (_form(f, vals) + poles[:, j].real / q, np.abs(poles[:, j].imag / q))
        for (f, _), (j, q) in zip(level.split, level.anchors))
    return 0.5 * (c1 + c2), np.maximum(w1, w2), lines


def _walk(run: _Run, i: int, vals: list, member: np.ndarray,
          weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over the levels i, i+1, ... of ``run.plan``, one per row,
    and their moduli, the integrals of |f| over the same nodes.

    Row r has the outer level variables ``vals[j][r]``, belongs to
    ``member[r]`` and carries ``weight[r]``, the factor its value and its
    error estimates enter the member's integral with (the measure's scale
    times the weights of the atoms it sits on).  Level i runs at
    ``cfg.tighter(0.1**i)``, level 0 at ``cfg``.
    """
    plan = run.plan
    level, last = plan.levels[i], i + 1 == len(plan.levels)
    if isinstance(level, _Atoms):
        # One row per (row, atom) pair, rows outermost.
        na = level.weights.size
        m = member.size
        if not na:
            return np.zeros(m, dtype=complex), np.zeros(m)
        sub = [v.repeat(na) for v in vals] + [np.tile(x, m) for x in level.points.T]
        sub_member = member.repeat(na)
        if last:
            inner = np.broadcast_to(plan.evaluate(run.f, sub, sub_member), (m * na,))
            inner_mod = np.abs(inner)
        else:
            inner, inner_mod = _walk(run, i + 1, sub, sub_member,
                                     (weight[:, None] * level.weights).ravel())
        inner, inner_mod = inner.reshape(m, na), inner_mod.reshape(m, na)
        total, total_mod = np.zeros(m, dtype=complex), np.zeros(m)
        for a, w in enumerate(level.weights):
            total += w * inner[:, a]
            total_mod += w * inner_mod[:, a]
        return total, total_mod

    dens = level.density

    def g(x, rows):
        # x is a (15, P) block of nodes and rows has one row per panel: the
        # outer variables are gathered per panel and broadcast over nodes.
        if last:
            v = plan.evaluate(run.f, [t[rows] for t in vals] + [x], member[rows])
            return v * np.asarray(dens(x)) if dens is not None else v
        # The next level's rows are the nodes, panel by panel; their moduli
        # ride along as the companion of their values.
        nodes = x.shape[0]
        v, mod = _walk(run, i + 1, [t[rows].repeat(nodes) for t in vals] + [x.T.ravel()],
                       member[rows].repeat(nodes), weight[rows].repeat(nodes))
        v, mod = v.reshape(-1, nodes).T, mod.reshape(-1, nodes).T
        if dens is None:
            return v, mod
        d = np.asarray(dens(x))
        return v * d, mod * np.abs(d)

    if last and level.constant:
        return _settle(run, member, weight, _constant_rows(g, member.size))
    near, width, lines = _layout(level, vals, None if run.poles is None else run.poles[member])
    far = () if lines is None else np.flatnonzero(0.5 * np.abs(lines[0][0] - lines[1][0]) > width)
    if not len(far):
        return _solve(run, i, g, member, weight, near, width)
    # A far row becomes two half-line rows split at the midpoint, each
    # centred on its own line: the row keeps its lower half, and its upper
    # half joins the solve as a row of its own.  Their values and error
    # estimates add up to the row's.
    m = member.size
    (c1, w1), (c2, w2) = ((np.broadcast_to(c, (m,))[far], np.broadcast_to(w, (m,))[far])
                          for c, w in lines)
    low = c1 < c2
    src = np.concatenate((np.arange(m), far))
    center = np.concatenate((np.broadcast_to(near, (m,)), np.where(low, c2, c1)))
    halfwidth = np.concatenate((np.broadcast_to(width, (m,)), np.where(low, w2, w1)))
    center[far], halfwidth[far] = np.where(low, c1, c2), np.where(low, w1, w2)
    lo, hi = np.full(src.size, -math.inf), np.full(src.size, math.inf)
    hi[far] = lo[m:] = 0.5 * (c1 + c2)
    v, mod = _solve(run, i, lambda x, rows: g(x, src[rows]), member[src], weight[src], center,
                    halfwidth, lo, hi)
    v[far] += v[m:]
    mod[far] += mod[m:]
    return v[:m], mod[:m]


def integrate_many(mu: Measure, f: Callable, m: int, cfg: QuadratureConfig = DEFAULT_CONFIG, *,
                   poles=None) -> list[QuadratureResult]:
    """The ``m`` integrals of ``f(t, k)`` against ``mu`` for k = 0, ..., m-1.

    ``f`` takes ``mu.dimension`` coordinates followed by an integer array of
    member indices, and must broadcast when any argument arrives as an
    array; the arguments broadcast against each other (the innermost
    variable may arrive as a (15, P) array and the others as (P,) arrays,
    see the module docstring).  The members are the outermost rows of every
    batched solve, all at the one config ``cfg``; every row carries its
    member and weight down the levels.  Each member keeps its own error
    estimate and flags, and one whose integral diverges reports ``(nan,
    inf, False, True)`` without disturbing the others.  Each result's
    ``modulus`` is the integral of |f| over the nodes its value used (see
    the module docstring).

    ``poles``, an (m, dimension) array, names the pole of member k's test
    function nearest the real line in each argument: the two t2 lines of a
    ``Pushforward2D`` with beta and delta nonzero, which sit where an image
    coordinate vanishes, are centred where that coordinate equals Re p
    instead, |Im p| / |coefficient| wide.  Poles shape only the node layout.
    """
    if m < 0:
        raise DomainError("need a nonnegative member count")
    if m == 0:
        return []
    if not isinstance(cfg, QuadratureConfig):
        raise DomainError("cfg must be one QuadratureConfig")
    poles = _member_poles(poles, m, mu.dimension)
    total, converged, diverged = np.zeros(m), np.ones(m, dtype=bool), np.zeros(m, dtype=bool)
    members = np.arange(m)
    if isinstance(mu, Atomic):
        values, moduli = np.zeros(m, dtype=complex), np.zeros(m)
        for loc, w in mu.atoms:
            v = np.asarray(f(*loc, members), dtype=complex)
            values += w * v
            moduli += w * np.abs(v)
    else:
        plan = mu._plan
        cfgs = tuple(cfg.tighter(0.1 ** i) if i else cfg for i in range(len(plan.levels)))
        run = _Run(plan, f, cfgs, poles, total, converged, diverged)
        values, moduli = _walk(run, 0, [], members, plan.scale + np.zeros(m))
        values, moduli = plan.scale * values, plan.scale * moduli
    return [QuadratureResult(complex("nan"), math.inf, False, True, math.inf) if diverged[j]
            else QuadratureResult(complex(values[j]), float(total[j]), bool(converged[j]), False,
                                  float(moduli[j]))
            for j in range(m)]


def integrate(mu: Measure, f: Callable,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integral of ``f`` against ``mu``: ``integrate_many`` with one member.

    ``f`` takes ``mu.dimension`` positional arguments and must broadcast when
    any of them arrives as an array; the arguments broadcast against each
    other, as in ``integrate_many``.
    Divergence is reported through the result, not raised.
    """
    return integrate_many(mu, lambda *args: f(*args[:-1]), 1, cfg)[0]


def _member_poles(poles, m: int, dimension: int) -> Optional[np.ndarray]:
    if poles is None:
        return None
    p = _array(poles, complex)
    if p is None or p.shape != (m, dimension):
        raise DimensionMismatchError("poles need one row per member and one column per argument")
    if not (np.isfinite(p).all() and (p.imag != 0).all()):
        raise DomainError("poles must be finite and off the real line")
    return p


def mass(mu: Measure, region: Region,
         cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Measure of a finite union of closed boxes: ``integrate(mu, chi_U)``.

    On an atomic measure this is the exact sum of the weights of the atoms
    in the union (an atom on a face counts as inside, and an atom in two
    boxes counts once), with a zero error estimate.
    """
    boxes = [region] if isinstance(region, Box) else list(region)
    for box in boxes:
        if box.dimension != mu.dimension:
            raise DimensionMismatchError("box dimension must match the measure")
    return integrate(mu, indicator(boxes), cfg)
