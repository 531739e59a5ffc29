"""Reproducible random draws shared by the test suites and the CLI."""

from __future__ import annotations

import numpy as np

from .measures import Atomic
from .representation import RepresentationData
from .residues import RationalFunction, line_integral

__all__ = [
    "DEFAULT_SEED",
    "rng_for",
    "draw_upper_point",
    "draw_ladder_coefficients",
    "draw_convex_coefficients",
    "draw_atomic_data",
    "draw_admissible_rational",
]

DEFAULT_SEED = 12345


def rng_for(seed: int, index: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, index) so parallel workers stay deterministic."""
    return np.random.default_rng([seed, index])


def draw_upper_point(rng: np.random.Generator, n: int,
                     re_box: tuple[float, float] = (-2.0, 2.0),
                     im_box: tuple[float, float] = (0.3, 2.5)) -> tuple[complex, ...]:
    return tuple(rng.uniform(*re_box) + 1j * rng.uniform(*im_box) for _ in range(n))


def draw_ladder_coefficients(rng: np.random.Generator, n: int,
                             lo: float = 0.3, hi: float = 3.0) -> tuple[float, ...]:
    return tuple(np.exp(rng.uniform(np.log(lo), np.log(hi), n - 1)))


def draw_convex_coefficients(rng: np.random.Generator, n: int,
                             floor: float = 0.05) -> np.ndarray:
    """Strictly positive coefficients summing to one, bounded away from zero."""
    w = rng.uniform(floor, 1.0, n)
    return w / w.sum()


def draw_atomic_data(rng: np.random.Generator, max_atoms: int = 5) -> RepresentationData:
    """One-variable data with a random atomic measure, for exact evaluation."""
    count = int(rng.integers(1, max_atoms + 1))
    atoms = tuple(((float(rng.uniform(-3, 3)),), float(rng.uniform(0.2, 2.0)))
                  for _ in range(count))
    a = float(rng.uniform(-1, 1))
    b = float(rng.uniform(0, 1.5))
    return RepresentationData(a, (b,), Atomic(atoms))


def draw_admissible_rational(rng: np.random.Generator,
                             max_degree: int = 8) -> RationalFunction:
    """Rational function admissible for residue integration and
    well-conditioned: deg(den) >= deg(num) + 2, poles off the real axis and
    well separated, poles in both half-planes, line integral of order one."""
    while True:
        deg_den = int(rng.integers(2, max_degree + 1))
        deg_num = int(rng.integers(0, deg_den - 1))
        roots: list[complex] = []
        while len(roots) < deg_den:
            r = rng.uniform(-3, 3) + 1j * rng.uniform(0.4, 3) * rng.choice([-1.0, 1.0])
            if all(abs(r - s) > 0.5 for s in roots):
                roots.append(r)
        if deg_den > 2 and (all(r.imag > 0 for r in roots) or all(r.imag < 0 for r in roots)):
            continue  # integral would be trivially zero
        num = rng.normal(size=deg_num + 1) + 1j * rng.normal(size=deg_num + 1)
        f = RationalFunction(tuple(num), tuple((-r, 1.0, 1) for r in roots))
        if abs(line_integral(f)) >= 1e-3:
            return f
