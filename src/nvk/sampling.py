"""Reproducible random draws shared by the test suites and the CLI."""

from __future__ import annotations

import numpy as np

from .measures import Atomic
from .representation import RepresentationData

__all__ = [
    "DEFAULT_SEED",
    "rng_for",
    "draw_upper_point",
    "draw_ladder_coefficients",
    "draw_convex_coefficients",
    "draw_atomic_data",
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
