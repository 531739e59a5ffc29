"""Random rational functions for the residue-oracle tests."""

from __future__ import annotations

import numpy as np

from nvk.residues import RationalFunction, line_integral


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
