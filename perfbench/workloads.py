"""The benchmark's three workloads: seeded inputs, the timed call, and a
reference that the benchmark computes itself.

Inputs come from the benchmark's own ``numpy.random.Generator``, never from
``nvk.sampling``, so a change to the program cannot change the workload.
The n-th op of a run is built from the seed and n alone.

Every reference below is a closed form evaluated here, independent of the
package's own closed forms, so a regression in ``evaluate``, the ladder
code or the classifier cannot also move the value it is checked against.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from nvk.measures import Atomic
from nvk.quadrature import QuadratureConfig
from nvk.representation import RepresentationData

# Modules, not functions: ops look their entry points up at call time, so
# the traced run's wrappers apply.  (``nvk.transform`` as an attribute of
# the package is the function, hence import_module.)
_cli = importlib.import_module("nvk.cli")
_ladder = importlib.import_module("nvk.ladder")
_rep = importlib.import_module("nvk.representation")
_tf = importlib.import_module("nvk.transform")


@dataclass
class Op:
    """One public-API call: ``call()`` is timed, ``check(value)`` returns
    (passed, relative error or None)."""

    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, Optional[float]]]
    label: str


def _rel_check(ref: complex, scale: float, tol: float):
    def check(value) -> tuple[bool, Optional[float]]:
        value = complex(value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return False, None
        err = abs(value - ref) / scale
        return err <= tol, err
    return check


def _k1(w: complex, t: float) -> complex:
    """One-variable kernel 1/(t - w) - t/(1 + t^2)."""
    return 1.0 / (t - w) - t / (1.0 + t * t)


def _kn(z, u) -> complex:
    """n-variable kernel in product form,
    i (2/(2i)^n prod(1/(u_j - z_j) - 1/(u_j + i)) - 1/(2i)^n prod(1/(u_j - i) - 1/(u_j + i)))."""
    n = len(z)
    p1 = p2 = 1.0 + 0.0j
    for zj, uj in zip(z, u):
        p1 *= 1.0 / (uj - zj) - 1.0 / (uj + 1j)
        p2 *= 1.0 / (uj - 1j) - 1.0 / (uj + 1j)
    c = (2j) ** n
    return 1j * (2.0 / c * p1 - 1.0 / c * p2)


def _reduced_kernel(z, t, b, m: int, d: int) -> complex:
    """The composed kernel after d of the n = m + d ladder integrations, as
    K_m at the reduced point divided by F:

        u = (t1 - b_1 t2, ..., t1 - b_{m-1} tm, T / F)
        z' = (z_1, ..., z_{m-1}, Z / F)
        F = 1 + sum_{j=m}^{m+d-1} 1/b_j,  T = F t1 + t2 + ... + tm,
        Z = sum_{j=m}^{m+d-1} z_j / b_j + z_{m+d}.
    """
    f = 1.0 + sum(1.0 / b[j - 1] for j in range(m, m + d))
    big_t = f * t[0] + sum(t[1:m])
    big_z = sum(z[j - 1] / b[j - 1] for j in range(m, m + d)) + z[m + d - 1]
    u = [t[0] - b[j - 2] * t[j - 1] for j in range(2, m + 1)] + [big_t / f]
    zp = list(z[:m - 1]) + [big_z / f]
    return _kn(zp, u) / f


def _ladder_beta(b) -> float:
    """det of the ladder matrix with rows e1 - b_j e_{j+1} and a row of ones."""
    n = len(b) + 1
    m = np.zeros((n, n))
    m[:, 0] = 1.0
    for j, bj in enumerate(b):
        m[j, j + 1] = -bj
    m[n - 1, :] = 1.0
    return float(np.linalg.det(m))


def _combined_point(b, z) -> complex:
    """sum_l k_l z_l for the convex coefficients k_l proportional to 1/b_l
    (l < n) and k_n proportional to 1."""
    weights = [1.0 / bj for bj in b] + [1.0]
    return sum(w * zj for w, zj in zip(weights, z)) / sum(weights)


def _convex_coefficients(rng, n: int, lo: float) -> np.ndarray:
    """Strictly positive coefficients summing to 1, each at least lo / n."""
    w = rng.uniform(lo, 1.0, n)
    return w / w.sum()


def _upper_points(rng, n: int, re_max: float, im_lo: float, im_hi: float) -> tuple[complex, ...]:
    re = rng.uniform(-re_max, re_max, n)
    im = rng.uniform(im_lo, im_hi, n)
    return tuple(complex(r, i) for r, i in zip(re, im))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, _WORKLOAD_IDS[self.name]])
        self.pending: list[Op] = []

    def next_op(self) -> Op:
        while not self.pending:
            self.pending.extend(self.batch())
        return self.pending.pop(0)

    def batch(self) -> list[Op]:
        raise NotImplementedError


class ConvexAtomic(Workload):
    """evaluate(transform(data, k), z) at n = 3 on 1-3 atoms.

    The cost of an op is about proportional to its atom count, so the count
    cycles 1, 2, 3 over data sets: every run holds the same mix, with the
    median op in the middle of the 2-atom ones and the tail among the
    3-atom ones.  Atoms and real parts sit near 0, where the cost per atom
    varies least between draws.  Each data set is evaluated at
    ``Z_PER_DATA`` points.
    """

    name = "convex_atomic"
    N = 3
    Z_PER_DATA = 2
    TOL = 1e-7

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.datasets = 0

    def batch(self):
        rng = self.rng
        count = 1 + self.datasets % 3
        self.datasets += 1
        xs = rng.uniform(-0.2, 0.2, count)
        ws = rng.uniform(0.5, 2.0, count)
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(0.0, 1.0))
        k = _convex_coefficients(rng, self.N, 0.5)
        data = RepresentationData(a, (b,), Atomic(tuple(((float(x),), float(w)) for x, w in zip(xs, ws))))
        ops = []
        for _ in range(self.Z_PER_DATA):
            z = _upper_points(rng, self.N, 0.2, 0.75, 1.25)
            w = complex(sum(kl * zl for kl, zl in zip(k, z)))
            ref = a + b * w + sum(wt * _k1(w, x) for x, wt in zip(xs, ws)) / math.pi
            ops.append(Op(
                lambda data=data, k=k, z=z: _rep.evaluate(_tf.transform(data, k), z),
                _rel_check(ref, max(1.0, abs(ref)), self.TOL),
                f"atoms={count}"))
        return ops


# The coefficient sets of the package's classification fixtures with the
# expected case pinned here.  "atom" is a seeded single atom w * delta_x in
# place of pi * delta_0 (same traits, same case); "zero" is the zero measure.
CLASSIFY_CASES = (
    ("i1", (0.0, 0.0, 1.0, 1.0), "atom", "i1"),
    ("i2", (1.0, 0.0, 1.0, 1.0), "atom", "i2"),
    ("ii1", (0.0, 1.0, 0.0, 0.0), "atom", "ii1"),
    ("ii2", (0.0, 1.0, 1.0, 0.0), "atom", "ii2"),
    ("iii1a", (1.0, 1.0, -1.0, -1.0), "atom", "iii1a"),
    ("iii1b", (1.0, 1.0, 1.0, -1.0), "atom", "iii1b"),
    ("iii2a", (1.0, 1.0, 1.0, 1.0), "zero", "iii2a"),
    ("iii2b", (1.0, 1.0, 1.0, 2.0), "zero", "iii2b"),
    ("neg_degenerate", (1.0, 0.0, 1.0, 0.0), "atom", "not_representing"),
    ("neg_iii2a_nonzero", (1.0, 1.0, 1.0, 1.0), "atom", "not_representing"),
    ("neg_iii2b_atom", (1.0, 1.0, 1.0, 2.0), "atom", "not_representing"),
)


class Classify(Workload):
    """In-process ``nvk classify`` over the pinned cases, default z-grid.

    ``REPLICAS`` seeded descriptors per case are written once at set-up and
    cycled, case by case, for the whole run.
    """

    name = "classify"
    REPLICAS = 40

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.argvs = []
        for rep in range(self.REPLICAS):
            for name, coeffs, kind, expected in CLASSIFY_CASES:
                if kind == "atom":
                    atoms = [[float(self.rng.uniform(-1.0, 1.0)), float(self.rng.uniform(1.0, 4.0))]]
                else:
                    atoms = []
                path = os.path.join(workdir, f"{name}-{rep}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"schema": "nvk-1", "a": 0.0, "b": [0.0],
                               "measure": {"type": "atomic", "dimension": 1, "atoms": atoms}}, fh)
                argv = ["classify", "--mu", path]
                for flag, v in zip(("--alpha", "--beta", "--gamma", "--delta"), coeffs):
                    argv += [flag, repr(v)]
                self.argvs.append((argv, expected, name))
        self.next = 0

    def batch(self):
        argv, expected, name = self.argvs[self.next % len(self.argvs)]
        self.next += 1

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = _cli.main(argv)
            return code, out.getvalue()

        def check(value):
            code, text = value
            if code != 0:
                return False, None
            doc = json.loads(text)
            return doc["case"] == expected and doc["evidence"]["trait_conflict"] is None, None

        return [Op(call, check, name)]


class LadderVerify(Workload):
    """The public ladder checks: every middle rung and the final rung for
    n = 3, 4, 5, and full reductions at n = 3.

    Each group of rungs for one n is followed by ``FULLS_PER_GROUP`` full
    reductions, so full reductions are most of the ops and both the median
    and the tail fall among them: the latency of a millisecond rung moves
    with the state of the host more than with the code.  Each full
    reduction draws its own b, z and t1.  The cost of a full reduction
    varies least between draws with the peaks of the kernel near the
    origin, hence the narrow ranges of b, z and t.
    """

    name = "ladder_verify"
    CFG = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-11)
    RUNG_TOL = 1e-7
    FULL_TOL = 1e-6
    FULLS_PER_GROUP = 10

    def _draw(self, n: int):
        b = tuple(float(x) for x in np.exp(self.rng.uniform(math.log(0.7), math.log(1.4), n - 1)))
        return b, _upper_points(self.rng, n, 0.2, 0.75, 1.25)

    def batch(self):
        rng, cfg = self.rng, self.CFG
        ops = []
        for n in (3, 4, 5):
            b, z = self._draw(n)
            for m in range(n, 2, -1):
                t = tuple(float(x) for x in rng.uniform(-0.2, 0.2, m - 1))
                ref = math.pi / b[m - 2] * _reduced_kernel(z, t, b, m - 1, n - m + 1)
                ops.append(Op(lambda m=m, n=n, b=b, z=z, t=t: _ladder.verify_step(m, n - m, b, z, t, cfg),
                              _lhs_check(ref, self.RUNG_TOL), f"step n={n} m={m}"))
            t1 = float(rng.uniform(-0.2, 0.2))
            k1 = _k1(_combined_point(b, z), t1)
            ref = math.pi * float(np.prod(b[1:])) / _ladder_beta(b) * k1
            ops.append(Op(lambda n=n, b=b, z=z, t1=t1: _ladder.verify_final_step(n, b, z, t1, cfg),
                          _lhs_check(ref, self.RUNG_TOL), f"final n={n}"))
            for _ in range(self.FULLS_PER_GROUP):
                b, z = self._draw(3)
                t1 = float(rng.uniform(-0.2, 0.2))
                ref = math.pi ** 2 / _ladder_beta(b) * _k1(_combined_point(b, z), t1)
                ops.append(Op(lambda b=b, z=z, t1=t1: _ladder.verify_full_reduction(3, b, z, t1, cfg),
                              _lhs_check(ref, self.FULL_TOL), "full n=3"))
        return ops


def _lhs_check(ref: complex, tol: float):
    """The quadrature side of a ladder check against the benchmark's reference."""
    rel = _rel_check(ref, abs(ref), tol)
    return lambda value: rel(value[0])


WORKLOADS = {w.name: w for w in (ConvexAtomic, Classify, LadderVerify)}
_WORKLOAD_IDS = {name: i for i, name in enumerate(sorted(WORKLOADS))}
