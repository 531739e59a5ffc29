"""Span recording around nvk's layer boundaries, installed from outside.

``install(tracer)`` replaces each traced public function of nvk with a
wrapper under every name an nvk module binds it to, so calls between
modules go through the wrapper.  ``uninstall`` puts the originals back.
No file of the package changes; the wrappers only observe arguments and
return the original function's result unchanged.

Spans at the coarse boundaries (cli, descriptors, conditions, ladder,
representation, transform, measures, quadrature solves) are kept in memory
as (name, start, end, parent, op id).  Kernel calls and the integrand calls
a 1-D solve makes (its panels) are too many to keep one by one; they are
aggregated into counters and self time only.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import re
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kernels", "quadrature", "measures", "representation", "transform",
          "conditions", "ladder", "descriptors", "cli")

KERNEL_FUNCTIONS = ("kernel_1d", "kernel_nd_sum", "kernel_nd_rational",
                    "ladder_kernel_full", "ladder_kernel")

# Solves nested deeper than the last level are counted in the last level.
SOLVE_LEVELS = 3

# Beyond this many kept spans, further spans are counted but not kept, so a
# fast future version of the program cannot exhaust memory in a long run.
MAX_KEPT_SPANS = 400_000


def _size(t) -> int:
    if isinstance(t, (tuple, list)):
        return max((int(np.size(x)) for x in t), default=1)
    return int(np.size(t))


class _Frame:
    __slots__ = ("layer", "key", "start", "child", "owner", "sid", "psid")

    def __init__(self, layer, key, start, owner, sid, psid):
        self.layer = layer
        self.key = key
        self.start = start
        self.child = 0.0
        self.owner = owner
        self.sid = sid
        self.psid = psid


class Tracer:
    """Span stack with per-layer self time and per-function counters.

    Self time is a span's duration minus the time its child spans cover.
    Inclusive times (``fn_s``, ``layer_total_s``) count only the outermost
    of nested calls, so recursion is not counted twice.
    """

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list = []
        self.dropped_spans = 0
        self.op_id = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.fn_s: dict[str, float] = defaultdict(float)
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.fn_depth: dict[str, int] = defaultdict(int)
        self.layer_total_s: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.layer_depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.solve_depth = 0
        self.iterated_depth = 0

    # -- frames ------------------------------------------------------------

    def owner(self) -> str:
        return self.stack[-1].owner if self.stack else "op"

    def push(self, layer: str, name: str, owner: str, keep: bool) -> _Frame:
        psid = -1
        if self.stack:
            top = self.stack[-1]
            psid = top.sid if top.sid >= 0 else top.psid
        sid = -1
        if keep:
            if len(self.spans) < MAX_KEPT_SPANS:
                sid = len(self.spans)
                self.spans.append(None)  # filled in by pop
            else:
                self.dropped_spans += 1
        key = f"{layer}.{name}"
        frame = _Frame(layer, key, time.perf_counter(), owner, sid, psid)
        self.stack.append(frame)
        self.fn_calls[key] += 1
        self.fn_depth[key] += 1
        if self.layer_depth[layer] == 0:
            self.layer_calls[layer] += 1
        self.layer_depth[layer] += 1
        return frame

    def pop(self, frame: _Frame):
        end = time.perf_counter()
        if self.stack.pop() is not frame:
            raise RuntimeError("trace stack out of order")
        dur = end - frame.start
        own = dur - frame.child
        layer, key = frame.layer, frame.key
        self.self_s[layer] += own
        if layer == "quadrature" and self.iterated_depth:
            self.counts["quadrature.iterated_self"] += own
        if self.stack:
            self.stack[-1].child += dur
        self.fn_depth[key] -= 1
        if self.fn_depth[key] == 0:
            self.fn_s[key] += dur
        self.layer_depth[layer] -= 1
        if self.layer_depth[layer] == 0:
            self.layer_total_s[layer] += dur
        if frame.sid >= 0:
            self.spans[frame.sid] = (key, frame.start, end, frame.psid, self.op_id)

    # -- ops -----------------------------------------------------------------

    def op(self, op_id: int, call):
        """Run one op as the root span ``op``; its spans carry ``op_id``."""
        self.op_id = op_id
        frame = self.push("op", "op", "op", keep=True)
        try:
            return call()
        finally:
            self.pop(frame)

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "dropped": self.dropped_spans}) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


# -- wrappers ------------------------------------------------------------------

def _generic(tr: Tracer, layer: str, name: str, fn):
    def wrapper(*args, **kwargs):
        frame = tr.push(layer, name, layer, keep=True)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.pop(frame)
    return wrapper


def _kernel(tr: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        if tr.layer_depth["kernels"] == 0:
            tr.counts["kernels.calls"] += 1
            tr.counts["kernels.nodes"] += _size(args[1])
        frame = tr.push("kernels", name, "kernels", keep=False)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.pop(frame)
    return wrapper


def _integrand(tr: Tracer, owner: str, level: int, f):
    """Counts panels (integrand calls) and times the caller's integrand code
    as the layer that owns it."""
    def counted(x):
        tr.counts[f"quadrature.panels.L{level}"] += 1
        tr.counts["quadrature.nodes"] += int(np.size(x))
        frame = tr.push(owner, "integrand", owner, keep=False)
        try:
            return f(x)
        finally:
            tr.pop(frame)
    return counted


def _segment(tr: Tracer, fn):
    def wrapper(f, *args, **kwargs):
        level = min(tr.solve_depth, SOLVE_LEVELS - 1)
        owner = tr.owner()
        tr.counts[f"quadrature.solves.L{level}"] += 1
        frame = tr.push("quadrature", "integrate_segment", owner, keep=True)
        tr.solve_depth += 1
        try:
            r = fn(_integrand(tr, owner, level, f), *args, **kwargs)
        finally:
            tr.solve_depth -= 1
            tr.pop(frame)
        if r.diverged:
            tr.counts["quadrature.diverged"] += 1
        elif not r.converged:
            tr.counts["quadrature.unconverged"] += 1
        return r
    return wrapper


def _line(tr: Tracer, fn):
    def wrapper(*args, **kwargs):
        frame = tr.push("quadrature", "integrate_line", tr.owner(), keep=True)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.pop(frame)
    return wrapper


def _iterated(tr: Tracer, fn):
    """The nest's level closures are quadrature code; the caller's own
    integrand ``f`` is timed as the caller's layer."""
    def wrapper(f, *args, **kwargs):
        caller = tr.owner()

        def user_f(*ts):
            frame = tr.push(caller, "integrand", caller, keep=False)
            try:
                return f(*ts)
            finally:
                tr.pop(frame)

        frame = tr.push("quadrature", "integrate_iterated", "quadrature", keep=True)
        tr.iterated_depth += 1
        try:
            return fn(user_f, *args, **kwargs)
        finally:
            tr.iterated_depth -= 1
            tr.pop(frame)
    return wrapper


def _targets():
    """(layer, function name, original function) for every traced function."""
    kernels = importlib.import_module("nvk.kernels")
    out = [("kernels", n, getattr(kernels, n)) for n in KERNEL_FUNCTIONS]
    for layer in LAYERS[1:]:
        mod = importlib.import_module(f"nvk.{layer}")
        for n in mod.__all__:
            obj = getattr(mod, n)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((layer, n, obj))
    return out


def install(tr: Tracer) -> list[tuple]:
    """Wrap every traced function under each nvk name bound to it; returns
    the (module, attribute, original) list that ``uninstall`` restores."""
    wrappers = {}
    for layer, name, fn in _targets():
        if layer == "kernels":
            w = _kernel(tr, name, fn)
        elif (layer, name) == ("quadrature", "integrate_segment"):
            w = _segment(tr, fn)
        elif (layer, name) == ("quadrature", "integrate_line"):
            w = _line(tr, fn)
        elif (layer, name) == ("quadrature", "integrate_iterated"):
            w = _iterated(tr, fn)
        else:
            w = _generic(tr, layer, name, fn)
        wrappers[id(fn)] = (fn, w)

    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "nvk" or modname.startswith("nvk.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))
    return patched


def uninstall(patched: list[tuple]):
    for mod, attr, obj in patched:
        setattr(mod, attr, obj)


def layer_metrics(tr: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, per op."""
    c, s, f = tr.counts, tr.self_s, tr.fn_s
    per = 1.0 / ops
    panels = sum(c[f"quadrature.panels.L{k}"] for k in range(SOLVE_LEVELS))
    m = {
        "kernels.calls": c["kernels.calls"] * per,
        "kernels.nodes": c["kernels.nodes"] * per,
        "kernels.self_s": s["kernels"] * per,
        "kernels.nodes_per_s": c["kernels.nodes"] / s["kernels"] if s["kernels"] else 0.0,
        "quadrature.solves": sum(c[f"quadrature.solves.L{k}"] for k in range(SOLVE_LEVELS)) * per,
        "quadrature.panels": panels * per,
        "quadrature.panels_per_s": panels / s["quadrature"] if s["quadrature"] else 0.0,
        "quadrature.nodes": c["quadrature.nodes"] * per,
        "quadrature.self_s": s["quadrature"] * per,
        "quadrature.iterated_calls": tr.fn_calls["quadrature.integrate_iterated"] * per,
        "quadrature.iterated_self_s": c["quadrature.iterated_self"] * per,
        "quadrature.unconverged": c["quadrature.unconverged"] * per,
        "quadrature.diverged": c["quadrature.diverged"] * per,
        "measures.integrate_calls": tr.fn_calls["measures.integrate"] * per,
        "measures.self_s": s["measures"] * per,
        "representation.evaluate_calls": tr.fn_calls["representation.evaluate"] * per,
        "representation.self_s": s["representation"] * per,
        "transform.calls": tr.layer_calls["transform"] * per,
        "transform.total_s": tr.layer_total_s["transform"] * per,
        "conditions.self_s": s["conditions"] * per,
        "ladder.self_s": s["ladder"] * per,
        "descriptors.load_s": tr.layer_total_s["descriptors"] * per,
        "cli.self_s": s["cli"] * per,
    }
    for k in range(SOLVE_LEVELS):
        m[f"quadrature.solves.L{k}"] = c[f"quadrature.solves.L{k}"] * per
        m[f"quadrature.panels.L{k}"] = c[f"quadrature.panels.L{k}"] * per
    for name in ("derive_traits", "check_growth", "check_nevanlinna_2var",
                 "nevanlinna_modulus_scale", "default_z_grid"):
        m[f"conditions.{name}_s"] = f[f"conditions.{name}"] * per
    for name in ("verify_step", "verify_final_step", "verify_full_reduction"):
        m[f"ladder.{name}_s"] = f[f"ladder.{name}"] * per
    return m


# -- import breakdown ------------------------------------------------------------

NVK_MODULES = ("nvk", "errors", "kernels", "quadrature", "measures", "representation",
               "transform", "residues", "conditions", "ladder", "sampling",
               "descriptors", "cli")

_IMPORTTIME_RE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """``import.*`` metrics from ``python -X importtime -c 'import nvk.cli'``.

    Lines come in completion order, so a module's parent is the next line
    one level shallower.  ``import.total_ms`` is the cumulative time of the
    top-level nvk imports; ``import.scipy_ms`` the cumulative time of every
    scipy module not imported by another scipy module.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME_RE.match(line)
        if m:
            depth = (len(m.group(3)) - 1) // 2
            rows.append((int(m.group(1)), int(m.group(2)), depth, m.group(4)))

    def parent(i):
        depth = rows[i][2]
        return next((r[3] for r in rows[i + 1:] if r[2] < depth), None)

    total = sum(cum for self_us, cum, depth, name in rows
                if depth == 0 and (name == "nvk" or name.startswith("nvk.")))
    scipy = sum(cum for i, (self_us, cum, depth, name) in enumerate(rows)
                if name.split(".")[0] == "scipy"
                and (parent(i) or "").split(".")[0] != "scipy")
    out = {"import.total_ms": total / 1000.0, "import.scipy_ms": scipy / 1000.0}
    selfs = {name: self_us for self_us, cum, depth, name in rows}
    for mod in NVK_MODULES:
        full = "nvk" if mod == "nvk" else f"nvk.{mod}"
        out[f"import.{mod}_self_ms"] = selfs.get(full, 0) / 1000.0
    return out
