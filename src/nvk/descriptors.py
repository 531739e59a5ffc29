"""JSON descriptors for representation data and measures.

A data descriptor is a JSON document

    {"schema": "nvk-1", "a": 0.0, "b": [0.0], "measure": {...}}

where the measure object is one of

    {"type": "atomic", "dimension": k, "atoms": [[x1, ..., xk, weight], ...]}
    {"type": "lebesgue", "dimension": k, "density": "expr or null"}
    {"type": "product", "factors": [measure, ...]}
    {"type": "pushforward2d", "base": measure,
     "coefficients": [alpha, beta, gamma, delta]}
    {"type": "pushforward_ladder", "base": measure, "b": [...], "scale": s}
    {"type": "lebesgue_pad", "inner": measure, "axes": [...], "dimension": n}

Density expressions use a deliberately tiny grammar over t1..tn: numbers,
+ - * / ^, unary minus, parentheses and exp(...).  Python's ``ast`` parses
the text with ^ spelled **, and only these nodes compile; anything richer
belongs in library embedding, not in descriptor files.

Complex literals in flags and reports use the form "a+bi" with a mandatory
sign between the parts, e.g. "0+1i" or "-1.5-2e-3i".
"""

from __future__ import annotations

import ast
import json
import operator
import re
import sys
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .measures import (
    Atomic,
    LebesgueDensity,
    LebesguePad,
    Measure,
    Product,
    Pushforward2D,
    PushforwardLadder,
)
from .representation import RepresentationData

__all__ = [
    "SCHEMA_VERSION",
    "parse_complex",
    "format_complex",
    "parse_density",
    "measure_to_json",
    "measure_from_json",
    "data_to_json",
    "data_from_json",
    "validate_descriptor",
    "load_descriptor",
    "dump_descriptor",
]

SCHEMA_VERSION = "nvk-1"

_COMPLEX_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"\s*([+-])\s*"
    r"((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' with a mandatory sign between the parts."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise DomainError(f"malformed complex literal {text!r}; expected 'a+bi'")
    re_part = float(m.group(1))
    im_part = float(m.group(3))
    if m.group(2) == "-":
        im_part = -im_part
    return complex(re_part, im_part)


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_complex(z: complex) -> str:
    im = z.imag
    sign = "-" if im < 0 else "+"
    return f"{_format_real(z.real)}{sign}{_format_real(abs(im))}i"


# --- density expression grammar -------------------------------------------
#
# A density is an arithmetic expression over t1..tn: numbers, variables,
# + - * /, ^ for the power, unary minus, parentheses and exp(...).  With ^
# spelled ** this is a subset of Python's expressions with Python's
# precedence (^ binds tighter than unary minus and associates to the right),
# so ``ast`` parses the text and a whitelist of nodes compiles the tree.

# The first character outside the grammar's alphabet; ** is not in the
# grammar either (and Python's tokenizer would drop a # comment unseen).
_BAD_CHAR_RE = re.compile(r"[^\w\s.+\-*/^()]|\*\*")
_NUMBER_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+")
_VARIABLE_RE = re.compile(r"t\d+")
_EXP_CALL_RE = re.compile(r"exp *\(")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def parse_density(text: str, dimension: int) -> Callable:
    """Compile a density expression over t1..t<dimension> to a callable."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise DomainError(f"density expression: bad token at column {bad.start() + 1}")
    # One space per whitespace character and no indent, so that a column of
    # ``src`` maps back to ``text``: shift by the indent, less one per ^.
    body = re.sub(r"\s", " ", text).lstrip()
    lead, src = len(text) - len(body), body.replace("^", "**")

    def error(what: str, offset: int) -> DomainError:
        column = lead + offset - src[:offset].count("**") + 1
        return DomainError(f"density expression: {what} at column {column}")

    def reject(node, what: str = "unexpected token"):
        # col_offset counts UTF-8 bytes.
        raise error(what, len(src.encode()[:node.col_offset].decode()))

    def compile_node(node) -> Callable:
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            a, b, f = compile_node(node.left), compile_node(node.right), _BINARY[type(node.op)]
            return lambda *t: f(a(*t), b(*t))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = compile_node(node.operand)
            return lambda *t: -inner(*t)
        # The node's own text: Python folds fullwidth letters into ASCII
        # names, reads 1_0 or 0x10 as numbers and calls (exp)(t1); the
        # grammar does none of these.
        seg = ast.get_source_segment(src, node)
        if isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(seg):
            const = float(seg)
            return lambda *t: const
        if isinstance(node, ast.Name) and _VARIABLE_RE.fullmatch(seg):
            axis = int(seg[1:]) - 1
            if not 0 <= axis < dimension:
                reject(node, f"variable {seg} out of range")
            return lambda *t: t[axis]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and _EXP_CALL_RE.match(seg) and len(node.args) == 1):
            inner = compile_node(node.args[0])
            return lambda *t: np.exp(inner(*t))
        reject(node)

    too_deep = "density expression: too long or too deeply nested"
    try:
        fn = compile_node(ast.parse(src, mode="eval").body)
    except SyntaxError as e:
        # Python gives no position for some errors at the end (``1 +``).
        raise error(e.msg, min(e.offset - 1, len(src)) if e.offset else len(src)) from None
    except (RecursionError, MemoryError):
        # Python's parser signals a nesting past its own stack as MemoryError.
        raise DomainError(too_deep) from None

    def density(*t):
        # The compiled closures recurse once per node, so a caller deep in
        # the stack can run out of it where the parse did not.
        try:
            return fn(*t)
        except RecursionError:
            raise DomainError(too_deep) from None

    return density


def measure_to_json(mu: Measure) -> dict:
    if isinstance(mu, Atomic):
        return {
            "type": "atomic",
            "dimension": mu.dimension,
            "atoms": [[*loc, w] for loc, w in mu.atoms],
        }
    if isinstance(mu, LebesgueDensity):
        if mu.density is not None and not hasattr(mu.density, "_nvk_source"):
            raise DomainError("only densities parsed from expressions can be serialized")
        src = getattr(mu.density, "_nvk_source", None)
        return {"type": "lebesgue", "dimension": mu.dim, "density": src}
    if isinstance(mu, Product):
        return {"type": "product", "factors": [measure_to_json(f) for f in mu.factors]}
    if isinstance(mu, Pushforward2D):
        return {
            "type": "pushforward2d",
            "base": measure_to_json(mu.base),
            "coefficients": [mu.alpha, mu.beta, mu.gamma, mu.delta],
        }
    if isinstance(mu, PushforwardLadder):
        return {
            "type": "pushforward_ladder",
            "base": measure_to_json(mu.base),
            "b": list(mu.b),
            "scale": mu.scale,
        }
    if isinstance(mu, LebesguePad):
        return {
            "type": "lebesgue_pad",
            "inner": measure_to_json(mu.inner),
            "axes": list(mu.axes),
            "dimension": mu.dim,
        }
    raise DomainError(f"cannot serialize measure {type(mu).__name__}")


def data_to_json(data: RepresentationData) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "a": data.a,
        "b": list(data.b),
        "measure": measure_to_json(data.mu),
    }


# --- reading: each field is checked as it is read --------------------------

# Per measure type: its required fields, then its optional ones.
_MEASURE_FIELDS = {
    "atomic": (("type", "atoms"), ("dimension",)),
    "lebesgue": (("type", "dimension"), ("density",)),
    "product": (("type", "factors"), ()),
    "pushforward2d": (("type", "base", "coefficients"), ()),
    "pushforward_ladder": (("type", "base", "b", "scale"), ()),
    "lebesgue_pad": (("type", "inner", "axes", "dimension"), ()),
}


def _invalid(path: str, message: str) -> DomainError:
    return DomainError(f"descriptor invalid at {path}: {message}")


def _fields(obj, path: str, required: tuple, optional: tuple) -> None:
    if not isinstance(obj, dict):
        raise _invalid(path, f"expected an object, got {obj!r:.40}")
    for key in required:
        if key not in obj:
            raise _invalid(path, f"missing field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise _invalid(f"{path}.{key}", "unknown field")


def _number(x, path: str):
    # abs(x) <= max rejects NaN, +-inf and integers too large for a float.
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise _invalid(path, f"expected a finite number, got {x!r:.40}")
    return x


def _integer(x, path: str, minimum: int = 0) -> int:
    """An integer >= minimum; an integral float such as 2.0 reads as 2."""
    if _number(x, path) != int(x) or x < minimum:
        raise _invalid(path, f"expected an integer >= {minimum}, got {x!r}")
    return int(x)


def _array(x, path: str, min_items: int = 0) -> list:
    if not isinstance(x, list) or len(x) < min_items:
        raise _invalid(path, f"expected an array of at least {min_items} entries, got {x!r:.40}")
    return x


def _numbers(x, path: str, min_items: int = 0) -> tuple:
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(_array(x, path, min_items)))


def _build(path: str, make: Callable, *args):
    """``make(*args)``; a DomainError it raises is re-raised at ``path``."""
    try:
        return make(*args)
    except DomainError as e:
        raise type(e)(f"descriptor invalid at {path}: {e}") from None


def measure_from_json(obj, path: str = "$.measure") -> Measure:
    """Read a measure object; a bad field raises ``DomainError`` naming its
    JSON path, e.g. ``descriptor invalid at $.measure.b[1]: ...``."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise _invalid(path, f"expected a measure object with a 'type' field, got {obj!r:.40}")
    kind = obj["type"]
    if not (isinstance(kind, str) and kind in _MEASURE_FIELDS):
        raise _invalid(f"{path}.type", f"unknown measure type {kind!r:.40}")
    _fields(obj, path, *_MEASURE_FIELDS[kind])

    if kind == "atomic":
        rows = [_numbers(row, f"{path}.atoms[{i}]", 2)
                for i, row in enumerate(_array(obj["atoms"], f"{path}.atoms"))]
        dim = _integer(obj["dimension"], f"{path}.dimension", 1) if "dimension" in obj else None
        return _build(path, Atomic, tuple((row[:-1], row[-1]) for row in rows), dim)
    if kind == "lebesgue":
        dim, src = _integer(obj["dimension"], f"{path}.dimension", 1), obj.get("density")
        if src is None:
            return LebesgueDensity(dim)
        if not isinstance(src, str):
            raise _invalid(f"{path}.density", f"expected a string or null, got {src!r:.40}")
        fn = _build(f"{path}.density", parse_density, src, dim)
        fn._nvk_source = src  # type: ignore[attr-defined]
        return LebesgueDensity(dim, density=fn)
    if kind == "product":
        factors = _array(obj["factors"], f"{path}.factors", 1)
        return _build(path, Product, tuple(measure_from_json(f, f"{path}.factors[{i}]")
                                           for i, f in enumerate(factors)))
    if kind == "pushforward2d":
        base = measure_from_json(obj["base"], f"{path}.base")
        coefficients = _numbers(obj["coefficients"], f"{path}.coefficients")
        if len(coefficients) != 4:
            raise _invalid(f"{path}.coefficients", f"expected 4 entries, got {len(coefficients)}")
        return _build(path, Pushforward2D, base, *coefficients)
    if kind == "pushforward_ladder":
        base = measure_from_json(obj["base"], f"{path}.base")
        return _build(path, PushforwardLadder, base, _numbers(obj["b"], f"{path}.b", 1),
                      _number(obj["scale"], f"{path}.scale"))
    inner = measure_from_json(obj["inner"], f"{path}.inner")
    axes = tuple(_integer(a, f"{path}.axes[{i}]")
                 for i, a in enumerate(_array(obj["axes"], f"{path}.axes")))
    return _build(path, LebesguePad, inner, axes,
                  _integer(obj["dimension"], f"{path}.dimension", 1))


def validate_descriptor(obj) -> Measure:
    """Read a whole descriptor document and return its measure; the first bad
    field raises ``DomainError`` naming its JSON path."""
    _fields(obj, "$", ("schema", "measure"), ("a", "b"))
    if obj["schema"] != SCHEMA_VERSION:
        raise _invalid("$.schema", f"expected {SCHEMA_VERSION!r}, got {obj['schema']!r:.40}")
    _number(obj.get("a", 0), "$.a")
    _numbers(obj.get("b", []), "$.b")
    return measure_from_json(obj["measure"])


def data_from_json(obj) -> RepresentationData:
    mu = validate_descriptor(obj)
    if "a" not in obj or "b" not in obj:
        raise _invalid("$", "representation data needs the fields 'a' and 'b'")
    return _build("$", RepresentationData, obj["a"], obj["b"], mu)


def load_descriptor(path: str) -> dict:
    """Parse a descriptor file; ``data_from_json`` or ``validate_descriptor``
    then reads and checks it.  A file that is not UTF-8 text or not JSON is
    a ``DomainError`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise DomainError(f"{path}: not UTF-8 text at byte {e.start}: {e.reason}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DomainError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def dump_descriptor(obj: dict, path: Optional[str]) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
