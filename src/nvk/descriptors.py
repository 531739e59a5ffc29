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

One table, ``_TYPES``, defines this format: per measure type, each field's
key, whether it is required, its reader and its writer.
``measure_from_json`` and ``measure_to_json`` both walk it.

Density expressions use a deliberately tiny grammar over t1..tn: numbers,
+ - * / ^, unary minus, parentheses and exp(...).  Python's ``ast`` parses
the text with ^ spelled **, a whitelist of nodes checks the tree, and only
a checked tree is compiled, to code that runs with no builtins; anything
richer belongs in library embedding, not in descriptor files.

Complex literals in flags and reports use the form "a+bi" with a mandatory
sign between the parts, e.g. "0+1i" or "-1.5-2e-3i".
"""

from __future__ import annotations

import ast
import json
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
# so ``ast`` parses the text, a whitelist of nodes checks the tree and
# Python compiles it.

# The first character outside the grammar's alphabet; ** is not in the
# grammar either (and Python's tokenizer would drop a # comment unseen).
_BAD_CHAR_RE = re.compile(r"[^\w\s.+\-*/^()]|\*\*")
_NUMBER_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+")
_VARIABLE_RE = re.compile(r"t\d+")
_EXP_CALL_RE = re.compile(r"exp *\(")
_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
# The globals of a density's code: ``exp`` and nothing else.
_GLOBALS = {"__builtins__": {}, "exp": np.exp}


def parse_density(text: str, dimension: int) -> Callable:
    """Compile a density expression over t1..t<dimension> to a callable
    whose ``_nvk_source`` is ``text``."""
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

    def check(node) -> None:
        """Reject the first node under ``node`` outside the grammar; set
        each number to the float of its text and each variable to its name."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINARY):
            check(node.left)
            return check(node.right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return check(node.operand)
        # The node's own text: Python folds fullwidth letters into ASCII
        # names, reads 1_0 or 0x10 as numbers and calls (exp)(t1); the
        # grammar does none of these.
        seg = ast.get_source_segment(src, node)
        if isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(seg):
            node.value = float(seg)
        elif isinstance(node, ast.Name) and _VARIABLE_RE.fullmatch(seg):
            if not 1 <= int(seg[1:]) <= dimension:
                reject(node, f"variable {seg} out of range")
            node.id = f"t{int(seg[1:])}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and _EXP_CALL_RE.match(seg) and len(node.args) == 1 and not node.keywords):
            check(node.args[0])
        else:
            reject(node)

    try:
        tree = ast.parse(src, mode="eval")
        check(tree.body)
        code = compile(tree, "<density>", "eval")
    except SyntaxError as e:
        # Python gives no position for some errors at the end (``1 +``).
        raise error(e.msg, min(e.offset - 1, len(src)) if e.offset else len(src)) from None
    except (RecursionError, MemoryError):
        # Python's parser signals a nesting past its own stack as MemoryError.
        raise DomainError("density expression: too long or too deeply nested") from None
    names = [f"t{k}" for k in range(1, dimension + 1)]

    def density(*t):
        return eval(code, _GLOBALS, dict(zip(names, t)))

    density._nvk_source = text  # type: ignore[attr-defined]
    return density


# --- the format: each field is checked as it is read ------------------------

def _invalid(path: str, message: str) -> DomainError:
    return DomainError(f"descriptor invalid at {path}: {message}")


def _fields(obj, path: str, required, optional) -> None:
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


def _dimension(x, path: str, got: tuple) -> int:
    return _integer(x, path, 1)


def _array(x, path: str, min_items: int = 0) -> list:
    if not isinstance(x, list) or len(x) < min_items:
        raise _invalid(path, f"expected an array of at least {min_items} entries, got {x!r:.40}")
    return x


def _each(read: Callable, min_items: int = 0) -> Callable:
    """The reader of an array of at least ``min_items`` entries, each read
    by ``read``."""
    return lambda x, path, got=(): tuple(read(v, f"{path}[{i}]")
                                         for i, v in enumerate(_array(x, path, min_items)))


def _build(path: str, make: Callable, *args):
    """``make(*args)``; a DomainError it raises is re-raised at ``path``."""
    try:
        return make(*args)
    except DomainError as e:
        raise type(e)(f"descriptor invalid at {path}: {e}") from None


_ROW = _each(_number, 2)


def _atom(x, path: str) -> tuple:
    row = _ROW(x, path)
    return row[:-1], row[-1]


def _density(src, path: str, got: tuple):
    if src is None:
        return None
    if not isinstance(src, str):
        raise _invalid(path, f"expected a string or null, got {src!r:.40}")
    return _build(path, parse_density, src, got[0])


def _source(mu: LebesgueDensity) -> Optional[str]:
    if mu.density is not None and not hasattr(mu.density, "_nvk_source"):
        raise DomainError("only densities parsed from expressions can be serialized")
    return getattr(mu.density, "_nvk_source", None)


def _coefficients(x, path: str, got: tuple) -> tuple:
    coefficients = _each(_number)(x, path)
    if len(coefficients) != 4:
        raise _invalid(path, f"expected 4 entries, got {len(coefficients)}")
    return coefficients


def _measure(x, path: str, got=()) -> Measure:
    return measure_from_json(x, path)


# Per measure type: its class, the constructor of a measure from the field
# values in order, and one row per JSON field, in the order the reader
# checks them: the key, whether it is required, the reader
# ``read(value, path, values of the fields before it)`` (an absent optional
# field reads as None) and the writer of the field from a measure.
_TYPES = {
    "atomic": (Atomic, Atomic, (
        ("atoms", True, _each(_atom), lambda mu: [[*loc, w] for loc, w in mu.atoms]),
        ("dimension", False, _dimension, lambda mu: mu.dimension))),
    "lebesgue": (LebesgueDensity, LebesgueDensity, (
        ("dimension", True, _dimension, lambda mu: mu.dim),
        ("density", False, _density, _source))),
    "product": (Product, Product, (
        ("factors", True, _each(_measure, 1), lambda mu: [measure_to_json(f) for f in mu.factors]),)),
    "pushforward2d": (Pushforward2D, lambda base, c: Pushforward2D(base, *c), (
        ("base", True, _measure, lambda mu: measure_to_json(mu.base)),
        ("coefficients", True, _coefficients, lambda mu: list(mu.coefficients)))),
    "pushforward_ladder": (PushforwardLadder, PushforwardLadder, (
        ("base", True, _measure, lambda mu: measure_to_json(mu.base)),
        ("b", True, _each(_number, 1), lambda mu: list(mu.b)),
        ("scale", True, lambda x, path, got: _number(x, path), lambda mu: mu.scale))),
    "lebesgue_pad": (LebesguePad, LebesguePad, (
        ("inner", True, _measure, lambda mu: measure_to_json(mu.inner)),
        ("axes", True, _each(_integer), lambda mu: list(mu.axes)),
        ("dimension", True, _dimension, lambda mu: mu.dim))),
}


def measure_to_json(mu: Measure) -> dict:
    for kind, (cls, _, fields) in _TYPES.items():
        if isinstance(mu, cls):
            return {"type": kind, **{key: write(mu) for key, _, _, write in fields}}
    raise DomainError(f"cannot serialize measure {type(mu).__name__}")


def measure_from_json(obj, path: str = "$.measure") -> Measure:
    """Read a measure object; a bad field raises ``DomainError`` naming its
    JSON path, e.g. ``descriptor invalid at $.measure.b[1]: ...``."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise _invalid(path, f"expected a measure object with a 'type' field, got {obj!r:.40}")
    kind = obj["type"]
    if not (isinstance(kind, str) and kind in _TYPES):
        raise _invalid(f"{path}.type", f"unknown measure type {kind!r:.40}")
    _, make, fields = _TYPES[kind]
    _fields(obj, path, ["type"] + [key for key, required, _, _ in fields if required],
            [key for key, required, _, _ in fields if not required])
    values: tuple = ()
    for key, _, read, _ in fields:
        values += (read(obj[key], f"{path}.{key}", values) if key in obj else None,)
    return _build(path, make, *values)


def data_to_json(data: RepresentationData) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "a": data.a,
        "b": list(data.b),
        "measure": measure_to_json(data.mu),
    }


def validate_descriptor(obj) -> Measure:
    """Read a whole descriptor document and return its measure; the first bad
    field raises ``DomainError`` naming its JSON path."""
    _fields(obj, "$", ("schema", "measure"), ("a", "b"))
    if obj["schema"] != SCHEMA_VERSION:
        raise _invalid("$.schema", f"expected {SCHEMA_VERSION!r}, got {obj['schema']!r:.40}")
    _number(obj.get("a", 0), "$.a")
    _each(_number)(obj.get("b", []), "$.b")
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
