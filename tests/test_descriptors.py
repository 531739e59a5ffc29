"""JSON descriptors, the density grammar and complex literals."""

import dataclasses
import inspect
import json
import math
import operator
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvk.descriptors import (
    data_from_json,
    data_to_json,
    format_complex,
    load_descriptor,
    measure_from_json,
    measure_to_json,
    parse_complex,
    parse_density,
    validate_descriptor,
)
from nvk.errors import DimensionMismatchError, DomainError
from nvk.measures import (
    Atomic,
    LebesgueDensity,
    LebesguePad,
    Measure,
    Product,
    Pushforward2D,
    PushforwardLadder,
    lebesgue,
)
from nvk.representation import RepresentationData, evaluate

PI = math.pi


def test_complex_literals_roundtrip():
    for z in (1j, -1j, 0.5 - 2e-3j, -1.25 + 0j, 3 + 4j):
        assert parse_complex(format_complex(z)) == z
    assert format_complex(1j) == "0+1i"
    assert parse_complex("  -1.5 - 2e-3i ") == complex(-1.5, -2e-3)


@pytest.mark.parametrize("bad", ["1", "i", "1+i", "1+2j", "1 2i", "++2i", "1+2i3"])
def test_complex_literals_rejected(bad):
    with pytest.raises(DomainError, match="complex literal"):
        parse_complex(bad)


def test_density_grammar():
    f = parse_density("1/(1+t1^2)", 1)
    assert abs(f(2.0) - 0.2) < 1e-15
    g = parse_density("exp(-t1^2-t2^2)", 2)
    assert abs(g(1.0, 1.0) - math.exp(-2.0)) < 1e-15
    h = parse_density("2*t1^2 - 3/2", 1)
    assert h(2.0) == 6.5
    # Unary minus binds looser than the power.
    assert parse_density("-t1^2", 1)(3.0) == -9.0
    # Vectorised evaluation
    assert np.allclose(f(np.array([0.0, 1.0])), [1.0, 0.5])


@pytest.mark.parametrize("expr,match", [
    ("1 +", "invalid syntax at column 4"),
    ("t3", "out of range"),
    ("1 $ 2", "bad token"),
    ("(1", "never closed at column 1"),
    ("1 2", "invalid syntax at column 3"),
    ("1 + t1 # note", "bad token at column 8"),
    ("2**3", "bad token at column 2"),
    ("1_0", "unexpected token"),
    ("0x10", "unexpected token"),
    ("1j", "unexpected token"),
    ("True", "unexpected token"),
    ("+t1", "unexpected token at column 1"),
    ("exp(t1, t2)", "bad token"),
    ("t1.real", "unexpected token"),
    ("(1, 2)", "bad token"),
    ("01", "leading zeros"),
    ("__import__(t1)", "unexpected token at column 1"),
    ("t1(t1)", "unexpected token at column 1"),
    ("exp(t1)(t1)", "unexpected token at column 1"),
    ("exp.__class__", "unexpected token at column 1"),
    ("(exp)(t1)", "unexpected token at column 1"),
])
def test_density_grammar_errors(expr, match):
    with pytest.raises(DomainError, match=match):
        parse_density(expr, 2)


# Expression trees over the grammar: ("num", text), ("var", axis), ("neg", x),
# ("exp", x) and (op, x, y) for op in + - * / ^.
_NUMBERS = st.from_regex(r"(0|[1-9][0-9]{0,2})(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,2})?|\.[0-9]{1,3}",
                         fullmatch=True)


def _trees(variables: int):
    return st.recursive(
        st.one_of(_NUMBERS.map(lambda s: ("num", s)),
                  st.sampled_from([("var", k) for k in range(variables)])),
        lambda sub: st.one_of(st.tuples(st.sampled_from("+-*/^"), sub, sub),
                              st.tuples(st.sampled_from(["neg", "exp"]), sub)),
        max_leaves=12)


# How tightly each node binds; a node sits in parentheses where its place
# needs a tighter one (the base of ^ needs an atom, its exponent a unary).
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "num": 5, "var": 5, "exp": 5}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": operator.pow}


@st.composite
def _expressions(draw, variables: int = 2):
    """A tree over t1..t<variables> and its text, with random spaces, tabs
    and redundant parentheses."""
    def space():
        return draw(st.sampled_from(["", "", " ", "  ", "\t"]))

    def render(node, least):
        kind = node[0]
        if kind == "num":
            text = node[1]
        elif kind == "var":
            text = f"t{node[1] + 1}"
        elif kind == "neg":
            text = "-" + space() + render(node[1], 3)
        elif kind == "exp":
            text = "exp" + space() + "(" + space() + render(node[1], 0) + space() + ")"
        elif kind == "^":
            text = render(node[1], 5) + space() + "^" + space() + render(node[2], 3)
        else:
            text = (render(node[1], _BINDING[kind]) + space() + kind + space()
                    + render(node[2], _BINDING[kind] + 1))
        if _BINDING[kind] < least or draw(st.integers(0, 5)) == 0:
            text = "(" + space() + text + space() + ")"
        return text

    tree = draw(_trees(variables))
    return tree, space() + render(tree, 0) + space()


def _direct(node, t):
    kind = node[0]
    if kind == "num":
        return float(node[1])
    if kind == "var":
        return t[node[1]]
    if kind == "neg":
        return -_direct(node[1], t)
    if kind == "exp":
        return np.exp(_direct(node[1], t))
    return _OPS[kind](_direct(node[1], t), _direct(node[2], t))


def _bits(f, t):
    """The exact outcome of f(*t): the exception type, or the type, dtype
    and bytes of the value."""
    try:
        with np.errstate(all="ignore"):
            v = f(*t)
    except ArithmeticError as e:  # Python floats raise on 1/0 and overflow
        return type(e)
    return type(v), np.asarray(v).dtype, np.asarray(v).tobytes()


@given(_expressions())
@settings(max_examples=200, deadline=None)
def test_density_matches_direct_evaluation(case):
    tree, text = case
    f = parse_density(text, 2)
    arrays = (np.array([-2.5, -1.0, -0.0, 0.3, 1.0, 7.0]),
              np.array([0.5, -3.0, 2.0, 0.0, -0.7, 1.5]))
    for t in (arrays, (0.7, -1.3)):
        assert _bits(f, t) == _bits(lambda *u: _direct(tree, u), t), text


@pytest.mark.parametrize("text", ["+".join(["t1"] * 1000), "-" * 1000 + "t1", "^".join(["1"] * 3000)],
                         ids=["sum", "minus", "power"])
def test_density_too_deep_to_parse(text):
    with pytest.raises(DomainError, match="too long or too deeply nested"):
        parse_density(text, 1)


def test_density_too_deep_to_evaluate():
    # The density's code evaluates in one frame, so it evaluates deep inside
    # ``evaluate`` with 200 frames to spare.
    f = parse_density("+".join(["1/(1+t1^2)"] * 300), 1)
    data = RepresentationData(0.0, (0.0,), LebesgueDensity(1, density=f))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        assert abs(evaluate(data, (1j,)) - 150j) <= 1e-10 * 150
    finally:
        sys.setrecursionlimit(limit)


def test_long_density_sum_keeps_its_bits():
    t = np.array([-2.5, -0.0, 0.3, 7.0])
    want = t
    for _ in range(899):
        want = want + t
    assert _bits(parse_density("+".join(["t1"] * 900), 1), (t,)) == _bits(lambda u: want, (t,))


def test_measure_roundtrips(pi_delta0):
    fixtures = [
        pi_delta0,
        Atomic((), dim=3),
        lebesgue(2),
        Product((pi_delta0, lebesgue())),
        Pushforward2D(pi_delta0, 1.0, 1.0, 1.0, -1.0),
        PushforwardLadder(pi_delta0, (0.5, 1.0), 2.0),
        LebesguePad(PushforwardLadder(pi_delta0, (1.0,), 2.0), (0, 2), 3),
    ]
    for mu in fixtures:
        assert measure_from_json(measure_to_json(mu)) == mu


def test_density_roundtrip():
    obj = {"type": "lebesgue", "dimension": 1, "density": "1/(1+t1^2)"}
    mu = measure_from_json(obj)
    assert measure_to_json(mu) == obj
    assert abs(mu.density(1.0) - 0.5) < 1e-15


def test_data_roundtrip(pi_delta0):
    data = RepresentationData(0.5, (0.0, 1.5), Pushforward2D(pi_delta0, 1, 1, 1, -1))
    doc = data_to_json(data)
    validate_descriptor(doc)
    assert data_from_json(doc) == data


def test_schema_rejects_bad_documents():
    with pytest.raises(DomainError, match="descriptor invalid"):
        validate_descriptor({"schema": "nvk-1", "measure": {"type": "nonsense"}})
    with pytest.raises(DomainError, match="descriptor invalid"):
        validate_descriptor({"measure": {"type": "lebesgue", "dimension": 1}})
    with pytest.raises(DomainError, match=r"\$\.measure"):
        validate_descriptor({"schema": "nvk-1",
                             "measure": {"type": "atomic", "atoms": [[0.0]]}})
    with pytest.raises(DomainError, match=r"at \$: expected an object"):
        validate_descriptor([])


def test_parsed_density_writes_its_source():
    mu = LebesgueDensity(1, parse_density("1/(1+t1^2)", 1))
    assert measure_to_json(mu) == {"type": "lebesgue", "dimension": 1, "density": "1/(1+t1^2)"}


_REALS = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(1e-3, 1e3)
_POINTS = (np.array([-2.5, -0.0, 0.3, 7.0]), np.array([0.5, 2.0, 0.0, -0.7]),
           np.array([1.5, -3.0, 0.2, 1.0]))


def _measures(dim: int, depth: int):
    """Measures on R^dim, nested at most ``depth`` levels below the top."""
    rows = st.lists(st.tuples(st.tuples(*[_REALS] * dim), _POSITIVE), max_size=3)
    densities = st.none() | _expressions(dim).map(lambda case: parse_density(case[1], dim))
    leaves = [st.builds(Atomic, rows.map(tuple), st.just(dim)),
              st.builds(LebesgueDensity, st.just(dim), densities)]
    if not depth:
        return st.one_of(leaves)
    line = _measures(1, depth - 1)
    nested = [st.lists(line, min_size=dim, max_size=dim).map(tuple).map(Product),
              st.sets(st.integers(0, dim - 1), min_size=1).map(sorted).flatmap(
                  lambda axes: st.builds(LebesguePad, _measures(len(axes), depth - 1),
                                         st.just(tuple(axes)), st.just(dim)))]
    if dim == 2:
        nested.append(st.builds(Pushforward2D, line, _REALS, _REALS, _REALS, _REALS))
    if dim >= 2:
        nested.append(st.builds(PushforwardLadder, line, st.tuples(*[_POSITIVE] * (dim - 1)),
                                _POSITIVE))
    # Hypothesis draws the first options more often: the nested ones first.
    return st.one_of(nested + leaves)

def _same(a, b, dim: int = 0) -> bool:
    """Equal measures; two densities on R^dim are equal when their sources
    and their bits on ``_POINTS`` are."""
    if isinstance(a, Measure):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name), a.dimension)
                                          for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    if callable(a):
        return (a._nvk_source == b._nvk_source
                and _bits(a, _POINTS[:dim]) == _bits(b, _POINTS[:dim]))
    return a == b


@given(st.integers(1, 3).flatmap(lambda dim: _measures(dim, 2)))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_measure_trees_roundtrip(mu):
    j = measure_to_json(mu)
    read = measure_from_json(j)
    assert measure_to_json(read) == j
    assert _same(read, mu)


def test_only_parsed_densities_are_written():
    with pytest.raises(DomainError, match="parsed from expressions"):
        measure_to_json(LebesgueDensity(1, lambda t: 1.0 / (1.0 + t * t)))


def test_load_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema": "nvk-1",\n  "measure": }\n')
    with pytest.raises(DomainError, match=r"line 3, column 14"):
        load_descriptor(str(path))


_ATOM = '{"type": "atomic", "atoms": [[0, 1]]}'


_REJECTIONS = [
    # unknown measure type; a missing type
    ('{"schema": "nvk-1", "measure": {"type": "nonsense"}}', "$.measure.type"),
    ('{"schema": "nvk-1", "measure": {"atoms": []}}', "$.measure"),
    # a missing required field, at the top and in a measure
    ('{"measure": ' + _ATOM + '}', "$"),
    ('{"schema": "nvk-1", "measure": {"type": "lebesgue"}}', "$.measure"),
    ('{"schema": "nvk-1", "measure": {"type": "pushforward_ladder", "base": ' + _ATOM
     + ', "b": [1]}}', "$.measure"),
    # a field the type does not have, at the top and in a measure
    ('{"schema": "nvk-1", "measure": ' + _ATOM + ', "c": 1}', "$.c"),
    ('{"schema": "nvk-1", "measure": {"type": "lebesgue", "dimension": 1, "atoms": []}}',
     "$.measure.atoms"),
    # another schema version
    ('{"schema": "nvk-2", "measure": ' + _ATOM + '}', "$.schema"),
    # a bool or a string where a number is expected
    ('{"schema": "nvk-1", "a": true, "measure": ' + _ATOM + '}', "$.a"),
    ('{"schema": "nvk-1", "b": ["0"], "measure": ' + _ATOM + '}', "$.b[0]"),
    ('{"schema": "nvk-1", "measure": {"type": "pushforward_ladder", "base": '
     '{"type": "pushforward2d", "base": ' + _ATOM + ', "coefficients": [1, "x", 1, 1]}, '
     '"b": [1], "scale": 1}}', "$.measure.base.coefficients[1]"),
    ('{"schema": "nvk-1", "measure": {"type": "atomic", "atoms": [[0, false]]}}',
     "$.measure.atoms[0][1]"),
    # an atom row with fewer than 2 entries
    ('{"schema": "nvk-1", "measure": {"type": "atomic", "atoms": [[0, 1], [1]]}}',
     "$.measure.atoms[1]"),
    # coefficients with other than 4 entries
    ('{"schema": "nvk-1", "measure": {"type": "pushforward2d", "base": ' + _ATOM
     + ', "coefficients": [1, 1, 1]}}', "$.measure.coefficients"),
    ('{"schema": "nvk-1", "measure": {"type": "pushforward2d", "base": ' + _ATOM
     + ', "coefficients": [1, 1, 1, 1, 1]}}', "$.measure.coefficients"),
    # an empty b or factors
    ('{"schema": "nvk-1", "measure": {"type": "pushforward_ladder", "base": ' + _ATOM
     + ', "b": [], "scale": 1}}', "$.measure.b"),
    ('{"schema": "nvk-1", "measure": {"type": "product", "factors": []}}', "$.measure.factors"),
    ('{"schema": "nvk-1", "measure": {"type": "product", "factors": [' + _ATOM + ', 3]}}',
     "$.measure.factors[1]"),
    # dimension < 1, or not an integer
    ('{"schema": "nvk-1", "measure": {"type": "lebesgue", "dimension": 0}}',
     "$.measure.dimension"),
    ('{"schema": "nvk-1", "measure": {"type": "lebesgue", "dimension": 1.5}}',
     "$.measure.dimension"),
    ('{"schema": "nvk-1", "measure": {"type": "lebesgue_pad", "inner": ' + _ATOM
     + ', "axes": [0.5], "dimension": 2}}', "$.measure.axes[0]"),
    # a non-string density, and a density the grammar rejects
    ('{"schema": "nvk-1", "measure": {"type": "lebesgue", "dimension": 1, "density": 3}}',
     "$.measure.density"),
    ('{"schema": "nvk-1", "measure": {"type": "lebesgue", "dimension": 1, "density": "t2"}}',
     "$.measure.density"),
    # NaN and Infinity literals, wherever a number is read
    ('{"schema": "nvk-1", "a": NaN, "measure": ' + _ATOM + '}', "$.a"),
    ('{"schema": "nvk-1", "b": [0, -Infinity], "measure": ' + _ATOM + '}', "$.b[1]"),
    ('{"schema": "nvk-1", "measure": {"type": "atomic", "atoms": [[NaN, 1]]}}',
     "$.measure.atoms[0][0]"),
    ('{"schema": "nvk-1", "measure": {"type": "lebesgue", "dimension": Infinity}}',
     "$.measure.dimension"),
    # a constructor's own check, reported at the measure it builds
    ('{"schema": "nvk-1", "measure": {"type": "pushforward_ladder", "base": ' + _ATOM
     + ', "b": [0], "scale": 1}}', "$.measure"),
]


@pytest.mark.parametrize("text,path", _REJECTIONS,
                         ids=[f"{i}-{path}" for i, (_, path) in enumerate(_REJECTIONS)])
def test_reader_rejects_at_json_path(text, path):
    with pytest.raises(DomainError, match=f"^descriptor invalid at {re.escape(path)}: "):
        validate_descriptor(json.loads(text))


def test_constructor_errors_keep_their_class():
    obj = {"type": "atomic", "atoms": [[0, 1], [0, 0, 1]]}
    with pytest.raises(DimensionMismatchError, match=r"^descriptor invalid at \$\.measure: "):
        measure_from_json(obj)


def test_data_needs_a_and_b():
    doc = {"schema": "nvk-1", "a": 0, "measure": json.loads(_ATOM)}
    assert validate_descriptor(doc) == Atomic.single(1.0, 0.0)
    with pytest.raises(DomainError, match=r"^descriptor invalid at \$: representation data needs"):
        data_from_json(doc)


@pytest.mark.parametrize("obj,expected", [
    ({"type": "lebesgue", "dimension": 2.0}, lebesgue(2)),
    ({"type": "atomic", "dimension": 1.0, "atoms": []}, Atomic((), dim=1)),
    ({"type": "lebesgue_pad", "inner": json.loads(_ATOM), "axes": [1.0], "dimension": 3.0},
     LebesguePad(Atomic.single(1.0, 0.0), (1,), 3)),
])
def test_integral_floats_read_as_integers(obj, expected):
    mu = measure_from_json(obj)
    assert mu == expected
    assert type(mu.dimension) is int
