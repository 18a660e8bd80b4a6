"""Malformed input never escapes as a traceback.

parse_space and parse_diagram either return or raise InputError, and the
CLI answers any input file, rectangle or numeric option with exit 0, 1 or
2.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from paramhom.cli import main
from paramhom.complexes import SimplicialComplex
from paramhom.fieldlin import PrimeField
from paramhom.io import InputError, parse_diagram, parse_space
from paramhom.plot import render_svg
from paramhom.rspace import ConstructibleRSpace

from corpus import OVERFLOW_VALUES, RP2, constant_doc, point_doc

CIRCLE = {
    "critical_values": [0, 1],
    "vertex_complexes": [[[0]], [[0]]],
    "edge_complexes": [[[0], [1]]],
    "left_maps": [{"0": 0, "1": 0}],
    "right_maps": [{"0": 0, "1": 0}],
}
ENTRY = {"dim": 0, "type": "cc", "birth": 0, "death": 1, "multiplicity": 1}

# integers past the float range and past int64, and a huge prime
BIG = [10 ** 400, -10 ** 400, 2 ** 63, 2305843009213693951]

leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(BIG)
          | st.sampled_from(["inf", "-inf", "+inf", "cc", "oo", "0", "-1"])
          | st.text(max_size=4))
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(["0", "1", "-1"]),
                      inner, max_size=4),
    max_leaves=12)


@st.composite
def near_valid(draw, valid: dict, extra_keys: list[str]) -> dict:
    """A valid document with some keys dropped or replaced by junk."""
    doc = {}
    for key in list(valid) + extra_keys:
        choice = draw(st.sampled_from(["keep", "keep", "junk", "drop"]))
        if choice == "junk":
            doc[key] = draw(json_values)
        elif choice == "keep" and key in valid:
            doc[key] = valid[key]
    return doc


space_docs = near_valid(CIRCLE, ["characteristic", "max_dim"]) | json_values
entry_docs = (st.lists(near_valid(ENTRY, []) | json_values, max_size=3) | json_values)
corners = (st.sampled_from(["0", "1", "-1", "0.5", "2", "inf", "-inf", "nan", "x", ""])
           | st.floats().map(repr))
rects = st.lists(corners, min_size=3, max_size=5).map(",".join) | st.text(max_size=8)
numbers = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-9", "x"]) | st.floats().map(repr)


def _outcome(parse, doc) -> None:
    try:
        parse(doc)
    except InputError:
        pass


def _run(command: str, docs: list, options: list[str] = []) -> tuple[int, str]:
    """Exit status and standard output of one CLI call on these documents."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([command, *paths, *options])
            except SystemExit as e:  # argparse refuses an option value
                code = e.code
        return code, out.getvalue()


def _exit_code(command: str, docs: list, options: list[str] = []) -> int:
    return _run(command, docs, options)[0]


@settings(max_examples=300, deadline=None)
@given(space_docs)
@example(dict(CIRCLE, critical_values=[10 ** 400, 10 ** 401]))
@example(dict(CIRCLE, characteristic=2305843009213693951))
def test_parse_space_accepts_or_raises_input_error(doc):
    _outcome(parse_space, doc)


@settings(max_examples=300, deadline=None)
@given(entry_docs)
@example([dict(ENTRY, birth=-10 ** 400)])
def test_parse_diagram_accepts_or_raises_input_error(doc):
    _outcome(parse_diagram, doc)


reals = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(reals, reals), max_size=3))
@example([(1e17, 1e17)])
@example([(-1e308, 1e308)])
def test_plot_coordinates_are_finite(points):
    # a span that rounds to zero divided by zero; one that overflows drew nan
    entries = [dict(ENTRY, birth=min(p, q), death=max(p, q)) for p, q in points]
    svg = render_svg(parse_diagram(entries))
    assert "nan" not in svg and "inf" not in svg


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(space_docs, entry_docs)
@example(dict(CIRCLE, max_dim=10 ** 12), [ENTRY])
def test_cli_exit_codes(space, entries):
    assert _exit_code("diagram", [space]) in (0, 1, 2)
    assert _exit_code("plot", [entries]) in (0, 1, 2)
    assert _exit_code("bottleneck", [entries, [ENTRY]],
                      ["--dim", "0", "--type", "cc"]) in (0, 1, 2)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(space_docs, space_docs, rects, numbers, st.sampled_from(["1", "0", "-3"]))
@example(constant_doc(RP2, 2), constant_doc(RP2, 3), "-1,0,1,2", "1e-9", "1")
@example(CIRCLE, CIRCLE, "-1,0,1,2", "nan", "0")
@example(*(point_doc(v) for v in OVERFLOW_VALUES), "-1,0,1,2", "1e-9", "1")
def test_cli_subcommand_exit_codes(space, other, rect, tolerance, samples):
    for command, options in (("measure", ["--type", "cc", "--dim", "0"]),
                             ("extended", ["--type", "ext+", "--dim", "0"])):
        assert _exit_code(command, [space], [*options, f"--rect={rect}"]) in (0, 1, 2)
    assert _exit_code("stability", [space, other],
                      [f"--tolerance={tolerance}"]) in (0, 1, 2)
    # a space is always within any valid tolerance of itself
    assert _exit_code("stability", [space, space],
                      [f"--tolerance={tolerance}"]) in (0, 2)
    assert _exit_code("validate", [space], [f"--samples={samples}"]) in (0, 1, 2)


# the circle's vertex tables {0: 0, 1: 0}, mutated: 0 or 1 dropped, the
# stray 2 or 3 added, or a vertex sent to the missing target 1 or 2
vertex_tables = st.dictionaries(st.integers(0, 3), st.integers(0, 2), max_size=4)


def _refusal(build, error: type[Exception]) -> str | None:
    try:
        build()
    except error as e:
        return str(e)
    return None


@settings(max_examples=200, deadline=None)
@given(vertex_tables, vertex_tables)
@example({0: 0, 1: 0}, {0: 0, 1: 0})
def test_io_refuses_vertex_tables_as_the_constructor_does(left, right):
    doc = dict(CIRCLE, left_maps=[{str(v): w for v, w in left.items()}],
               right_maps=[{str(v): w for v, w in right.items()}])
    parts = ((0.0, 1.0), [SimplicialComplex([(0,)])] * 2, [SimplicialComplex([(0,), (1,)])],
             [left], [right], PrimeField(2))
    assert (_refusal(lambda: parse_space(doc), InputError)
            == _refusal(lambda: ConstructibleRSpace(*parts), ValueError))


huge = (st.sampled_from([-1.7e308, -1e308, 0.0, 1e308, 1.7e308])
        | st.floats(min_value=-1.7e308, max_value=1.7e308))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.lists(huge, min_size=n, max_size=n, unique=True).map(sorted),
                       min_size=2, max_size=2)))
@example(list(OVERFLOW_VALUES))
def test_stability_refuses_overflow(values):
    # differences past the largest float read inf, and inf <= inf passed
    code, out = _run("stability", [point_doc(v) for v in values])
    if code != 2:
        for line in out.splitlines():
            fields = dict(f.split("=") for f in line.split()[:-1])
            assert math.isfinite(float(fields["d_b"])), line
            assert math.isfinite(float(fields["delta"])), line


def test_unreadable_documents_exit_2(tmp_path):
    too_long = "[" + "1" * 5000 + "]"  # beyond Python's int parsing limit
    for i, raw in enumerate([too_long.encode(), b"\xff\xfe\x00", b"{"]):
        path = tmp_path / f"{i}.json"
        path.write_bytes(raw)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["diagram", str(path)]) == 2
            assert main(["plot", str(path)]) == 2
