"""File formats: input spaces and diagram documents, both JSON.

An input document describes a constructible space piecewise: the sorted
critical values, one simplicial complex per critical value and per gap, and
the two attaching vertex tables per gap.  Simplices are lists of nonnegative
integer vertex ids and may list only maximal faces; closure is taken on
load.  A vertex table keys each vertex of its gap fiber exactly once, and
no other, by the plain decimal of its id ("3", not "03", "+3" or " 3"),
and no JSON object in a file may repeat a key.  A diagram document is a
flat list of entries, one per diagram point, sorted by (dim, type, birth,
death).

Real values serialize as plain JSON numbers, integers without a decimal
point and other values as the shortest decimal that reads back to the
same float, and the two infinities as the strings "-inf" and "inf".
Loading a serialized document reproduces it field for field, values
exactly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Any, Mapping

from .complexes import SimplicialComplex
from .diagrams import BehaviorType, DecoratedDiagram, DecoratedPoint
from .fieldlin import PrimeField
from .rspace import ConstructibleRSpace

__all__ = [
    "InputError",
    "format_real",
    "parse_real",
    "parse_space",
    "load_space",
    "diagram_entries",
    "dump_diagram",
    "parse_diagram",
    "load_diagram",
    "entry_multiset",
]

_SPACE_KEYS = {"characteristic", "max_dim", "critical_values",
               "vertex_complexes", "edge_complexes", "left_maps", "right_maps"}
_ENTRY_KEYS = {"dim", "type", "birth", "death", "multiplicity"}


class InputError(Exception):
    """A document failed to parse or validate."""


def format_real(v: float):
    """JSON form of an extended real: number, or an infinity literal."""
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    v = float(v)
    return int(v) if v.is_integer() else v


def parse_real(v) -> float:
    if isinstance(v, str):
        if v in ("inf", "+inf"):
            return math.inf
        if v == "-inf":
            return -math.inf
        raise InputError(f"expected a number or an infinity literal, got {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        raise InputError("number out of the floating-point range") from None
    if not math.isfinite(x):
        raise InputError("non-finite numbers must be spelled 'inf' or '-inf'")
    return x


# -- input spaces ---------------------------------------------------------------


def _parse_complex(obj, where: str) -> SimplicialComplex:
    if not isinstance(obj, list):
        raise InputError(f"{where}: expected a list of simplices")
    for s in obj:
        if not isinstance(s, list) or not s:
            raise InputError(f"{where}: each simplex is a nonempty list of vertex ids")
        for v in s:
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise InputError(f"{where}: vertex ids are nonnegative integers, got {v!r}")
    try:
        return SimplicialComplex(obj)
    except ValueError as e:
        raise InputError(f"{where}: {e}") from e


def _parse_vertex_table(obj, where: str) -> dict[int, int]:
    if not isinstance(obj, Mapping):
        raise InputError(f"{where}: expected a vertex table")
    table = {}
    for k, v in obj.items():
        # an int id or its canonical decimal: "01", " 3 ", "+4", 1.7 and True
        # would all read as ids, which another key may name too
        key = k if isinstance(k, int) and not isinstance(k, bool) else None
        if isinstance(k, str):
            try:
                key = int(k)
            except ValueError:
                pass
        if key is None or (isinstance(k, str) and k != str(key)):
            raise InputError(f"{where}: bad vertex id {k!r}")
        if isinstance(v, bool) or not isinstance(v, int) or key < 0 or v < 0:
            raise InputError(f"{where}: vertex ids are nonnegative integers")
        if key in table:
            raise InputError(f"{where}: vertex {key} is mapped twice")
        table[key] = v
    return table


def parse_space(doc: Any) -> tuple[ConstructibleRSpace, int]:
    """Build a space from a decoded input document.

    This module checks the JSON encoding; the space's constructor checks
    shapes and attaching maps, and its ValueError becomes an InputError.
    Returns the space and the maximum homology dimension to report
    (defaulting to the top dimension of any piece).
    """
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    unknown = set(doc) - _SPACE_KEYS
    if unknown:
        raise InputError(f"unknown keys: {sorted(unknown)}")
    for key in ("critical_values", "vertex_complexes", "edge_complexes",
                "left_maps", "right_maps"):
        if key not in doc:
            raise InputError(f"missing key {key!r}")
        if not isinstance(doc[key], list):
            raise InputError(f"{key} must be a list")

    p = doc.get("characteristic", 2)
    if isinstance(p, bool) or not isinstance(p, int):
        raise InputError("characteristic must be an integer")
    try:
        field = PrimeField(p)
    except ValueError as e:
        raise InputError(str(e)) from e

    values = [parse_real(v) for v in doc["critical_values"]]

    verts = [_parse_complex(o, f"vertex_complexes[{i}]")
             for i, o in enumerate(doc["vertex_complexes"])]
    edges = [_parse_complex(o, f"edge_complexes[{i}]")
             for i, o in enumerate(doc["edge_complexes"])]
    lmaps = [_parse_vertex_table(o, f"left_maps[{i}]")
             for i, o in enumerate(doc["left_maps"])]
    rmaps = [_parse_vertex_table(o, f"right_maps[{i}]")
             for i, o in enumerate(doc["right_maps"])]

    try:
        X = ConstructibleRSpace(values, verts, edges, lmaps, rmaps, field)
    except ValueError as e:
        raise InputError(str(e)) from e

    max_dim = doc.get("max_dim", max(X.max_piece_dimension(), 0))
    if isinstance(max_dim, bool) or not isinstance(max_dim, int) or max_dim < 0:
        raise InputError("max_dim must be a nonnegative integer")
    return X, max_dim


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise ValueError(f"repeated key {k!r}")
        obj[k] = v
    return obj


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except ValueError as e:  # bad JSON, bad UTF-8, or an over-long integer
        raise InputError(f"{path}: {e}") from e
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None


def load_space(path: str) -> tuple[ConstructibleRSpace, int]:
    return parse_space(_load_json(path))


# -- diagram documents ----------------------------------------------------------


def diagram_entries(by_dim: Mapping[int, Mapping[BehaviorType, DecoratedDiagram]]
                    ) -> list[dict]:
    """Flatten diagrams into document entries, sorted by dim, type code,
    birth and death."""
    return [{"dim": dim, "type": btype.value, "birth": format_real(pt.p),
             "death": format_real(pt.q), "multiplicity": m}
            for dim in sorted(by_dim)
            for btype, D in sorted(by_dim[dim].items(), key=lambda td: td[0].value)
            for pt, m in D.points()]


def dump_diagram(entries: list[dict]) -> str:
    return json.dumps(entries, indent=2) + "\n"


def parse_diagram(doc: Any) -> list[dict]:
    """Validate a decoded diagram document; returns its entries."""
    if not isinstance(doc, list):
        raise InputError("diagram document must be a JSON list")
    for i, e in enumerate(doc):
        where = f"entries[{i}]"
        if not isinstance(e, dict) or set(e) != _ENTRY_KEYS:
            raise InputError(f"{where}: expected keys {sorted(_ENTRY_KEYS)}")
        if isinstance(e["dim"], bool) or not isinstance(e["dim"], int) or e["dim"] < 0:
            raise InputError(f"{where}: dim must be a nonnegative integer")
        try:
            btype = BehaviorType(e["type"])
        except ValueError:
            raise InputError(f"{where}: unknown type code {e['type']!r}") from None
        m = e["multiplicity"]
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise InputError(f"{where}: multiplicity must be a positive integer")
        p, q = parse_real(e["birth"]), parse_real(e["death"])
        pdec, qdec = btype.decorations
        try:
            DecoratedPoint(p, pdec, q, qdec)
        except ValueError as err:
            raise InputError(f"{where}: {err}") from err
    return doc


def load_diagram(path: str) -> list[dict]:
    return parse_diagram(_load_json(path))


def entry_multiset(entries: list[dict], dim: int, btype: BehaviorType) -> Counter:
    """Undecorated (birth, death) multiset of one diagram in the document."""
    out: Counter = Counter()
    for e in entries:
        if e["dim"] == dim and e["type"] == btype.value:
            out[(parse_real(e["birth"]), parse_real(e["death"]))] += e["multiplicity"]
    return out
