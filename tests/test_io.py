import json
import math

import pytest

from paramhom.diagrams import BehaviorType, DecoratedDiagram, DecoratedPoint
from paramhom.io import (
    InputError,
    diagram_entries,
    dump_diagram,
    entry_multiset,
    format_real,
    parse_diagram,
    parse_real,
    parse_space,
)

CIRCLE_DOC = {
    "critical_values": [0, 1],
    "vertex_complexes": [[[0]], [[0]]],
    "edge_complexes": [[[0], [1]]],
    "left_maps": [{"0": 0, "1": 0}],
    "right_maps": [{"0": 0, "1": 0}],
}


def bar(p, q, btype):
    pdec, qdec = btype.decorations
    return DecoratedPoint(p, pdec, q, qdec)


class TestReals:
    def test_infinities(self):
        assert format_real(math.inf) == "inf"
        assert format_real(-math.inf) == "-inf"
        assert parse_real("inf") == math.inf
        assert parse_real("-inf") == -math.inf

    def test_integers_stay_integers(self):
        assert format_real(1.0) == 1
        assert format_real(-3.0) == -3

    def test_exact_round_trip(self):
        # rounding to 12 digits printed 1.0000000000001 as 1
        for v in (0.1234567890123456, 1.0000000000001, 1e17, -2.5e-300, 5e-324,
                  1.7976931348623157e308):
            assert parse_real(json.loads(json.dumps(format_real(v)))) == v
        assert json.dumps(format_real(0.1234567890123456)) == "0.1234567890123456"
        assert json.dumps(format_real(-2.5)) == "-2.5"

    def test_round_trip(self):
        for v in (0.0, -2.5, 1e-9, 12345.678, math.inf, -math.inf):
            assert parse_real(format_real(v)) == pytest.approx(v, rel=1e-11)

    def test_rejects_junk(self):
        with pytest.raises(InputError):
            parse_real("fast")
        with pytest.raises(InputError):
            parse_real(True)
        with pytest.raises(InputError):
            parse_real([1])


class TestParseSpace:
    def test_circle(self):
        X, max_dim = parse_space(CIRCLE_DOC)
        assert X.critical_values == (0.0, 1.0)
        assert X.field.p == 2
        assert max_dim == 0

    def test_characteristic_and_max_dim(self):
        doc = dict(CIRCLE_DOC, characteristic=5, max_dim=2)
        X, max_dim = parse_space(doc)
        assert X.field.p == 5
        assert max_dim == 2

    def test_composite_characteristic(self):
        with pytest.raises(InputError):
            parse_space(dict(CIRCLE_DOC, characteristic=4))

    def test_missing_key(self):
        doc = {k: v for k, v in CIRCLE_DOC.items() if k != "left_maps"}
        with pytest.raises(InputError, match="left_maps"):
            parse_space(doc)

    def test_unknown_key(self):
        with pytest.raises(InputError, match="unknown"):
            parse_space(dict(CIRCLE_DOC, extra=1))

    def test_unsorted_critical_values(self):
        doc = dict(CIRCLE_DOC, critical_values=[1, 0])
        with pytest.raises(InputError, match="increasing"):
            parse_space(doc)

    def test_negative_vertex_id(self):
        doc = dict(CIRCLE_DOC, vertex_complexes=[[[-1]], [[0]]])
        with pytest.raises(InputError, match="nonnegative"):
            parse_space(doc)

    def test_vertex_mapped_twice(self):
        doc = dict(CIRCLE_DOC, left_maps=[{"0": 0, 1: 0, "1": 0}])
        with pytest.raises(InputError, match="vertex 1 is mapped twice"):
            parse_space(doc)

    @pytest.mark.parametrize("key", [1.7, True])
    def test_non_integer_vertex_key(self, key):
        # int() would read 1.7 and True as vertex 1, a valid table here
        for maps in ("left_maps", "right_maps"):
            doc = dict(CIRCLE_DOC, **{maps: [{0: 0, key: 0}]})
            with pytest.raises(InputError, match="bad vertex id"):
                parse_space(doc)

    def test_map_names_vertex_outside_gap_fiber(self):
        # the gap fiber has vertices 0 and 1 only; vertex 7 would be dropped
        for maps in ("left_maps", "right_maps"):
            doc = dict(CIRCLE_DOC, **{maps: [{"0": 0, "1": 0, "7": 0}]})
            with pytest.raises(InputError, match=f"gap 0: {maps[:-5]} map names vertex 7, "
                               "which is not in the gap fiber"):
                parse_space(doc)

    def test_map_outside_target(self):
        doc = dict(CIRCLE_DOC, right_maps=[{"0": 7, "1": 0}])
        with pytest.raises(InputError, match="not a simplex"):
            parse_space(doc)

    def test_faces_closed_on_load(self):
        doc = dict(CIRCLE_DOC,
                   vertex_complexes=[[[0, 1]], [[0]]],
                   left_maps=[{"0": 0, "1": 0}])
        X, _ = parse_space(doc)
        assert X.vertex_complexes[0].has_simplex((0,))
        assert X.vertex_complexes[0].has_simplex((1,))


class TestDiagramDocument:
    def entries(self):
        cc = DecoratedDiagram()
        cc.add(bar(0.0, 1.0, BehaviorType.CLOSED_CLOSED))
        oo = DecoratedDiagram()
        oo.add(bar(0.0, math.inf, BehaviorType.OPEN_OPEN), 2)
        return diagram_entries({0: {BehaviorType.CLOSED_CLOSED: cc,
                                    BehaviorType.OPEN_OPEN: oo}})

    def test_sorted_and_formatted(self):
        entries = self.entries()
        assert entries == [
            {"dim": 0, "type": "cc", "birth": 0, "death": 1, "multiplicity": 1},
            {"dim": 0, "type": "oo", "birth": 0, "death": "inf", "multiplicity": 2},
        ]

    def test_round_trip(self):
        entries = self.entries()
        assert parse_diagram(json.loads(dump_diagram(entries))) == entries

    def test_entry_multiset(self):
        entries = self.entries()
        ms = entry_multiset(entries, 0, BehaviorType.OPEN_OPEN)
        assert ms == {(0.0, math.inf): 2}
        assert entry_multiset(entries, 3, BehaviorType.OPEN_OPEN) == {}

    def test_rejects_bad_type_code(self):
        with pytest.raises(InputError, match="type code"):
            parse_diagram([{"dim": 0, "type": "xx", "birth": 0, "death": 1,
                            "multiplicity": 1}])

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(InputError, match="multiplicity"):
            parse_diagram([{"dim": 0, "type": "cc", "birth": 0, "death": 1,
                            "multiplicity": 0}])

    def test_rejects_missing_key(self):
        with pytest.raises(InputError, match="expected keys"):
            parse_diagram([{"dim": 0, "type": "cc", "birth": 0, "death": 1}])

    def test_rejects_open_diagonal_point(self):
        with pytest.raises(InputError):
            parse_diagram([{"dim": 0, "type": "oo", "birth": 1, "death": 1,
                            "multiplicity": 1}])

    def test_rejects_reversed_pair(self):
        with pytest.raises(InputError):
            parse_diagram([{"dim": 0, "type": "cc", "birth": 2, "death": 1,
                            "multiplicity": 1}])
