import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from paramhom.diagrams import (
    BehaviorType,
    DecoratedDiagram,
    DecoratedPoint,
    Decoration,
    Rectangle,
    contains,
    undecorate,
)

from oracles import (MeasureNotAdditiveError, edge_rule_contains, extract_diagram,
                     five_rule_valid)

OO = BehaviorType.OPEN_OPEN
CO = BehaviorType.CLOSED_OPEN
OC = BehaviorType.OPEN_CLOSED
CC = BehaviorType.CLOSED_CLOSED
PLUS, MINUS = Decoration.PLUS, Decoration.MINUS


def point(p, q, btype):
    pdec, qdec = btype.decorations
    return DecoratedPoint(p, pdec, q, qdec)


class TestBehaviorType:
    def test_decoration_round_trip(self):
        for t in BehaviorType:
            assert BehaviorType.from_decorations(*t.decorations) is t

    def test_closedness(self):
        assert CC.left_closed and CC.right_closed
        assert not OO.left_closed and not OO.right_closed
        assert CO.left_closed and not CO.right_closed
        assert not OC.left_closed and OC.right_closed

    def test_decorations_follow_closedness(self):
        # closed left end -> counted on the right edge of the p-interval
        assert CC.decorations == (MINUS, PLUS)
        assert OO.decorations == (PLUS, MINUS)
        assert CO.decorations == (MINUS, MINUS)
        assert OC.decorations == (PLUS, PLUS)


class TestDecoratedPoint:
    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            DecoratedPoint(2.0, PLUS, 1.0, MINUS)

    def test_infinite_ends_force_decorations(self):
        DecoratedPoint(-math.inf, PLUS, 1.0, PLUS)
        with pytest.raises(ValueError):
            DecoratedPoint(-math.inf, MINUS, 1.0, PLUS)
        DecoratedPoint(0.0, MINUS, math.inf, MINUS)
        with pytest.raises(ValueError):
            DecoratedPoint(0.0, MINUS, math.inf, PLUS)

    def test_diagonal_is_closed_closed_only(self):
        pt = DecoratedPoint(1.0, MINUS, 1.0, PLUS)
        assert pt.behavior_type is CC
        for pdec, qdec in [(PLUS, PLUS), (MINUS, MINUS), (PLUS, MINUS)]:
            with pytest.raises(ValueError):
                DecoratedPoint(1.0, pdec, 1.0, qdec)

    def test_type_property(self):
        assert point(0.0, 1.0, OO).behavior_type is OO
        assert point(0.0, 1.0, CO).behavior_type is CO


class TestRectangle:
    def test_validation(self):
        Rectangle(0.0, 1.0, 2.0, 3.0)
        Rectangle(-math.inf, 1.0, 2.0, math.inf)
        with pytest.raises(ValueError):
            Rectangle(0.0, 2.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            Rectangle(0.0, 1.0, 1.0, 3.0)  # all four inequalities are strict
        with pytest.raises(ValueError):
            Rectangle(0.0, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            Rectangle(0.0, math.inf, 2.0, 3.0)


class TestContains:
    R = Rectangle(0.0, 1.0, 2.0, 3.0)

    def test_interior_always_counts(self):
        for t in BehaviorType:
            assert contains(self.R, point(0.5, 2.5, t))

    def test_outside_never_counts(self):
        for t in BehaviorType:
            assert not contains(self.R, point(1.5, 2.5, t))
            assert not contains(self.R, point(0.5, 3.5, t))

    def test_left_edge_needs_open_left_end(self):
        assert contains(self.R, point(0.0, 2.5, OO))
        assert contains(self.R, point(0.0, 2.5, OC))
        assert not contains(self.R, point(0.0, 2.5, CC))
        assert not contains(self.R, point(0.0, 2.5, CO))

    def test_right_edge_needs_closed_left_end(self):
        assert contains(self.R, point(1.0, 2.5, CC))
        assert not contains(self.R, point(1.0, 2.5, OO))

    def test_bottom_edge_needs_closed_right_end(self):
        assert contains(self.R, point(0.5, 2.0, CC))
        assert contains(self.R, point(0.5, 2.0, OC))
        assert not contains(self.R, point(0.5, 2.0, OO))

    def test_top_edge_needs_open_right_end(self):
        assert contains(self.R, point(0.5, 3.0, OO))
        assert not contains(self.R, point(0.5, 3.0, CC))

    def test_half_open_interval_semantics(self):
        # [0.5, 2) sits in R exactly when the p-interval catches 0.5 from the
        # right and the q-interval catches 2 from above
        bar = point(0.5, 2.0, CO)
        assert not contains(Rectangle(0.0, 0.5, 2.0, 3.0), bar)
        assert not contains(Rectangle(0.5, 1.0, 1.5, 2.0), bar)
        assert contains(Rectangle(0.0, 0.5, 1.5, 2.0), bar)
        assert not contains(Rectangle(0.0, 0.5, 1.2, 1.5), bar)
        assert not contains(Rectangle(0.0, 0.5, 2.5, 3.0), bar)

    def test_diagonal_point_in_no_rectangle(self):
        pt = DecoratedPoint(1.0, MINUS, 1.0, PLUS)
        for R in (Rectangle(0.0, 1.0, 1.5, 2.0), Rectangle(0.5, 0.9, 1.0, 2.0),
                  Rectangle(-math.inf, 1.0, 1.0 + 1e-12, math.inf)):
            assert not contains(R, pt)

    def test_infinite_strip(self):
        R = Rectangle(-math.inf, 0.0, 1.0, math.inf)
        assert contains(R, point(-math.inf, math.inf, OO))
        assert contains(R, point(-math.inf, 1.0, OC))
        assert not contains(R, point(0.5, math.inf, CO))


class TestDecoratedOrder:
    """Validity and membership by the decorated order equal the rule-by-rule
    oracles on every value pair of a grid, infinities included."""

    GRID = [-math.inf, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, math.inf]
    CANDIDATES = [(p, pdec, q, qdec)
                  for p, q in itertools.product(GRID, repeat=2)
                  for pdec, qdec in itertools.product((PLUS, MINUS), repeat=2)]

    def test_validity_matches_oracle(self):
        for args in self.CANDIDATES:
            try:
                DecoratedPoint(*args)
                valid = True
            except ValueError:
                valid = False
            assert valid == five_rule_valid(*args), args

    def test_membership_matches_oracle(self):
        pts = [DecoratedPoint(*args) for args in self.CANDIDATES if five_rule_valid(*args)]
        rects = [Rectangle(*c) for c in itertools.combinations(self.GRID, 4)]
        assert len(rects) == 126
        for R in rects:
            for pt in pts:
                assert contains(R, pt) == edge_rule_contains(R, pt), (R, pt)


class TestDiagram:
    def test_multiset_semantics(self):
        D = DecoratedDiagram()
        D.add(point(0.0, 1.0, CC), 2)
        D.add(point(0.0, 1.0, CC))
        assert D.multiplicity(point(0.0, 1.0, CC)) == 3
        assert D.total() == 3

    def test_equality_ignores_zero_entries(self):
        D = DecoratedDiagram({point(0.0, 1.0, CC): 1, point(2.0, 3.0, CC): 0})
        assert D == DecoratedDiagram({point(0.0, 1.0, CC): 1})

    def test_count_in(self):
        D = DecoratedDiagram({point(0.0, 1.0, CC): 1, point(0.5, 2.5, CC): 2})
        assert D.count_in(Rectangle(-1.0, 0.6, 2.0, 3.0)) == 2
        assert D.count_in(Rectangle(-1.0, 0.9, 1.0, 3.0)) == 3

    def test_undecorate(self):
        D = DecoratedDiagram({point(0.0, 1.0, CC): 1, point(0.0, 1.0, OO): 2})
        assert undecorate(D) == Counter({(0.0, 1.0): 3})


class TestExtract:
    """extract_diagram against measures induced by known diagrams."""

    @staticmethod
    def measure_of(D: DecoratedDiagram):
        return lambda R: D.count_in(R)

    @given(st.data())
    def test_round_trip(self, data):
        vals = sorted(data.draw(st.lists(
            st.integers(min_value=-5, max_value=5).map(float),
            min_size=1, max_size=4, unique=True)))
        btype = data.draw(st.sampled_from(list(BehaviorType)))
        n = len(vals)
        endpoints = ([-math.inf] if not btype.left_closed else []) + vals
        ends = vals + ([math.inf] if not btype.right_closed else [])
        pairs = [(p, q) for p in endpoints for q in ends if p < q]
        # drop pairs no constructible feature can realise: an open end at a
        # finite value needs a gap on that side of the value
        def realisable(p, q):
            if not btype.left_closed and p == vals[-1]:
                return False
            if not btype.right_closed and q == vals[0]:
                return False
            return True
        pairs = [pq for pq in pairs if realisable(*pq)]
        if not pairs:
            return
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=4))
        D = DecoratedDiagram()
        for p, q in chosen:
            D.add(point(p, q, btype))
        assert extract_diagram(self.measure_of(D), vals, btype) == D

    def test_known_diagram(self):
        D = DecoratedDiagram({point(0.0, 1.0, CC): 1, point(0.0, 2.0, CC): 3})
        got = extract_diagram(self.measure_of(D), [0.0, 1.0, 2.0], CC)
        assert got == D

    def test_diagonal_points_invisible(self):
        D = DecoratedDiagram({DecoratedPoint(1.0, MINUS, 1.0, PLUS): 5,
                              point(0.0, 1.0, CC): 1})
        got = extract_diagram(self.measure_of(D), [0.0, 1.0], CC)
        assert got == DecoratedDiagram({point(0.0, 1.0, CC): 1})

    def test_infinite_endpoints(self):
        D = DecoratedDiagram({point(-math.inf, math.inf, OO): 1,
                              point(0.0, 1.0, OO): 2})
        got = extract_diagram(self.measure_of(D), [0.0, 1.0], OO)
        assert got == D

    def test_single_critical_value(self):
        D = DecoratedDiagram({point(-math.inf, 0.0, OC): 1})
        assert extract_diagram(self.measure_of(D), [0.0], OC) == D

    def test_non_additive_measure_raises(self):
        def bogus(R: Rectangle) -> int:
            return 1 if (R.b - R.a) > 0.2 else 0
        with pytest.raises(MeasureNotAdditiveError):
            extract_diagram(bogus, [0.0, 1.0], CC)
