import math
import random

import pytest

from paramhom.diagrams import BehaviorType, DecoratedDiagram, DecoratedPoint, Rectangle
from paramhom.levelset import all_diagrams
from paramhom.measures import (
    full_bar_count,
    measure_profile,
    rectangle_module,
)

import corpus
from corpus import coordinate_reverse, reverse_rectangle
from oracles import extract_diagram

OO = BehaviorType.OPEN_OPEN
CO = BehaviorType.CLOSED_OPEN
OC = BehaviorType.OPEN_CLOSED
CC = BehaviorType.CLOSED_CLOSED


def bar(p, q, btype):
    pdec, qdec = btype.decorations
    return DecoratedPoint(p, pdec, q, qdec)


def measured_diagram(X, k, t):
    return extract_diagram(lambda R: measure_profile(X, k, R)[t], X.critical_values, t)


class TestRectangleModule:
    def test_circle_shape(self):
        X = corpus.circle()
        Z = rectangle_module(X, 0, Rectangle(-1.0, 0.0, 1.0, 2.0))
        assert Z.dims == [0, 1, 1, 1, 1, 1, 0]

    def test_far_away_rectangle_is_empty(self):
        X = corpus.circle()
        Z = rectangle_module(X, 0, Rectangle(5.0, 6.0, 7.0, 8.0))
        assert Z.dims == [0] * 7


class TestGoldenMeasures:
    def test_circle_component_bar(self):
        X = corpus.circle()
        R = Rectangle(-1.0, 0.0, 1.0, 2.0)
        assert measure_profile(X, 0, R) == {OO: 0, CO: 0, OC: 0, CC: 1}

    def test_circle_rectangle_missing_the_bar(self):
        # [0,1] starts at 0, so a p-interval ending at -0.5 sees nothing
        X = corpus.circle()
        R = Rectangle(-1.0, -0.5, 1.5, 2.0)
        assert measure_profile(X, 0, R) == {OO: 0, CO: 0, OC: 0, CC: 0}

    def test_circle_open_open_bar(self):
        X = corpus.circle()
        R = Rectangle(-0.2, 0.3, 0.6, 1.4)
        # both endpoints of both bars are interior to R, so each type counts
        profile = measure_profile(X, 0, R)
        assert profile[OO] == 1
        assert profile[CC] == 1
        assert profile[CO] == 0

    def test_rectangle_left_of_everything(self):
        X = corpus.circle()
        R = Rectangle(-9.0, -8.0, -7.0, -6.0)
        assert all(v == 0 for v in measure_profile(X, 0, R).values())

    def test_fig4_each_type_detected_once(self):
        R = Rectangle(0.0, 1.0, 2.0, 3.0)
        for kind, btype in (("oo", OO), ("co", CO), ("oc", OC), ("cc", CC)):
            X = corpus.fig4_space(kind)
            profile = measure_profile(X, 0, R)
            assert profile == {t: int(t is btype) for t in BehaviorType}, kind

    def test_sphere_h2_invisible(self):
        # fibers are at most 1-dimensional, so no rectangle sees the top class
        X = corpus.sphere()
        for R in (Rectangle(-1.0, 0.5, 0.7, 2.0), Rectangle(-1.0, 0.0, 1.0, 2.0),
                  Rectangle(-math.inf, 0.4, 0.6, math.inf)):
            assert all(v == 0 for v in measure_profile(X, 2, R).values())

    def test_torus_h1_profile(self):
        X = corpus.vertical_torus()
        tube = Rectangle(0.5, 1.2, 1.8, 2.5)
        assert measure_profile(X, 1, tube) == {OO: 0, CO: 0, OC: 0, CC: 1}
        wide = Rectangle(-0.5, 0.5, 2.5, 3.5)
        assert measure_profile(X, 1, wide) == {OO: 1, CO: 0, OC: 0, CC: 0}

    def test_count_in_examples(self):
        D = DecoratedDiagram({bar(0.0, 1.0, CC): 1})
        assert D.count_in(Rectangle(-1.0, 0.0, 1.0, 2.0)) == 1
        assert D.count_in(Rectangle(-1.0, -0.5, 1.0, 2.0)) == 0
        assert DecoratedDiagram().count_in(Rectangle(0.0, 1.0, 2.0, 3.0)) == 0


class TestExtractedDiagrams:
    def test_circle(self):
        X = corpus.circle()
        assert measured_diagram(X, 0, CC) == DecoratedDiagram({bar(0.0, 1.0, CC): 1})
        assert measured_diagram(X, 0, OO) == DecoratedDiagram({bar(0.0, 1.0, OO): 1})

    def test_two_component(self):
        X = corpus.two_component()
        want = DecoratedDiagram({bar(0.0, 3.0, CC): 1, bar(1.0, 2.0, CC): 1})
        assert measured_diagram(X, 0, CC) == want

    def test_pipelines_agree_on_corpus(self):
        for name, X in corpus.corpus().items():
            for k in range(X.max_piece_dimension() + 1):
                translated = all_diagrams(X, k)
                for t in BehaviorType:
                    extracted = measured_diagram(X, k, t)
                    off_diagonal = DecoratedDiagram(
                        {pt: m for pt, m in translated[t].points() if pt.p < pt.q})
                    assert extracted == off_diagonal, (name, k, t)


class TestEquivalence:
    SPACES = ("circle", "sphere", "v_shape", "w_shape", "torus",
              "fig4_oo", "two_component", "random_0")

    def test_direct_equals_diagram_count(self):
        rng = random.Random(7)
        all_spaces = corpus.corpus()
        for name in self.SPACES:
            X = all_spaces[name]
            diagrams = {k: all_diagrams(X, k)
                        for k in range(X.max_piece_dimension() + 1)}
            for _ in range(15):
                R = corpus.random_rectangle(rng, X.critical_values)
                for k, by_type in diagrams.items():
                    profile = measure_profile(X, k, R)
                    for t in BehaviorType:
                        assert profile[t] == by_type[t].count_in(R), \
                            (name, k, t, R)


class TestMeasureAxioms:
    def test_additivity_vertical_and_horizontal(self):
        rng = random.Random(11)
        X = corpus.w_shape()
        for _ in range(25):
            R = corpus.random_rectangle(rng, X.critical_values)
            v = measure_profile(X, 0, R)
            x = (R.a + R.b) / 2 if math.isfinite(R.a) else R.b - 0.1
            left = measure_profile(X, 0, Rectangle(R.a, x, R.c, R.d))
            right = measure_profile(X, 0, Rectangle(x, R.b, R.c, R.d))
            y = (R.c + R.d) / 2 if math.isfinite(R.d) else R.c + 0.1
            low = measure_profile(X, 0, Rectangle(R.a, R.b, R.c, y))
            high = measure_profile(X, 0, Rectangle(R.a, R.b, y, R.d))
            for t in BehaviorType:
                assert left[t] + right[t] == v[t]
                assert low[t] + high[t] == v[t]

    def test_monotone_under_inclusion(self):
        X = corpus.vertical_torus()
        small = Rectangle(0.5, 1.2, 1.8, 2.5)
        big = Rectangle(-math.inf, 1.4, 1.6, math.inf)
        for k in (0, 1):
            ps, pb = measure_profile(X, k, small), measure_profile(X, k, big)
            for t in BehaviorType:
                assert ps[t] <= pb[t]

    def test_sum_bounded_by_full_bar_count(self):
        rng = random.Random(13)
        for name in ("circle", "w_shape", "torus", "fig4_co", "random_1"):
            X = corpus.corpus()[name]
            for _ in range(10):
                R = corpus.random_rectangle(rng, X.critical_values)
                for k in range(X.max_piece_dimension() + 1):
                    total = sum(measure_profile(X, k, R).values())
                    assert total <= full_bar_count(X, k, R.b, R.c), (name, k, R)


class TestCoordinateReversal:
    def test_reverse_rectangle(self):
        R = Rectangle(-math.inf, 0.0, 1.0, 2.0)
        assert reverse_rectangle(R) == Rectangle(-2.0, -1.0, 0.0, math.inf)

    def test_reversed_circle_values(self):
        X = coordinate_reverse(corpus.circle())
        assert X.critical_values == (-1.0, 0.0)
        assert X.validate() == []

    def test_double_reverse_is_identity_on_measures(self):
        X = corpus.w_shape()
        XX = coordinate_reverse(coordinate_reverse(X))
        R = Rectangle(0.1, 0.3, 0.5, 0.9)
        assert measure_profile(X, 0, R) == measure_profile(XX, 0, R)

    def test_reversal_identities(self):
        rng = random.Random(17)
        for name in ("circle", "v_shape", "w_shape", "fig4_co", "torus"):
            X = corpus.corpus()[name]
            Xr = coordinate_reverse(X)
            assert Xr.validate() == []
            for _ in range(8):
                R = corpus.random_rectangle(rng, X.critical_values)
                Rr = reverse_rectangle(R)
                for k in range(X.max_piece_dimension() + 1):
                    p, pr = measure_profile(X, k, R), measure_profile(Xr, k, Rr)
                    assert pr[OO] == p[OO], (name, k)
                    assert pr[CC] == p[CC], (name, k)
                    assert pr[OC] == p[CO], (name, k)
                    assert pr[CO] == p[OC], (name, k)
