import math
import random

import pytest

from paramhom.diagrams import BehaviorType, DecoratedDiagram, DecoratedPoint, Rectangle
from paramhom.extended import (
    PARAMETRIZED,
    ExtendedType,
    extended_diagrams,
    extended_from_parametrized,
    extended_module,
    extended_profile,
)
from paramhom.fieldlin import PrimeField
from paramhom.measures import measure_profile
from paramhom.zigzag import FORWARD

import corpus

ORD = ExtendedType.ORDINARY
REL = ExtendedType.RELATIVE
EXT_PLUS = ExtendedType.EXT_PLUS
EXT_MINUS = ExtendedType.EXT_MINUS


def bar(p, q, btype):
    pdec, qdec = btype.decorations
    return DecoratedPoint(p, pdec, q, qdec)


def diagram(*bars):
    D = DecoratedDiagram()
    for b in bars:
        D.add(b)
    return D


class TestModuleShape:
    def test_circle_module(self):
        X = corpus.circle()
        Z = extended_module(X, 0, Rectangle(-1.0, 0.0, 1.0, 2.0))
        # the component enters at X^0 and survives until the top point of
        # the superlevel pair kills it
        assert Z.dims == [0, 1, 1, 1, 1, 0, 0, 0]
        assert all(direction == FORWARD for direction, _ in Z.arrows)

    def test_corners_inside_gaps(self):
        X = corpus.circle()
        Z0 = extended_module(X, 0, Rectangle(0.2, 0.4, 0.6, 0.8))
        assert Z0.dims == [1, 1, 1, 1, 0, 0, 0, 0]
        Z1 = extended_module(X, 1, Rectangle(0.2, 0.4, 0.6, 0.8))
        # every sublevel is an arc; the cycle only shows up relative to the
        # proper superlevel arcs
        assert Z1.dims == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_infinite_corners(self):
        X = corpus.circle()
        Z = extended_module(X, 0, Rectangle(-math.inf, 0.5, 0.7, math.inf))
        assert Z.dims[0] == 0
        assert Z.dims[7] == 0
        assert Z.dims[4] == 1


class TestGoldenValues:
    def test_circle_essential_pair(self):
        X = corpus.circle()
        assert extended_profile(X, 0, Rectangle(-1.0, 0.0, 1.0, 2.0))[EXT_PLUS] == 1

    def test_circle_rectangle_misses_birth(self):
        X = corpus.circle()
        R = Rectangle(-1.0, -0.5, 1.5, 2.0)
        assert extended_profile(X, 0, R)[EXT_PLUS] == 0

    def test_circle_essential_cycle(self):
        X = corpus.circle()
        R = Rectangle(-0.2, 0.3, 0.6, 1.4)
        profile = extended_profile(X, 1, R)
        assert profile[EXT_MINUS] == 1
        assert profile[ORD] == 0
        assert profile[REL] == 0

    def test_rectangle_beyond_support_is_empty(self):
        X = corpus.circle()
        profile = extended_profile(X, 0, Rectangle(1.5, 2.0, 2.5, 3.0))
        assert profile == {t: 0 for t in ExtendedType}

    def test_w_shape_ordinary_class(self):
        X = corpus.w_shape()
        # the short-lived component [0.2, 0.6)
        assert extended_profile(X, 0, Rectangle(0.1, 0.3, 0.5, 0.7))[ORD] == 1

    def test_w_shape_relative_class(self):
        X = corpus.w_shape()
        # the merge bar (0, 1] seen one degree up on the relative half
        assert extended_profile(X, 1, Rectangle(-0.5, 0.5, 0.8, 1.2))[REL] == 1


class TestCorrespondence:
    @pytest.mark.parametrize("name", [
        "circle", "sphere", "v_shape", "w_shape", "two_component",
        "torus", "fig4_oo", "random_0",
    ])
    def test_matches_parametrized_measures(self, name):
        X = corpus.corpus()[name]
        rng = random.Random(len(name))
        kmax = max(X.max_piece_dimension(), 0)
        for _ in range(6):
            R = corpus.random_rectangle(rng, X.critical_values)
            ext = {k: extended_profile(X, k, R) for k in range(kmax + 2)}
            for k in range(kmax + 1):
                par = measure_profile(X, k, R)
                for t, (behavior, shift) in PARAMETRIZED.items():
                    assert ext[k + shift][t] == par[behavior], (name, k, t, R)


@pytest.mark.parametrize("p", [2, 3, 33554393])
def test_snapped_corners_match_refined_space(p):
    # the module over X's own telescope, with gap corners snapped to critical
    # values, decomposes like the module over X refined at those corners
    refined = []
    for name, X in corpus.corpus(PrimeField(p)).items():
        rng = random.Random(f"{name}/{p}")
        degrees = range(max(X.max_piece_dimension(), 0) + 2)
        for _ in range(6):
            R = corpus.random_rectangle(rng, X.critical_values)
            Y = corpus.refine(X, [v for v in (R.a, R.b, R.c, R.d) if math.isfinite(v)])
            refined.append(Y is not X)
            for k in degrees:
                assert extended_profile(X, k, R) == extended_profile(Y, k, R), (name, k, R)
    assert any(refined) and not all(refined)  # corners in gaps and on critical values


class TestAdditivity:
    def test_vertical_and_horizontal_splits(self):
        rng = random.Random(23)
        X = corpus.w_shape()
        for _ in range(10):
            R = corpus.random_rectangle(rng, X.critical_values)
            for k in (0, 1):
                v = extended_profile(X, k, R)
                x = (R.a + R.b) / 2 if math.isfinite(R.a) else R.b - 0.1
                left = extended_profile(X, k, Rectangle(R.a, x, R.c, R.d))
                right = extended_profile(X, k, Rectangle(x, R.b, R.c, R.d))
                y = (R.c + R.d) / 2 if math.isfinite(R.d) else R.c + 0.1
                low = extended_profile(X, k, Rectangle(R.a, R.b, R.c, y))
                high = extended_profile(X, k, Rectangle(R.a, R.b, y, R.d))
                for t in ExtendedType:
                    assert left[t] + right[t] == v[t]
                    assert low[t] + high[t] == v[t]


class TestFromParametrized:
    def test_circle(self):
        ed = extended_diagrams(corpus.circle())
        assert ed[0][EXT_PLUS] == diagram(bar(0.0, 1.0, BehaviorType.CLOSED_CLOSED))
        assert ed[1][EXT_MINUS] == diagram(bar(0.0, 1.0, BehaviorType.OPEN_OPEN))
        for i, diags in ed.items():
            assert diags[ORD].total() == 0
            assert diags[REL].total() == 0

    def test_sphere(self):
        ed = extended_diagrams(corpus.sphere())
        assert ed[0][EXT_PLUS] == diagram(bar(0.0, 1.0, BehaviorType.CLOSED_CLOSED))
        assert ed[2][EXT_MINUS] == diagram(bar(0.0, 1.0, BehaviorType.OPEN_OPEN))
        assert ed[1][EXT_MINUS].total() == 0

    def test_empty_space(self):
        ed = extended_diagrams(corpus.empty_space())
        for diags in ed.values():
            for D in diags.values():
                assert D.total() == 0

    def test_point_keeps_diagonal_pair(self):
        ed = extended_diagrams(corpus.point())
        assert ed[0][EXT_PLUS] == diagram(bar(0.0, 0.0, BehaviorType.CLOSED_CLOSED))

    def test_w_shape(self):
        ed = extended_diagrams(corpus.w_shape())
        assert ed[0][ORD] == diagram(bar(0.2, 0.6, BehaviorType.CLOSED_OPEN))
        assert ed[0][EXT_PLUS] == diagram(bar(0.0, 1.0, BehaviorType.CLOSED_CLOSED))
        assert ed[1][REL] == diagram(bar(0.0, 1.0, BehaviorType.OPEN_CLOSED),
                                     bar(0.2, 0.6, BehaviorType.OPEN_CLOSED))
        assert ed[1][EXT_MINUS].total() == 0

    def test_dimension_bookkeeping(self):
        co = diagram(bar(0.0, 1.0, BehaviorType.CLOSED_OPEN))
        oo = diagram(bar(2.0, 3.0, BehaviorType.OPEN_OPEN))
        by_dim = {
            0: {BehaviorType.CLOSED_OPEN: co},
            1: {BehaviorType.OPEN_OPEN: oo},
        }
        out = extended_from_parametrized(by_dim)
        assert out[0][ORD] == co
        assert out[2][EXT_MINUS] == oo
        assert out[1][ORD].total() == 0
        assert set(out) == {0, 1, 2}
