import math

import pytest

from paramhom.diagrams import BehaviorType, DecoratedDiagram, DecoratedPoint, Decoration
from paramhom.levelset import all_diagrams, levelset_zigzag, translate
from paramhom.zigzag import FORWARD, BACKWARD, decompose

import corpus
from oracles import brute_decompose

OO = BehaviorType.OPEN_OPEN
CO = BehaviorType.CLOSED_OPEN
OC = BehaviorType.OPEN_CLOSED
CC = BehaviorType.CLOSED_CLOSED


def dgm(btype, *bars):
    D = DecoratedDiagram()
    pdec, qdec = btype.decorations
    for p, q in bars:
        D.add(DecoratedPoint(p, pdec, q, qdec))
    return D


def empty():
    return DecoratedDiagram()


class TestModuleShape:
    def test_circle_h0(self):
        Z = levelset_zigzag(corpus.circle(), 0)
        assert Z.dims == [0, 1, 2, 1, 0]
        assert [d for d, _ in Z.arrows] == [FORWARD, BACKWARD, FORWARD, BACKWARD]

    def test_circle_h1_is_trivial(self):
        assert levelset_zigzag(corpus.circle(), 1).dims == [0, 0, 0, 0, 0]

    def test_torus_h1(self):
        Z = levelset_zigzag(corpus.vertical_torus(), 1)
        assert Z.dims == [0, 0, 1, 2, 2, 2, 1, 0, 0]

    def test_empty_ends_always_zero(self):
        for X in corpus.corpus().values():
            for k in (0, 1):
                Z = levelset_zigzag(X, k)
                assert Z.dims[0] == 0 and Z.dims[-1] == 0


class TestTranslate:
    def test_position_rules(self):
        vals = [0.0, 1.0, 2.0]
        out = translate({(2, 6): 1}, vals)
        assert out[CC] == dgm(CC, (0.0, 2.0))
        out = translate({(3, 5): 1}, vals)
        assert out[OO] == dgm(OO, (0.0, 2.0)) and out[CC] == empty()
        out = translate({(2, 5): 1}, vals)
        assert out[CO] == dgm(CO, (0.0, 2.0))
        out = translate({(3, 6): 1}, vals)
        assert out[OC] == dgm(OC, (0.0, 2.0))

    def test_outer_gaps_open_to_infinity(self):
        vals = [0.0, 1.0]
        out = translate({(1, 5): 1}, vals)
        assert out[OO] == dgm(OO, (-math.inf, math.inf))
        out = translate({(1, 2): 1}, vals)
        assert out[OC] == dgm(OC, (-math.inf, 0.0))
        out = translate({(4, 5): 1}, vals)
        assert out[CO] == dgm(CO, (1.0, math.inf))

    def test_single_node_slice_interval_is_diagonal(self):
        out = translate({(2, 2): 1}, [0.0, 1.0])
        pt = DecoratedPoint(0.0, Decoration.MINUS, 0.0, Decoration.PLUS)
        assert out[CC] == DecoratedDiagram({pt: 1})

    def test_multiplicities_carried(self):
        out = translate({(2, 4): 3}, [0.0, 1.0])
        assert out[CC].multiplicity(DecoratedPoint(
            0.0, Decoration.MINUS, 1.0, Decoration.PLUS)) == 3

    def test_out_of_range_interval_rejected(self):
        with pytest.raises(ValueError):
            translate({(2, 8): 1}, [0.0, 1.0])


class TestGoldenDiagrams:
    """Hand-derived diagrams for the model spaces."""

    def check(self, X, k, expected):
        got = all_diagrams(X, k)
        for t in BehaviorType:
            assert got[t] == expected.get(t, empty()), (t, got[t])

    def test_circle(self):
        X = corpus.circle()
        assert decompose(levelset_zigzag(X, 0)) == {(2, 4): 1, (3, 3): 1}
        self.check(X, 0, {CC: dgm(CC, (0.0, 1.0)), OO: dgm(OO, (0.0, 1.0))})
        self.check(X, 1, {})

    def test_sphere(self):
        X = corpus.sphere()
        self.check(X, 0, {CC: dgm(CC, (0.0, 1.0))})
        # the top class pairs with nothing fiberwise: one open-open bar in
        # degree 1 and nothing in degree 2
        self.check(X, 1, {OO: dgm(OO, (0.0, 1.0))})
        self.check(X, 2, {})

    def test_point(self):
        self.check(corpus.point(), 0, {CC: dgm(CC, (0.0, 0.0))})

    def test_segment(self):
        self.check(corpus.segment(), 0, {CC: dgm(CC, (0.0, 1.0))})

    def test_v_shape(self):
        self.check(corpus.v_shape(), 0,
                   {CC: dgm(CC, (0.0, 1.0)), OC: dgm(OC, (0.0, 1.0))})

    def test_w_shape(self):
        X = corpus.w_shape()
        assert decompose(levelset_zigzag(X, 0)) == {
            (2, 8): 1, (3, 8): 1, (4, 5): 1, (5, 6): 1}
        self.check(X, 0, {CC: dgm(CC, (0.0, 1.0)),
                          OC: dgm(OC, (0.0, 1.0), (0.2, 0.6)),
                          CO: dgm(CO, (0.2, 0.6))})

    def test_two_component(self):
        self.check(corpus.two_component(), 0,
                   {CC: dgm(CC, (0.0, 3.0), (1.0, 2.0))})

    def test_cylinder(self):
        X = corpus.cylinder()
        self.check(X, 0, {CC: dgm(CC, (0.0, 1.0))})
        self.check(X, 1, {CC: dgm(CC, (0.0, 1.0))})

    def test_torus(self):
        X = corpus.vertical_torus()
        # between the two saddle levels the fiber has two components
        self.check(X, 0, {CC: dgm(CC, (0.0, 3.0)), OO: dgm(OO, (1.0, 2.0))})
        self.check(X, 1, {OO: dgm(OO, (0.0, 3.0)), CC: dgm(CC, (1.0, 2.0))})
        self.check(X, 2, {})

    def test_fig4_spaces(self):
        ambient = (0.0, 3.0)
        bubble = (0.5, 2.5)
        for kind, btype in (("oo", OO), ("co", CO), ("oc", OC), ("cc", CC)):
            X = corpus.fig4_space(kind)
            expected = {CC: dgm(CC, ambient)}
            expected[btype] = dgm(btype, *(
                [bubble] if btype is not CC else [ambient, bubble]))
            self.check(X, 0, expected)


class TestAgainstBruteForce:
    def test_corpus_decompositions(self):
        for name, X in corpus.corpus().items():
            for k in range(X.max_piece_dimension() + 1):
                Z = levelset_zigzag(X, k)
                if Z.n <= 9 and sum(Z.dims) <= 14:
                    assert decompose(Z) == brute_decompose(Z), (name, k)
