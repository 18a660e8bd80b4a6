import math
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from paramhom.bottleneck import (
    bottleneck_distance,
    diagonal_distance,
    dinf,
    stability_report,
)
from paramhom.diagrams import BehaviorType
from paramhom.fieldlin import PrimeField

import corpus
from corpus import with_critical_values
from oracles import brute_bottleneck, slot_bottleneck

INF = math.inf


class TestGroundMetric:
    def test_dinf_equal_infinities_cost_nothing(self):
        assert dinf((-INF, 3.0), (-INF, 5.0)) == 2.0
        assert dinf((0.0, INF), (1.0, INF)) == 1.0

    def test_dinf_finite(self):
        assert dinf((0.0, 1.0), (0.0, 1.0)) == 0.0
        assert dinf((0.0, 4.0), (1.0, 2.0)) == 2.0

    def test_dinf_mismatched_infinity(self):
        assert dinf((-INF, 3.0), (0.0, 3.0)) == INF
        assert dinf((0.0, INF), (0.0, 3.0)) == INF

    def test_diagonal_distance(self):
        assert diagonal_distance((0.0, 2.0)) == 1.0
        assert diagonal_distance((3.0, 3.0)) == 0.0
        assert diagonal_distance((-INF, 5.0)) == INF
        assert diagonal_distance((5.0, INF)) == INF


class TestBottleneck:
    def test_identical_diagrams(self):
        A = Counter({(0.0, 1.0): 2, (-INF, 3.0): 1})
        assert bottleneck_distance(A, A) == 0.0

    def test_single_point_versus_empty(self):
        assert bottleneck_distance(Counter({(0.0, 2.0): 1}), Counter()) == 1.0

    def test_matching_beats_diagonal(self):
        A, B = Counter({(0.0, 1.0): 1}), Counter({(0.5, 1.5): 1})
        assert bottleneck_distance(A, B) == 0.5

    def test_both_empty(self):
        assert bottleneck_distance(Counter(), Counter()) == 0.0

    def test_unmatchable_infinite_bar(self):
        assert bottleneck_distance(Counter({(-INF, 0.0): 1}), Counter()) == INF

    def test_matched_infinite_bars(self):
        A = Counter({(-INF, 0.0): 1})
        B = Counter({(-INF, 0.3): 1})
        assert bottleneck_distance(A, B) == 0.3

    def test_multiplicity_excess_goes_to_diagonal(self):
        A = Counter({(0.0, 2.0): 2})
        B = Counter({(0.0, 2.0): 1})
        assert bottleneck_distance(A, B) == 1.0

    def test_crossing_pairs(self):
        # matching must pair across, not greedily
        A = Counter({(0.0, 10.0): 1, (0.0, 2.0): 1})
        B = Counter({(0.0, 9.0): 1, (0.2, 2.0): 1})
        assert bottleneck_distance(A, B) == 1.0

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(20):
            A = [(rng.randint(0, 4), rng.randint(5, 9)) for _ in range(rng.randint(0, 4))]
            B = [(rng.randint(0, 4), rng.randint(5, 9)) for _ in range(rng.randint(0, 4))]
            assert bottleneck_distance(A, B) == bottleneck_distance(B, A)

    @staticmethod
    def point_strategy():
        finite = st.integers(min_value=-4, max_value=4).map(float)
        return st.one_of(
            st.tuples(finite, finite).map(lambda pq: (min(pq), max(pq))),
            st.tuples(st.just(-INF), finite),
            st.tuples(finite, st.just(INF)),
        )

    @given(st.lists(point_strategy(), max_size=5), st.lists(point_strategy(), max_size=5))
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_brute_force(self, A, B):
        assert bottleneck_distance(A, B) == brute_bottleneck(A, B)

    def test_agrees_with_diagonal_slots(self):
        # up to 80 points a side, beyond brute force: B moves every
        # essential point and most finite points of A by half-steps of a
        # coarse grid, so costs tie and points repeat
        rng = random.Random(11)

        def moved(c: float) -> float:
            return c if math.isinf(c) else c + rng.randint(-2, 2) / 2

        def finite_point():
            return tuple(sorted((rng.randint(0, 16) / 2, rng.randint(0, 16) / 2)))

        for trial in range(40):
            A = []
            for _ in range(0 if trial % 10 == 0 else rng.randint(1, 80)):
                p, q = finite_point()
                A.append(rng.choice([(p, q), (p, q), (p, q), (-INF, q), (p, INF)]))
            B = [tuple(sorted((moved(p), moved(q)))) for p, q in A
                 if math.isinf(p) or math.isinf(q) or rng.random() < 0.8]
            B += [finite_point() for _ in range(rng.randint(0, 10))]
            if trial % 10 == 5:
                B = []
            want = slot_bottleneck(A, B)
            assert bottleneck_distance(A, B) == want, trial
            assert bottleneck_distance(Counter(B), Counter(A)) == want, trial

    def test_overflowing_span_rejected(self):
        # the distance from -1.7e308 to 1.7e308 is no float
        with pytest.raises(ValueError, match="float range"):
            bottleneck_distance([(-1.7e308, 1.7e308)], [])
        with pytest.raises(ValueError, match="float range"):
            bottleneck_distance(Counter({(-1.7e308, 0.0): 1}),
                                Counter({(1.6e308, 1.7e308): 2, (0.0, INF): 1}))
        # infinite ends do not count towards the span
        assert bottleneck_distance([(-INF, -1e308)], [(7e307, INF)]) == INF

    @pytest.mark.parametrize("bad", [(2.0, 1.0), (1.0, -INF), (INF, 0.0),
                                     (math.nan, 1.0), (0.0, math.nan)])
    def test_point_below_diagonal_or_nan_rejected(self, bad):
        with pytest.raises(ValueError, match="need p <= q"):
            bottleneck_distance([bad], [])
        with pytest.raises(ValueError, match="need p <= q"):
            bottleneck_distance([(0.0, 1.0)], Counter({bad: 1}))


def chain(n: int, length: float = 1000.0):
    """Diagrams matched at cost 1/2 only through an n-step augmenting path.

    A_i may take B_i or B_{i+1}; the extra point of A, matched last, needs
    B_0, which A_0 took first, so every A_i has to shift over by one.
    """
    A = [(i + 0.5, i + length + 0.5) for i in range(n)] + [(-0.5, length - 0.5)]
    B = [(float(i), i + length) for i in range(n + 1)]
    return A, B


class TestDeepAugmentingPath:
    def test_small_chain_agrees_with_brute_force(self):
        A, B = chain(4)
        assert bottleneck_distance(A, B) == brute_bottleneck(A, B) == 0.5

    def test_long_chain_under_a_low_recursion_limit(self):
        here = os.path.dirname(os.path.abspath(__file__))
        code = ("import sys; from test_bottleneck import chain; "
                "from paramhom.bottleneck import bottleneck_distance; "
                "sys.setrecursionlimit(200); "
                "print(bottleneck_distance(*chain(300)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(here, os.pardir, "src"), here]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.stdout.strip() == "0.5", proc.stderr


class TestStability:
    def test_identical_values(self):
        X = corpus.circle()
        report = stability_report(X, corpus.circle())
        assert all(r.passed and r.distance == 0.0 for r in report.values())

    def test_circle_perturbed(self):
        X = corpus.circle()
        Y = with_critical_values(X, [0.1, 0.9])
        report = stability_report(X, Y)
        assert report[(0, BehaviorType.CLOSED_CLOSED)].distance == pytest.approx(0.1)
        assert report[(0, BehaviorType.CLOSED_CLOSED)].delta == pytest.approx(0.1)
        assert all(r.passed for r in report.values())

    def test_torus_perturbed(self):
        X = corpus.vertical_torus()
        Y = with_critical_values(X, [0.05, 0.95, 2.1, 3.0])
        report = stability_report(X, Y)
        assert all(r.passed for r in report.values())
        assert report[(1, BehaviorType.CLOSED_CLOSED)].distance == pytest.approx(0.1)

    def test_random_perturbations(self):
        rng = random.Random(23)
        for name in ("w_shape", "two_component", "fig4_oc", "random_2"):
            X = corpus.corpus()[name]
            vals = list(X.critical_values)
            min_gap = min(b - a for a, b in zip(vals, vals[1:]))
            for _ in range(5):
                moved = [v + rng.uniform(-0.45, 0.45) * min_gap for v in vals]
                Y = with_critical_values(X, moved)
                assert all(r.passed for r in stability_report(X, Y).values()), name

    def test_mismatched_combinatorics_rejected(self):
        with pytest.raises(ValueError):
            stability_report(corpus.circle(), corpus.v_shape())

    def test_different_fields_rejected(self):
        # the circle has the same diagrams over F_2 and F_3, yet the two
        # spaces are not one space with moved values
        with pytest.raises(ValueError, match="field"):
            stability_report(corpus.circle(), corpus.circle(PrimeField(3)))

    @pytest.mark.parametrize("values", [([-1.7e308, 0.0], [1.6e308, 1.7e308]),
                                        ([0.0, 1.0], [-1.7e308, 1.7e308])])
    def test_overflowing_values_rejected(self, values):
        # the first moves a value farther than the largest float; the second
        # spreads one diagram's coordinates beyond it
        X, Y = (with_critical_values(corpus.circle(), v) for v in values)
        with pytest.raises(ValueError, match="float range"):
            stability_report(X, Y)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            stability_report(corpus.circle(), corpus.circle(), tolerance=tolerance)
