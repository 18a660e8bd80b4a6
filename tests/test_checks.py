import random

from paramhom import checks, diagrams
from paramhom.checks import (
    additivity_suite,
    bound_suite,
    correspondence_suite,
    duality_suite,
    equivalence_suite,
    random_rectangle,
    restriction_suite,
    run_all,
)
from paramhom.diagrams import BehaviorType
from paramhom.measures import measure_profile

import corpus


class TestSuitesPass:
    def test_run_all_on_circle(self):
        results = run_all(corpus.circle(), random.Random(3), samples=8)
        assert [r.name for r in results] == [
            "additivity", "restriction", "equivalence",
            "duality", "bound", "correspondence",
        ]
        assert all(r.passed for r in results), results

    def test_run_all_on_w_shape(self):
        results = run_all(corpus.w_shape(), random.Random(5), samples=6)
        assert all(r.passed for r in results), results

    def test_restriction_alone(self):
        r = restriction_suite(random.Random(1), modules=40)
        assert r.passed
        assert "coarsenings" in r.detail


class TestNegativeControl:
    def test_corrupted_measure_is_caught(self, monkeypatch):
        X = corpus.circle()
        calls = {"n": 0}

        def lying(X_, k, R):
            calls["n"] += 1
            profile = measure_profile(X_, k, R)
            # misreport one type on every seventh rectangle
            if calls["n"] % 7 == 0:
                profile[BehaviorType.OPEN_CLOSED] += 1
            return profile

        monkeypatch.setattr(checks, "measure_profile", lying)
        r = additivity_suite(X, random.Random(0), samples=12)
        assert not r.passed
        assert "split" in r.detail and "Rectangle" in r.detail
        assert "type=oc" in r.detail

    def test_decoration_blind_membership_is_caught(self, monkeypatch):
        # corners on critical values, where every diagram end sits, are the
        # only rectangles on which decorations decide membership
        def blind(R, pt):
            return R.a <= pt.p <= R.b and R.c <= pt.q <= R.d

        monkeypatch.setattr(diagrams, "contains", blind)
        failed = [name for name, X in corpus.corpus().items()
                  if not equivalence_suite(X, random.Random(0), 20).passed]
        assert failed


def test_additivity_looks_up_measure_profile_when_called(monkeypatch):
    # a tracer patches module globals, so the default must not be bound early
    seen = []

    def recording(X, k, R):
        seen.append(R)
        return measure_profile(X, k, R)

    monkeypatch.setattr(checks, "measure_profile", recording)
    r = additivity_suite(corpus.circle(), random.Random(0), samples=3)
    assert r.passed
    assert len(seen) >= 3


class TestRectangleSampler:
    def test_single_critical_value(self):
        rng = random.Random(2)
        for _ in range(20):
            R = random_rectangle(rng, (0.5,))
            assert R.b < R.c
