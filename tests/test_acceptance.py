"""Acceptance suite: every shipped guarantee at its advertised scale.

One test per criterion, so `pytest -v` prints one pass/fail line each.
Expected values are frozen golden constants or come from the independent
oracles in tests/oracles.py; nothing is read back from the code under test.
"""

import math
import random
import time
from collections import Counter

from paramhom.bottleneck import bottleneck_distance
from paramhom.checks import random_rectangle
from paramhom.cohomology import cohomology_diagrams
from paramhom.diagrams import BehaviorType, DecoratedPoint, Rectangle, undecorate
from paramhom.extended import ExtendedType, extended_diagrams, extended_profile
from paramhom.fieldlin import PrimeField
from paramhom.levelset import all_diagrams
from paramhom.measures import full_bar_count, measure_profile
from paramhom.zigzag import coarsen, decompose

import corpus
import oracles
from corpus import with_critical_values

OO = BehaviorType.OPEN_OPEN
CO = BehaviorType.CLOSED_OPEN
OC = BehaviorType.OPEN_CLOSED
CC = BehaviorType.CLOSED_CLOSED


def bar(p, q, btype):
    pdec, qdec = btype.decorations
    return DecoratedPoint(p, pdec, q, qdec)


def degrees(X):
    return range(max(X.max_piece_dimension(), 0) + 1)


def _expand(counter):
    return [pt for pt, m in counter.items() for _ in range(m)]


def test_criterion_01_golden_spaces():
    golden = {
        "circle": {(0, CC): {bar(0.0, 1.0, CC): 1},
                   (0, OO): {bar(0.0, 1.0, OO): 1}},
        "sphere": {(0, CC): {bar(0.0, 1.0, CC): 1},
                   (1, OO): {bar(0.0, 1.0, OO): 1}},
        "two_component": {(0, CC): {bar(0.0, 3.0, CC): 1,
                                    bar(1.0, 2.0, CC): 1}},
    }
    spaces = {"circle": corpus.circle(), "sphere": corpus.sphere(),
              "two_component": corpus.two_component()}
    for name, X in spaces.items():
        start = time.perf_counter()
        found = {}
        for k in degrees(X):
            D = all_diagrams(X, k)
            for t in BehaviorType:
                pts = dict(D[t].points())
                if pts:
                    found[(k, t)] = pts
        elapsed = time.perf_counter() - start
        assert found == golden[name], name
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


def test_criterion_02_four_bar_types():
    R = Rectangle(0.0, 1.0, 2.0, 3.0)
    for kind in ("oo", "co", "oc", "cc"):
        X = corpus.fig4_space(kind)
        profile = measure_profile(X, 0, R)
        assert profile == {t: int(t.value == kind) for t in BehaviorType}, kind


def test_criterion_03_measure_diagram_equivalence():
    spaces = corpus.corpus()
    assert len(spaces) >= 10
    rng = random.Random(3)
    start = time.perf_counter()
    for name, X in spaces.items():
        diagrams = {k: all_diagrams(X, k) for k in degrees(X)}
        for _ in range(200):
            R = random_rectangle(rng, X.critical_values)
            for k in degrees(X):
                profile = measure_profile(X, k, R)
                for t in BehaviorType:
                    assert profile[t] == diagrams[k][t].count_in(R), (name, k, t, R)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_04_additivity():
    rng = random.Random(4)
    for name, X in corpus.corpus().items():
        ks = list(degrees(X))
        for i in range(100):
            R = random_rectangle(rng, X.critical_values)
            k = ks[i % len(ks)]
            whole = measure_profile(X, k, R)
            x = (R.a + R.b) / 2 if math.isfinite(R.a) else R.b - 1.0
            left = measure_profile(X, k, Rectangle(R.a, x, R.c, R.d))
            right = measure_profile(X, k, Rectangle(x, R.b, R.c, R.d))
            y = (R.c + R.d) / 2 if math.isfinite(R.d) else R.c + 1.0
            lower = measure_profile(X, k, Rectangle(R.a, R.b, R.c, y))
            upper = measure_profile(X, k, Rectangle(R.a, R.b, y, R.d))
            for t in BehaviorType:
                assert whole[t] == left[t] + right[t], (name, k, t, R, x)
                assert whole[t] == lower[t] + upper[t], (name, k, t, R, y)


def test_criterion_05_restriction():
    rng = random.Random(5)
    field = PrimeField(2)
    checked = 0
    for _ in range(100):
        Z = oracles.random_zigzag(rng, field, max_len=8, max_dim=5)
        mults = decompose(Z)
        for k in range(2, Z.n):
            if Z.arrows[k - 2][0] != Z.arrows[k - 1][0]:
                continue
            pushed: Counter = Counter()
            for (p, q), m in mults.items():
                if p == q == k:
                    continue
                pushed[(p if p <= k else p - 1, q if q < k else q - 1)] += m
            assert decompose(coarsen(Z, k)) == {pq: m for pq, m in pushed.items() if m}, \
                (Z.dims, k)
            checked += 1
    assert checked >= 100, checked


def test_criterion_06_decomposition_oracle():
    rng = random.Random(6)
    for trial in range(100):
        field = PrimeField(rng.choice((2, 3, 5)))
        Z = oracles.random_zigzag(rng, field, max_len=6, max_dim=3)
        assert decompose(Z) == oracles.brute_decompose(Z), (trial, Z.dims)


def test_criterion_07_bar_count_bound():
    rng = random.Random(7)
    for name, X in corpus.corpus().items():
        for _ in range(100):
            R = random_rectangle(rng, X.critical_values)
            for k in degrees(X):
                profile = measure_profile(X, k, R)
                assert sum(profile.values()) <= full_bar_count(X, k, R.b, R.c), \
                    (name, k, R)


def test_criterion_08_duality():
    for name, X in corpus.corpus().items():
        for k in range(max(X.max_piece_dimension(), 0) + 2):
            assert cohomology_diagrams(X, k) == all_diagrams(X, k), (name, k)


def test_criterion_09_extended_correspondence():
    spaces = corpus.corpus()
    rng = random.Random(9)
    per_space = -(-100 // len(spaces))
    for name, X in spaces.items():
        top = max(X.max_piece_dimension(), 0)
        for _ in range(per_space):
            R = random_rectangle(rng, X.critical_values)
            ext = {j: extended_profile(X, j, R) for j in range(top + 2)}
            for i in degrees(X):
                para = measure_profile(X, i, R)
                assert ext[i][ExtendedType.ORDINARY] == para[CO], (name, i, R)
                assert ext[i + 1][ExtendedType.RELATIVE] == para[OC], (name, i, R)
                assert ext[i][ExtendedType.EXT_PLUS] == para[CC], (name, i, R)
                assert ext[i + 1][ExtendedType.EXT_MINUS] == para[OO], (name, i, R)
    ed = extended_diagrams(corpus.circle())
    assert dict(ed[0][ExtendedType.EXT_PLUS].points()) == {bar(0.0, 1.0, CC): 1}
    assert dict(ed[1][ExtendedType.EXT_MINUS].points()) == {bar(0.0, 1.0, OO): 1}


def test_criterion_10_stability():
    rng = random.Random(10)
    brute_checked = 0
    for name, X in corpus.corpus().items():
        vals = X.critical_values
        gaps = [b - a for a, b in zip(vals, vals[1:])]
        half_gap = min(gaps) / 2 if gaps else 0.5
        base = {k: {t: _expand(undecorate(all_diagrams(X, k)[t]))
                    for t in BehaviorType} for k in degrees(X)}
        for _ in range(50):
            offsets = [rng.uniform(-0.9, 0.9) * half_gap for _ in vals]
            delta = max(abs(o) for o in offsets)
            Y = with_critical_values(X, [v + o for v, o in zip(vals, offsets)])
            for k in degrees(X):
                Dy = all_diagrams(Y, k)
                for t in BehaviorType:
                    a = base[k][t]
                    b = _expand(undecorate(Dy[t]))
                    d = bottleneck_distance(a, b)
                    assert d <= delta + 1e-9, (name, k, t, d, delta)
                    if len(a) + len(b) <= 6:
                        assert d == oracles.brute_bottleneck(a, b), (name, k, t)
                        brute_checked += 1
    assert brute_checked > 0


def test_criterion_11_decoration_typing():
    for name, X in corpus.corpus().items():
        for k in degrees(X):
            D = all_diagrams(X, k)
            for t in BehaviorType:
                for pt, m in D[t].points():
                    assert m >= 1
                    assert (pt.pdec, pt.qdec) == t.decorations, (name, k, t, pt)
                    assert pt.behavior_type is t
    for X in (corpus.circle(), corpus.w_shape(), corpus.two_component()):
        for k in degrees(X):
            for t in BehaviorType:
                D = oracles.extract_diagram(lambda R: measure_profile(X, k, R)[t],
                                            X.critical_values, t)
                for pt, m in D.points():
                    assert (pt.pdec, pt.qdec) == t.decorations, (k, t, pt)
        for k, by_type in extended_diagrams(X).items():
            for et, D in by_type.items():
                for pt, m in D.points():
                    assert pt.behavior_type.value in ("oo", "co", "oc", "cc")
                    assert (pt.pdec, pt.qdec) == pt.behavior_type.decorations


def test_criterion_12_performance():
    X = corpus.tube_space()
    total = sum(c.n_simplices() for c in X.vertex_complexes)
    total += sum(c.n_simplices() for c in X.edge_complexes)
    assert total >= 2000, total
    assert X.n_critical == 20
    assert X.max_piece_dimension() == 2
    start = time.perf_counter()
    results = {k: all_diagrams(X, k) for k in (0, 1, 2)}
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    assert dict(results[0][CC].points()) == {bar(0.0, 19.0, CC): 1}
    assert sum(len(D.points()) for D in results[0].values()) == 1
    oo_bars = dict(results[1][OO].points())
    assert oo_bars == {bar(2.0 * i, 2.0 * i + 2.0, OO): 1 for i in range(9)}
    assert dict(results[1][OC].points()) == {bar(18.0, 19.0, OC): 1}
    assert all(not D.points() for D in results[2].values())
