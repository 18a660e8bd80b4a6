from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from paramhom.extended import extended_module
from paramhom.fieldlin import PrimeField
from paramhom.levelset import levelset_zigzag
from paramhom.measures import rectangle_module
from paramhom.zigzag import (
    DecompositionError,
    ZigzagModule,
    coarsen,
    decompose,
    dualize,
)

import corpus
import oracles
from oracles import limit_colimit_rank, multiplicity, rank_table

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
PRIMES = (2, 3, 33554393)


def circle_h0_module(field=F2):
    # levelset zigzag of the circle in H_0: dims (0,1,2,1,0), fibers map
    # into slices; both regular-fiber points collapse to each extremum slice
    one_one = np.array([[1, 1]], dtype=np.int64)
    return ZigzagModule(field, [0, 1, 2, 1, 0], [
        ("f", np.zeros((1, 0), dtype=np.int64)),
        ("b", one_one),
        ("f", one_one),
        ("b", np.zeros((1, 0), dtype=np.int64)),
    ])


def test_shape_validation():
    with pytest.raises(ValueError):
        ZigzagModule(F2, [1, 1], [])
    with pytest.raises(ValueError):
        ZigzagModule(F2, [1, 2], [("f", np.zeros((1, 1), dtype=np.int64))])
    with pytest.raises(ValueError):
        ZigzagModule(F2, [1, 1], [("x", np.zeros((1, 1), dtype=np.int64))])


def test_circle_module_golden_values():
    Z = circle_h0_module()
    assert limit_colimit_rank(Z, 2, 4) == 1
    assert limit_colimit_rank(Z, 3, 3) == 2
    assert limit_colimit_rank(Z, 2, 3) == 1
    assert limit_colimit_rank(Z, 1, 5) == 0
    assert decompose(Z) == {(2, 4): 1, (3, 3): 1}
    assert multiplicity(Z, 2, 4) == 1
    assert multiplicity(Z, 3, 3) == 1
    assert multiplicity(Z, 2, 2) == 0


def test_interval_module_ranks():
    # a single interval I[2,3] inside 4 nodes, arrows f b f
    Z = ZigzagModule(F3, [0, 1, 1, 0], [
        ("f", np.zeros((1, 0), dtype=np.int64)),
        ("b", np.array([[1]], dtype=np.int64)),
        ("f", np.zeros((0, 1), dtype=np.int64)),
    ])
    for p in range(1, 5):
        for q in range(p, 5):
            want = 1 if 2 <= p and q <= 3 else 0
            assert limit_colimit_rank(Z, p, q) == want
    assert decompose(Z) == {(2, 3): 1}


def test_out_of_range_interval():
    Z = circle_h0_module()
    with pytest.raises(ValueError):
        limit_colimit_rank(Z, 0, 3)
    with pytest.raises(ValueError):
        limit_colimit_rank(Z, 3, 2)
    with pytest.raises(ValueError):
        multiplicity(Z, 1, 9)


def test_rank_table_matches_direct_construction():
    rng = random.Random(101)
    for _ in range(60):
        field = PrimeField(rng.choice([2, 3, 5]))
        Z = oracles.random_zigzag(rng, field, max_len=6, max_dim=4)
        table = rank_table(Z)
        for p in range(1, Z.n + 1):
            for q in range(p, Z.n + 1):
                assert table[(p, q)] == limit_colimit_rank(Z, p, q), (Z, p, q)


def test_decompose_matches_brute_force():
    rng = random.Random(202)
    for _ in range(40):
        field = PrimeField(rng.choice([2, 3, 5]))
        Z = oracles.random_zigzag(rng, field, max_len=5, max_dim=3)
        assert decompose(Z) == oracles.brute_decompose(Z)


def test_decompose_recovers_planted_intervals():
    rng = random.Random(303)
    for _ in range(60):
        field = PrimeField(rng.choice([2, 3, 5]))
        Z, want = oracles.planted_zigzag(rng, field)
        assert decompose(Z) == want


def test_decompose_node_sums():
    rng = random.Random(404)
    for _ in range(40):
        Z = oracles.random_zigzag(rng, F2, max_len=7, max_dim=4)
        mults = decompose(Z)
        for i in range(1, Z.n + 1):
            total = sum(m for (p, q), m in mults.items() if p <= i <= q)
            assert total == Z.dims[i - 1]


def _pushforward(mults: dict, k: int) -> dict:
    out: Counter = Counter()
    for (a, b), m in mults.items():
        if a == b == k:
            continue  # supported only on the dropped node
        lo = a + 1 if a == k else a
        hi = b - 1 if b == k else b
        out[(lo - (lo > k), hi - (hi > k))] += m
    return {k_: v for k_, v in out.items() if v}


def test_coarsen_restriction_principle():
    rng = random.Random(505)
    checked = 0
    for _ in range(80):
        field = PrimeField(rng.choice([2, 3, 5]))
        Z = oracles.random_zigzag(rng, field, max_len=6, max_dim=4)
        mults = decompose(Z)
        for k in range(2, Z.n):
            if Z.arrows[k - 2][0] != Z.arrows[k - 1][0]:
                continue
            got = decompose(coarsen(Z, k))
            assert got == _pushforward(mults, k), (Z, k)
            checked += 1
    assert checked > 30


def test_coarsen_legality():
    Z = circle_h0_module()  # pattern f b f b: no two consecutive arrows agree
    for k in (2, 3, 4):
        with pytest.raises(ValueError):
            coarsen(Z, k)
    with pytest.raises(ValueError):
        coarsen(Z, 1)
    Zf = ZigzagModule(F2, [1, 1, 1], [("f", [[1]]), ("f", [[1]])])
    Zc = coarsen(Zf, 2)
    assert Zc.dims == [1, 1]
    assert decompose(Zc) == {(1, 2): 1}


def test_dualize_preserves_decomposition():
    rng = random.Random(606)
    for _ in range(40):
        field = PrimeField(rng.choice([2, 3, 5]))
        Z = oracles.random_zigzag(rng, field, max_len=6, max_dim=4)
        D = dualize(Z)
        assert [d for d, _ in D.arrows] == [
            {"f": "b", "b": "f"}[d] for d, _ in Z.arrows]
        assert decompose(D) == decompose(Z)


@pytest.mark.parametrize("p", PRIMES)
def test_decompose_matches_rank_table_on_random_modules(p):
    field = PrimeField(p)
    rng = random.Random(f"random/{p}")
    for _ in range(24):
        Z = oracles.random_zigzag(rng, field, max_len=40, max_dim=10)
        assert decompose(Z) == oracles.rank_table_decompose(Z), Z
    for _ in range(40):
        Z = oracles.random_zigzag(rng, field, max_len=12, max_dim=3)
        assert decompose(Z) == oracles.rank_table_decompose(Z), Z
    for _ in range(30):
        Z, want = oracles.planted_zigzag(rng, field, max_len=20, max_bars=15)
        assert decompose(Z) == oracles.rank_table_decompose(Z) == want, Z


@pytest.mark.parametrize("p", PRIMES)
def test_decompose_matches_rank_table_on_corpus_modules(p):
    field = PrimeField(p)
    rng = random.Random(f"corpus/{p}")
    for name, X in corpus.corpus(field).items():
        degrees = range(max(X.max_piece_dimension(), 0) + 1)
        modules = [levelset_zigzag(X, k) for k in degrees]
        modules += [dualize(Z) for Z in modules]
        for _ in range(4):
            R = corpus.random_rectangle(rng, X.critical_values)
            modules += [rectangle_module(X, k, R) for k in degrees]
            modules += [extended_module(X, k, R) for k in degrees]
        for Z in modules:
            assert decompose(Z) == oracles.rank_table_decompose(Z), (name, Z)


def test_decompose_is_one_pass(monkeypatch):
    """At most two rref calls per arrow: a quadratic sweep cannot pass."""
    rng = random.Random(808)
    modules = [oracles.random_zigzag(rng, PrimeField(rng.choice(PRIMES)),
                                     max_len=40, max_dim=10) for _ in range(20)]
    tube = levelset_zigzag(corpus.tube_space(200, 5), 1)
    assert tube.n == 401
    modules.append(tube)
    calls = []
    rref = PrimeField.rref

    def counted(self, M):
        calls.append(1)
        return rref(self, M)

    monkeypatch.setattr(PrimeField, "rref", counted)
    for Z in modules:
        calls.clear()
        decompose(Z)
        assert len(calls) <= 2 * (Z.n - 1), (Z, len(calls))
