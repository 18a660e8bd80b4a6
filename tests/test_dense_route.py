"""Homology maps of column maps against the dense route.

The library computes each homology group in the coordinates of its cycle
basis and every chain map (the attaching maps l_i and r_i, slice end-fiber
inclusions, the seven extended-module arrows) as a column map.  Here the
same matrices are rebuilt the dense way: homology through an inverted basis
extension, l_i and r_i straight from the vertex tables and coordinate maps
as 0/1 blocks, each a commutation-checked dense chain map, multiplied out.
The arrows of the levelset zigzag, the rectangle modules and the extended
modules must come out byte for byte the same, on every corpus space and a
few more random ones, in three characteristics.
"""

import math
import random

import numpy as np
import pytest

from paramhom.complexes import quotient_complex, subcomplex
from paramhom.extended import (_sublevel_columns, _superlevel_columns, _whole_telescope,
                               extended_module)
from paramhom.fieldlin import PrimeField
from paramhom.levelset import levelset_zigzag
from paramhom.measures import rectangle_module

import corpus
from oracles import (ChainMap, dense_coordinate_map, dense_homology, dense_homology_map,
                     dense_simplicial_map)

PRIMES = (2, 3, 33554393)


def _spaces(field) -> dict:
    """The corpus plus four larger random spaces."""
    spaces = corpus.corpus(field)
    rng = random.Random(20261018)
    for i in range(4):
        spaces[f"extra_{i}"] = corpus.random_space(rng, field, max_gap_vertices=6,
                                                   extra_edges=4)
    return spaces


CASES = [(p, name) for p in PRIMES for name in _spaces(PrimeField(2))]


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def _end_inclusion(X, sl, fiber, end: int) -> ChainMap:
    """Dense inclusion of an end fiber into a slice, located by its labels."""
    F, C, nodes = X.piece_chain(fiber), sl.complex, sl.plan.nodes
    if not nodes or fiber != nodes[end]:
        return ChainMap(F, C, {})
    tag = (lambda x: x) if len(nodes) == 1 else (lambda x: ("v", end % len(nodes), x))
    kept = {k: [C.labels[k].index(tag(x)) for x in F.labels[k]] for k in F.degrees()}
    return dense_coordinate_map(C, F, kept, C, {k: range(C.dim(k)) for k in C.degrees()})


def _dense_slice(X, p, q, k, cache):
    sl = X.slice(p, q)
    key = (sl.plan, k)
    if key not in cache:
        h = dense_homology(sl.complex, k)
        ends = []
        for fiber, end in ((sl.plan.fiber_p, 0), (sl.plan.fiber_q, -1)):
            f = _end_inclusion(X, sl, fiber, end)
            ends.append(dense_homology_map(f, dense_homology(f.src, k), h))
        cache[key] = (h, *ends)
    return cache[key]


def _dense_levelset_arrows(X, k) -> list:
    n = X.n_critical
    V = [X.piece_chain(("V", i)) for i in range(n)]
    E = [X.piece_chain(("E", i)) for i in range(n - 1)]
    gaps = [dense_homology(C, k) for C in E]
    arrows = []
    for i in range(n):
        h = dense_homology(V[i], k)
        none = np.zeros((h.rank, 0), dtype=np.int64)
        arrows.append(none if i == 0 else dense_homology_map(
            dense_simplicial_map(X.right_maps[i - 1], E[i - 1], V[i]), gaps[i - 1], h))
        arrows.append(none if i == n - 1 else dense_homology_map(
            dense_simplicial_map(X.left_maps[i], E[i], V[i]), gaps[i], h))
    return arrows


def _dense_extended_arrows(X, k, R) -> list:
    corners = (R.a, R.b, R.c, R.d)
    full = _whole_telescope(X)
    pieces = ([subcomplex(full, _sublevel_columns(X, full, t)) for t in corners]
              + [quotient_complex(full, _superlevel_columns(X, full, t))
                 for t in reversed(corners)])
    bases = [dense_homology(C, k) for C, _ in pieces]
    return [dense_homology_map(dense_coordinate_map(full, *src, *tgt), hs, ht)
            for src, tgt, hs, ht in zip(pieces, pieces[1:], bases, bases[1:])]


def _probe_points(vals) -> list[float]:
    mids = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
    return sorted(set(vals) | set(mids) | {vals[0] - 1, vals[-1] + 1, -math.inf, math.inf})


@pytest.mark.parametrize("p,name", CASES)
def test_index_maps_match_dense_route(p, name):
    X = _spaces(PrimeField(p))[name]
    degrees = range(max(X.max_piece_dimension(), 0) + 2)
    cache: dict = {}
    pts = _probe_points(X.critical_values)
    for k in degrees:
        zz = levelset_zigzag(X, k)
        want = _dense_levelset_arrows(X, k)
        assert len(zz.arrows) == len(want)
        for (_, got), m in zip(zz.arrows, want):
            _assert_same(got, m)
        # every slice shape: the end maps of slice_homology
        for i, lo in enumerate(pts):
            for hi in pts[i:]:
                h, mp, mq = X.slice_homology(lo, hi, k)
                hd, dp, dq = _dense_slice(X, lo, hi, k, cache)
                _assert_same(h.representatives, hd.representatives)
                _assert_same(mp, dp)
                _assert_same(mq, dq)
    rng = random.Random(f"{name}/{p}")
    for _ in range(4):
        R = corpus.random_rectangle(rng, X.critical_values)
        for k in degrees:
            rect = rectangle_module(X, k, R)
            want = [m for s in ((R.a, R.b), (R.b, R.c), (R.c, R.d))
                    for m in _dense_slice(X, *s, k, cache)[1:]]
            assert len(rect.arrows) == len(want)
            for (_, got), m in zip(rect.arrows, want):
                _assert_same(got, m)
            ext = extended_module(X, k, R)
            want = _dense_extended_arrows(X, k, R)
            assert len(ext.arrows) == len(want) == 7
            for (_, got), m in zip(ext.arrows, want):
                _assert_same(got, m)
