"""Homology maps of column maps against the dense route.

The library computes each homology group in the coordinates of its cycle
basis and every chain map (the attaching maps l_i and r_i, the end-fiber
maps into slices, the seven extended-module arrows) as a column map.  Here
the same matrices are rebuilt the dense way: homology through an inverted
basis extension, l_i and r_i straight from the vertex tables and coordinate
maps as 0/1 blocks, each a commutation-checked dense chain map, multiplied
out.  Slices, sublevel and superlevel sets are picked out of the space's
telescope by the block labels of its columns.
The arrows of the levelset zigzag, the rectangle modules and the extended
modules must come out byte for byte the same, on every corpus space and a
few more random ones, in three characteristics.
"""

import math
import random

import numpy as np
import pytest

from paramhom.complexes import quotient_complex, subcomplex
from paramhom.extended import extended_module
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


def _blocks(T, keep) -> dict:
    """Per degree, the telescope columns of the blocks ("v" or "e", i) kept."""
    return {k: [j for j, (tag, i, _) in enumerate(labels) if keep(tag, i)]
            for k, labels in T.labels.items()}


def _block_inclusion(S, i, F) -> ChainMap:
    """Dense inclusion of the critical fiber F = V_i into S, found by labels."""
    kept = {k: [S.labels[k].index(("v", i, x)) for x in F.labels[k]] for k in F.degrees()}
    return dense_coordinate_map(S, F, kept, S, {k: range(S.dim(k)) for k in S.degrees()})


def _end_map(X, S, fiber, i, vmaps) -> ChainMap:
    """Dense map of an end fiber into S: into the block of V_i, through the
    vertex table vmaps[gap] when the fiber is a gap fiber."""
    F = X.piece_chain(fiber)
    if fiber is None:
        return ChainMap(F, S, {})
    V = X.piece_chain(("V", i))
    into = _block_inclusion(S, i, V)
    if fiber[0] == "V":
        return into
    f = dense_simplicial_map(vmaps[fiber[1]], F, V)
    return ChainMap(F, S, {k: X.field.matmul(into.matrix(k), f.matrix(k))
                           for k in F.degrees()})


def _dense_slice(X, p, q, k, cache):
    plan = X.slice_plan(p, q)
    key = (plan, k)
    if key not in cache:
        lo, hi, fp, fq = plan
        if lo > hi:  # inside one gap or off the support: the end fiber itself
            S = X.piece_chain(fp)
            ends = [ChainMap(S, S, {d: np.eye(S.dim(d), dtype=np.int64)
                                    for d in S.degrees()})] * 2
        else:
            S, _ = subcomplex(X.telescope(), _blocks(
                X.telescope(), lambda tag, i: lo <= i and i + (tag == "e") <= hi))
            ends = [_end_map(X, S, fp, lo, X.right_maps),
                    _end_map(X, S, fq, hi, X.left_maps)]
        h = dense_homology(S, k)
        cache[key] = (h, *(dense_homology_map(f, dense_homology(f.src, k), h)
                           for f in ends))
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
    corners, vals = (R.a, R.b, R.c, R.d), X.critical_values
    full = X.telescope()
    pieces = ([subcomplex(full, _blocks(full, lambda tag, i: vals[i + (tag == "e")] <= t))
               for t in corners]
              + [quotient_complex(full, _blocks(full, lambda tag, i: vals[i] >= t))
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
