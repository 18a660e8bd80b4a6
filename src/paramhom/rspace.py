"""Constructible R-spaces: finitely many critical values, constant in between.

A space is encoded Morse-style: a simplicial fiber V_i over each critical
value a_i, a simplicial fiber E_i over each open gap (a_i, a_{i+1}), and
vertex maps l_i: E_i -> V_i, r_i: E_i -> V_{i+1} describing how the regular
fiber collapses onto the critical ones.  Every levelset and every slice
f^{-1}[p, q] is derived from this data; slices are mapping telescopes.
The chain maps of l_i and r_i are column maps (see complexes), read by
the telescopes and by the attachment homology maps.

Slices with the same combinatorial plan (same run of pieces, same kind of
end behaviour) are isomorphic, so homology is cached per plan, not per
numeric rectangle.  Instances are treated as immutable after construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .complexes import (
    ChainComplex,
    ColumnMap,
    HomologyBasis,
    SimplicialComplex,
    chain_complex,
    homology,
    induced_chain_map,
    induced_homology_map,
    telescope,
)
from .fieldlin import PrimeField

__all__ = [
    "ConstructibleRSpace",
    "SlicePlan",
    "SliceResult",
]


def _identity(C: ChainComplex) -> ColumnMap:
    """The identity chain map of C as a column map."""
    return {k: (np.arange(C.dim(k)), np.ones(C.dim(k), dtype=np.int64))
            for k in C.degrees()}


@dataclass(frozen=True)
class SlicePlan:
    """Combinatorial shape of a slice f^{-1}[p, q].

    nodes lists the diagram in order, tagged ("V", i) for critical fibers and
    ("E", i) for gap fibers kept as free ends.  fiber_p / fiber_q name the
    piece carrying the fiber at each endpoint (None when that fiber is
    empty, i.e. the endpoint lies outside the support).
    """

    nodes: tuple[tuple[str, int], ...]
    fiber_p: tuple[str, int] | None
    fiber_q: tuple[str, int] | None


@dataclass
class SliceResult:
    """Chain model of a slice: the telescope of plan.nodes, or the one piece.

    The end fibers in plan.nodes include as coordinate blocks: the first
    node's columns come first in each degree, the last node's follow the
    dimensions of all the nodes before it.
    """

    complex: ChainComplex
    plan: SlicePlan


class ConstructibleRSpace:
    def __init__(self, critical_values: Sequence[float],
                 vertex_complexes: Sequence[SimplicialComplex],
                 edge_complexes: Sequence[SimplicialComplex],
                 left_maps: Sequence[Mapping],
                 right_maps: Sequence[Mapping],
                 field: PrimeField):
        self.critical_values = tuple(float(v) for v in critical_values)
        self.vertex_complexes = list(vertex_complexes)
        self.edge_complexes = list(edge_complexes)
        self.left_maps = [dict(m) for m in left_maps]
        self.right_maps = [dict(m) for m in right_maps]
        self.field = field
        n = len(self.critical_values)
        if n == 0:
            raise ValueError("need at least one critical value")
        if any(not (a < b) for a, b in zip(self.critical_values, self.critical_values[1:])):
            raise ValueError("critical values must be strictly increasing")
        if any(not math.isfinite(v) for v in self.critical_values):
            raise ValueError("critical values must be finite")
        if len(self.vertex_complexes) != n:
            raise ValueError("need one vertex complex per critical value")
        if len(self.edge_complexes) != n - 1:
            raise ValueError("need one edge complex per gap")
        if len(self.left_maps) != n - 1 or len(self.right_maps) != n - 1:
            raise ValueError("need one left and one right map per gap")
        self._chain: dict = {}
        self._edge_maps: dict = {}
        self._slices: dict = {}
        self._homology: dict = {}

    # -- structural validation ----------------------------------------------

    def validate(self) -> list[str]:
        """Check the attaching maps; returns [] when the model is sound."""
        problems = []
        for i, E in enumerate(self.edge_complexes):
            for side, vmap, V in (("left", self.left_maps[i], self.vertex_complexes[i]),
                                  ("right", self.right_maps[i], self.vertex_complexes[i + 1])):
                for v in E.vertices:
                    if v not in vmap:
                        problems.append(f"gap {i}: {side} map undefined on vertex {v!r}")
                for k, simps in E.simplices.items():
                    for s in simps:
                        try:
                            img = tuple(vmap[v] for v in s)
                        except KeyError:
                            continue  # reported above
                        img = tuple(sorted(set(img)))
                        if not V.has_simplex(img):
                            problems.append(
                                f"gap {i}: {side} image {img!r} of {s!r} is not a simplex")
        return problems

    # -- fibers --------------------------------------------------------------

    @property
    def n_critical(self) -> int:
        return len(self.critical_values)

    def max_piece_dimension(self) -> int:
        dims = [S.dimension for S in self.vertex_complexes]
        dims += [S.dimension for S in self.edge_complexes]
        return max(dims, default=-1)

    def _piece_key(self, t: float) -> tuple[str, int] | None:
        vals = self.critical_values
        if t < vals[0] or t > vals[-1]:
            return None
        i = bisect_left(vals, t)
        if i < len(vals) and vals[i] == t:
            return ("V", i)
        return ("E", i - 1)

    def piece(self, key: tuple[str, int] | None) -> SimplicialComplex:
        if key is None:
            return SimplicialComplex()
        kind, i = key
        return self.vertex_complexes[i] if kind == "V" else self.edge_complexes[i]

    def piece_chain(self, key: tuple[str, int] | None) -> ChainComplex:
        ck = key or ("empty", -1)
        if ck not in self._chain:
            self._chain[ck] = chain_complex(self.piece(key), self.field)
        return self._chain[ck]

    def levelset(self, t: float) -> SimplicialComplex:
        return self.piece(self._piece_key(t))

    def edge_chain_maps(self, i: int) -> tuple[ColumnMap, ColumnMap]:
        """Column maps of the induced l_i: E_i -> V_i and r_i: E_i -> V_{i+1}."""
        if i not in self._edge_maps:
            E = self.edge_complexes[i]
            CE = self.piece_chain(("E", i))
            lm = induced_chain_map(self.left_maps[i], E, self.vertex_complexes[i],
                                   CE, self.piece_chain(("V", i)))
            rm = induced_chain_map(self.right_maps[i], E, self.vertex_complexes[i + 1],
                                   CE, self.piece_chain(("V", i + 1)))
            self._edge_maps[i] = (lm, rm)
        return self._edge_maps[i]

    # -- slices ----------------------------------------------------------------

    def slice_plan(self, p: float, q: float) -> SlicePlan:
        if not p <= q:
            raise ValueError(f"need p <= q, got [{p}, {q}]")
        vals = self.critical_values
        fp, fq = self._piece_key(p), self._piece_key(q)
        if p == q:
            return SlicePlan((fp,) if fp else (), fp, fq)
        lo = bisect_left(vals, p) if p > -math.inf else 0
        hi = (bisect_right(vals, q) - 1) if q < math.inf else len(vals) - 1
        if lo > hi:
            # no critical value inside [p, q]: a single gap piece or nothing
            nodes = ((("E", hi),) if 0 <= hi < len(vals) - 1 and p > vals[0] else ())
            return SlicePlan(nodes, fp, fq)
        nodes: list[tuple[str, int]] = []
        if fp == ("E", lo - 1):
            nodes.append(fp)
        nodes.extend(("V", i) for i in range(lo, hi + 1))
        if fq == ("E", hi):
            nodes.append(fq)
        return SlicePlan(tuple(nodes), fp, fq)

    def slice(self, p: float, q: float) -> SliceResult:
        plan = self.slice_plan(p, q)
        cached = self._slices.get(plan)
        if cached is not None:
            return cached
        result = self._build_slice(plan)
        self._slices[plan] = result
        return result

    def _build_slice(self, plan: SlicePlan) -> SliceResult:
        if len(plan.nodes) <= 1:
            return SliceResult(self.piece_chain(plan.nodes[0] if plan.nodes else None), plan)
        node_chains = [self.piece_chain(k) for k in plan.nodes]
        edges = []
        for a, b in zip(plan.nodes, plan.nodes[1:]):
            if a[0] == "V" and b[0] == "V":
                if b[1] != a[1] + 1:
                    raise ValueError(f"slice plan skips from {a} to {b}")
                E = self.piece_chain(("E", a[1]))
                lm, rm = self.edge_chain_maps(a[1])
                edges.append((E, lm, rm))
            elif a[0] == "E":
                # free gap fiber kept as the left end; connects to V_{i+1}
                E = self.piece_chain(a)
                _, rm = self.edge_chain_maps(a[1])
                edges.append((E, _identity(E), rm))
            else:
                # V then free gap fiber on the right; connects via l
                E = self.piece_chain(b)
                lm, _ = self.edge_chain_maps(b[1])
                edges.append((E, lm, _identity(E)))
        return SliceResult(telescope(node_chains, edges), plan)

    # -- homology with plan-level caching ---------------------------------------

    def piece_homology(self, piece_key: tuple[str, int] | None, k: int) -> HomologyBasis:
        key = ("fiber", piece_key, k)
        if key not in self._homology:
            self._homology[key] = homology(self.piece_chain(piece_key), k)
        return self._homology[key]

    def fiber_homology(self, t: float, k: int) -> HomologyBasis:
        return self.piece_homology(self._piece_key(t), k)

    def attachment_homology_map(self, i: int, side: str, k: int) -> np.ndarray:
        """Matrix of H_k(E_i) -> H_k(V_i) ("left") or H_k(V_{i+1}) ("right")."""
        key = ("attach", i, side, k)
        if key not in self._homology:
            lm, rm = self.edge_chain_maps(i)
            src = self.piece_homology(("E", i), k)
            if side == "left":
                tgt, f = self.piece_homology(("V", i), k), lm
            elif side == "right":
                tgt, f = self.piece_homology(("V", i + 1), k), rm
            else:
                raise ValueError(f"side must be 'left' or 'right', got {side!r}")
            self._homology[key] = induced_homology_map(src, tgt, *f.get(k, ((), ())))
        return self._homology[key]

    def slice_homology(self, p: float, q: float, k: int
                       ) -> tuple[HomologyBasis, np.ndarray, np.ndarray]:
        """H_k of the slice and the two induced maps from the end fibers."""
        sl = self.slice(p, q)
        plan = sl.plan
        key = ("slice", plan, k)
        if key not in self._homology:
            h = homology(sl.complex, k)
            # an end fiber outside plan.nodes is empty and maps no column
            dims = [self.piece_chain(n).dim(k) for n in plan.nodes]
            at_p = range(dims[0]) if plan.nodes and plan.fiber_p == plan.nodes[0] else []
            off = sum(dims[:-1])
            at_q = (range(off, off + dims[-1])
                    if plan.nodes and plan.fiber_q == plan.nodes[-1] else [])
            mp = induced_homology_map(self.fiber_homology(p, k), h, at_p)
            mq = induced_homology_map(self.fiber_homology(q, k), h, at_q)
            self._homology[key] = (h, mp, mq)
        return self._homology[key]
