"""Constructible R-spaces: finitely many critical values, constant in between.

A space is encoded Morse-style: a simplicial fiber V_i over each critical
value a_i, a simplicial fiber E_i over each open gap (a_i, a_{i+1}), and
vertex maps l_i: E_i -> V_i, r_i: E_i -> V_{i+1} describing how the regular
fiber collapses onto the critical ones.  The chain maps of l_i and r_i are
column maps (see complexes), read by the attachment homology maps and by
the one chain model of the space, its levelset telescope: V_i lies over a_i
and the cylinder of E_i over [a_i, a_{i+1}].

Every chain model is a piece, built once by `piece_chain(key)` and reduced
once per degree by `piece_homology(key, k)`: the fibers None (empty),
("V", i) and ("E", i); the window ("W", lo, hi), the telescope of
V_lo..V_hi alone, which is the whole telescope's cells over [a_lo, a_hi],
found by label as every cell is (a window from 0 labels its cells as the
whole telescope does); and the pair ("P", j), which is (X, X_{a_j}) by
excision: the window (0, j) modulo its V_j block.

A slice f^{-1}[p, q] holding the critical values a_lo..a_hi retracts onto
its window: an end p in the gap below a_lo snaps to a_lo through the
cylinder of r_{lo-1}, and an end q above a_hi to a_hi through that of l_hi,
then includes by label.  So X^t is the slice (-inf, t].  Slices with the
same lo, hi and end fibers are the same, so their end maps are cached per
such plan, not per numeric rectangle.  Instances are immutable after
construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from types import MappingProxyType
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
    label_columns,
    quotient_complex,
    telescope,
)
from .fieldlin import PrimeField

__all__ = ["ConstructibleRSpace"]


class ConstructibleRSpace:
    # set once in __init__: rebinding one would leave the caches answering
    # for the old value and skip validate()
    _FIELDS = frozenset(("critical_values", "vertex_complexes", "edge_complexes",
                         "left_maps", "right_maps", "field"))

    def __init__(self, critical_values: Sequence[float],
                 vertex_complexes: Sequence[SimplicialComplex],
                 edge_complexes: Sequence[SimplicialComplex],
                 left_maps: Sequence[Mapping],
                 right_maps: Sequence[Mapping],
                 field: PrimeField):
        self.critical_values = tuple(float(v) for v in critical_values)
        self.vertex_complexes = tuple(vertex_complexes)
        self.edge_complexes = tuple(edge_complexes)
        self.left_maps = tuple(MappingProxyType(dict(m)) for m in left_maps)
        self.right_maps = tuple(MappingProxyType(dict(m)) for m in right_maps)
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
        if problems := self.validate():
            raise ValueError("; ".join(problems))
        self._chain: dict = {}
        self._edge_maps: dict = {}
        self._homology: dict = {}

    def __setattr__(self, name: str, value) -> None:
        if name in self._FIELDS and name in self.__dict__:
            raise AttributeError(f"{name} cannot be rebound after construction")
        super().__setattr__(name, value)

    def __delattr__(self, name: str) -> None:
        if name in self._FIELDS:
            raise AttributeError(f"{name} cannot be deleted")
        super().__delattr__(name)

    # -- structural validation ----------------------------------------------

    def validate(self) -> list[str]:
        """Problems with the attaching maps, [] when the model is sound.  The
        constructor checks shapes, then raises these joined by "; "."""
        problems = []
        for i, E in enumerate(self.edge_complexes):
            in_fiber = set(E.vertices)
            for side, vmap, V in (("left", self.left_maps[i], self.vertex_complexes[i]),
                                  ("right", self.right_maps[i], self.vertex_complexes[i + 1])):
                problems += [f"gap {i}: {side} map undefined on vertex {v!r}"
                             for v in E.vertices if v not in vmap]
                problems += [f"gap {i}: {side} map names vertex {v!r}, which is not in the gap fiber"
                             for v in vmap if v not in in_fiber]
                for s in (s for row in E.simplices.values() for s in row
                          if all(v in vmap for v in s)):  # an unmapped vertex is reported above
                    img = tuple(sorted({vmap[v] for v in s}))
                    if not V.has_simplex(img):
                        problems.append(f"gap {i}: {side} image {img!r} of {s!r} is not a simplex")
        return problems

    # -- pieces --------------------------------------------------------------

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

    def _check(self, key: tuple | None, tags: tuple[str, ...] = ("V", "E", "W", "P")) -> None:
        """Refuse a key naming no piece before any cache lookup: an index is
        an int, as ("V", 0.0) and ("V", False) equal a cached ("V", 0)."""
        n = self.n_critical
        match key:
            case None:
                return
            case ("W", lo, hi) if "W" in tags and type(lo) is int and type(hi) is int:
                if 0 <= lo <= hi < n:
                    return
                raise ValueError(f"no window ({lo}, {hi}) of critical values 0..{n - 1}")
            case (tag, i) if tag in tags and type(i) is int and 0 <= i < n - (tag == "E"):
                return
        raise ValueError(f"no piece {key!r} in a space with {n} critical values")

    @staticmethod
    def _check_degree(k) -> None:
        """Refuse a degree that is not an int before any cache lookup, as
        0.0 and False equal a cached 0."""
        if type(k) is not int:
            raise ValueError(f"homology degree must be an int, got {k!r}")

    def piece(self, key: tuple[str, int] | None) -> SimplicialComplex:
        """The fiber None (empty), ("V", i) for i < n or ("E", i) for i < n - 1."""
        self._check(key, ("V", "E"))
        if key is None:
            return SimplicialComplex()
        tag, i = key
        return self.vertex_complexes[i] if tag == "V" else self.edge_complexes[i]

    def piece_chain(self, key: tuple | None) -> ChainComplex:
        """Chain model of a fiber (see `piece`), a window ("W", lo, hi) or a
        pair ("P", j), built once.

        The window is the telescope V_lo <- E_lo -> ... V_hi, its labels
        numbering the blocks from 0, not from lo; it needs 0 <= lo <= hi <
        n_critical.  The pair (X, X_{a_j}), j < n_critical, is the window
        (0, j) modulo its V_j block: every telescope cell lies over
        (-inf, a_j] or over [a_j, inf), and the two meet in V_j.  Its cells
        keep the window's labels and column order.
        """
        self._check(key)
        if key not in self._chain:
            match key:
                case ("W", lo, hi):
                    C = telescope(
                        [self.piece_chain(("V", i)) for i in range(lo, hi + 1)],
                        [(self.piece_chain(("E", i)), *self.edge_chain_maps(i))
                         for i in range(lo, hi)])
                case ("P", j):
                    W = self.piece_chain(("W", 0, j))
                    C, _ = quotient_complex(
                        W, {d: [c for c, (tag, i, _) in enumerate(labels) if tag == "v" and i == j]
                            for d, labels in W.labels.items()})
                case _:
                    C = chain_complex(self.piece(key), self.field)
            self._chain[key] = C
        return self._chain[key]

    def levelset(self, t: float) -> SimplicialComplex:
        return self.piece(self._piece_key(t))

    def edge_chain_maps(self, i: int) -> tuple[ColumnMap, ColumnMap]:
        """Column maps of the induced l_i: E_i -> V_i and r_i: E_i -> V_{i+1}."""
        self._check(("E", i))
        if i not in self._edge_maps:
            CE = self.piece_chain(("E", i))
            E = self.edge_complexes[i]
            lm = induced_chain_map(self.left_maps[i], E, self.vertex_complexes[i],
                                   CE, self.piece_chain(("V", i)))
            rm = induced_chain_map(self.right_maps[i], E, self.vertex_complexes[i + 1],
                                   CE, self.piece_chain(("V", i + 1)))
            self._edge_maps[i] = (lm, rm)
        return self._edge_maps[i]

    # -- the telescope and its slices -----------------------------------------

    def telescope(self, lo: int = 0, hi: int | None = None) -> ChainComplex:
        """The window ("W", lo, hi) piece; by default the whole space."""
        return self.piece_chain(("W", lo, self.n_critical - 1 if hi is None else hi))

    def slice_plan(self, p: float, q: float) -> tuple:
        """(lo, hi, fiber at p, fiber at q) of the slice f^{-1}[p, q].

        a_lo..a_hi are the critical values inside [p, q], and lo > hi when
        there are none.  Slices with the same plan share one chain model.
        """
        if not p <= q:
            raise ValueError(f"need p <= q, got [{p}, {q}]")
        vals = self.critical_values
        return (bisect_left(vals, p), bisect_right(vals, q) - 1,
                self._piece_key(p), self._piece_key(q))

    # -- homology with plan-level caching ---------------------------------------

    def piece_homology(self, piece_key: tuple | None, k: int) -> HomologyBasis:
        """H_k of the piece `piece_chain(piece_key)`, reduced once."""
        self._check(piece_key)
        self._check_degree(k)
        key = ("fiber", piece_key, k)
        if key not in self._homology:
            self._homology[key] = homology(self.piece_chain(piece_key), k)
        return self._homology[key]

    def attachment_homology_map(self, i: int, side: str, k: int) -> np.ndarray:
        """Matrix of H_k(E_i) -> H_k(V_i) ("left") or H_k(V_{i+1}) ("right")."""
        self._check(("E", i))
        self._check_degree(k)
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
            M = induced_homology_map(src, tgt, *f.get(k, ((), ())))
            M.flags.writeable = False
            self._homology[key] = M
        return self._homology[key]

    def slice_homology(self, p: float, q: float, k: int
                       ) -> tuple[HomologyBasis, np.ndarray, np.ndarray]:
        """H_k of the slice and the two induced maps from the end fibers.

        With no critical value in [p, q] the slice is its one gap piece (or
        empty) and both maps are the identity.  Otherwise H_k is taken on
        the telescope of the window [a_lo, a_hi].  An end fiber at a
        critical value a_i includes by its labels ("v", i - lo, x); one in a
        gap first attaches to the V block it abuts, by r_{lo-1} below the
        window or l_hi above it, and an empty one maps by zeros.
        """
        self._check_degree(k)
        plan = self.slice_plan(p, q)
        key = ("slice", plan, k)
        if key not in self._homology:
            lo, hi, fp, fq = plan
            if lo > hi:
                h = self.piece_homology(fp, k)
                mp = mq = self.field.identity(h.rank)
            else:
                h = self.piece_homology(("W", lo, hi), k)
                mp = self._end_map(h, lo, lo, fp, "right", k)
                mq = self._end_map(h, lo, hi, fq, "left", k)
            mp.flags.writeable = mq.flags.writeable = False
            self._homology[key] = (h, mp, mq)
        return self._homology[key]

    def _end_map(self, h: HomologyBasis, lo: int, i: int,
                 fiber: tuple[str, int] | None, side: str, k: int) -> np.ndarray:
        """H_k of an end fiber into h, the window from lo, through V_i."""
        if fiber is None:
            return self.field.zeros(h.rank, 0)
        V = self.piece_chain(("V", i))
        into = induced_homology_map(self.piece_homology(("V", i), k), h, label_columns(
            [("v", i - lo, x) for x in V.labels.get(k, [])], h.complex, k))
        if fiber[0] == "V":
            return into
        return self.field.matmul(into, self.attachment_homology_map(fiber[1], side, k))
