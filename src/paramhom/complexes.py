"""Simplicial and chain complexes over F_p, with telescopes and quotients.

Chain complexes here are finite, based, non-negatively graded: each degree
has an ordered basis of labels and an integer boundary matrix.  Basis order
is always the deterministic label order fixed at construction, so induced
matrices are reproducible across runs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .fieldlin import PrimeField

__all__ = [
    "SimplicialComplex",
    "ChainComplex",
    "ChainMap",
    "HomologyBasis",
    "TelescopeResult",
    "chain_complex",
    "induced_chain_map",
    "homology",
    "induced_homology_map",
    "telescope",
    "subcomplex",
    "quotient_complex",
]


class SimplicialComplex:
    """Finite abstract simplicial complex, closed under faces.

    The constructor accepts any iterable of simplices (sequences of distinct,
    mutually comparable vertex ids) and closes them under faces, so callers
    may list only maximal simplices.  Simplices are stored sorted, and listed
    in lexicographic order within each dimension.
    """

    def __init__(self, simplices: Iterable[Sequence[Hashable]] = ()):
        by_dim: dict[int, set[tuple]] = {}
        for s in simplices:
            verts = tuple(s)
            if len(set(verts)) != len(verts):
                raise ValueError(f"degenerate simplex {verts!r}")
            verts = tuple(sorted(verts))
            for k in range(1, len(verts) + 1):
                for face in itertools.combinations(verts, k):
                    by_dim.setdefault(k - 1, set()).add(face)
        self.simplices: dict[int, list[tuple]] = {
            k: sorted(by_dim[k]) for k in sorted(by_dim)
        }

    @property
    def dimension(self) -> int:
        """Top dimension, -1 for the empty complex."""
        return max(self.simplices, default=-1)

    @property
    def vertices(self) -> list:
        return [v[0] for v in self.simplices.get(0, [])]

    def n_simplices(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def has_simplex(self, s: Sequence[Hashable]) -> bool:
        t = tuple(sorted(s))
        row = self.simplices.get(len(t) - 1, [])
        try:
            i = bisect_left(row, t)
        except TypeError:  # ids not comparable with this complex's: no match
            return False
        return i < len(row) and row[i] == t

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.simplices == other.simplices

    def __repr__(self) -> str:
        return f"SimplicialComplex({self.n_simplices()} simplices, dim {self.dimension})"


class ChainComplex:
    """Based chain complex: ordered basis labels and boundary matrices.

    boundaries[k] maps degree k to degree k-1 and has shape
    (dim(k-1), dim(k)).  The constructor checks d @ d = 0 in every degree.
    """

    def __init__(self, field: PrimeField, labels: dict[int, list],
                 boundaries: dict[int, np.ndarray]):
        self.field = field
        self.labels = {k: list(v) for k, v in labels.items() if v}
        self.boundaries = {}
        for k, M in boundaries.items():
            M = field.normalize(M)
            if M.shape != (self.dim(k - 1), self.dim(k)):
                raise ValueError(f"boundary {k} has shape {M.shape}")
            if M.size:
                self.boundaries[k] = M
        for k in self.degrees():
            if field.matmul(self.boundary(k), self.boundary(k + 1)).any():
                raise ValueError(f"d o d != 0 at degree {k + 1}")

    def degrees(self) -> list[int]:
        return sorted(self.labels)

    @property
    def top_degree(self) -> int:
        return max(self.labels, default=-1)

    def dim(self, k: int) -> int:
        return len(self.labels.get(k, []))

    def boundary(self, k: int) -> np.ndarray:
        M = self.boundaries.get(k)
        if M is None:
            return self.field.zeros(self.dim(k - 1), self.dim(k))
        return M

    def __repr__(self) -> str:
        dims = {k: self.dim(k) for k in self.degrees()}
        return f"ChainComplex(F{self.field.p}, dims={dims})"


class ChainMap:
    """Degreewise matrices commuting with the boundaries (checked)."""

    def __init__(self, src: ChainComplex, tgt: ChainComplex,
                 matrices: dict[int, np.ndarray], check: bool = True):
        if src.field != tgt.field:
            raise ValueError("chain map between different fields")
        self.src = src
        self.tgt = tgt
        self.field = src.field
        self.matrices = {}
        for k, M in matrices.items():
            M = self.field.normalize(M)
            if M.shape != (tgt.dim(k), src.dim(k)):
                raise ValueError(f"chain map matrix {k} has shape {M.shape}")
            if M.size:
                self.matrices[k] = M
        if check:
            for k in set(src.degrees()) | set(tgt.degrees()):
                lhs = self.field.matmul(tgt.boundary(k), self.matrix(k))
                rhs = self.field.matmul(self.matrix(k - 1), src.boundary(k))
                if not np.array_equal(lhs, rhs):
                    raise ValueError(f"chain map fails to commute at degree {k}")

    def matrix(self, k: int) -> np.ndarray:
        M = self.matrices.get(k)
        if M is None:
            return self.field.zeros(self.tgt.dim(k), self.src.dim(k))
        return M

    @staticmethod
    def identity(C: ChainComplex) -> "ChainMap":
        return ChainMap(C, C, {k: C.field.identity(C.dim(k)) for k in C.degrees()},
                        check=False)


def chain_complex(S: SimplicialComplex, field: PrimeField) -> ChainComplex:
    """Simplicial chain complex with basis the sorted simplices.

    Boundary signs follow the usual alternating-face rule on sorted vertex
    tuples; over F_2 the signs collapse as expected.
    """
    labels = {k: list(v) for k, v in S.simplices.items()}
    index = {k: {s: i for i, s in enumerate(v)} for k, v in labels.items()}
    boundaries = {}
    for k in labels:
        if k == 0:
            continue
        M = field.zeros(len(labels[k - 1]), len(labels[k]))
        for j, s in enumerate(labels[k]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                M[index[k - 1][face], j] = (-1) ** i % field.p
        boundaries[k] = M
    return ChainComplex(field, labels, boundaries)


def _sorted_with_sign(verts: tuple) -> tuple[tuple, int]:
    # insertion sort, counting swaps; tuples are tiny
    items = list(verts)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


def induced_chain_map(vmap: Mapping, src: SimplicialComplex, tgt: SimplicialComplex,
                      src_chain: ChainComplex, tgt_chain: ChainComplex) -> ChainMap:
    """Chain map induced by a vertex map; degenerate images map to 0.

    src_chain and tgt_chain are the chain complexes of src and tgt.

    Raises:
        ValueError: if the vertex map is undefined on a vertex of src or the
            image of some simplex is not a simplex of tgt.
    """
    fld = src_chain.field
    tgt_index = {k: {s: i for i, s in enumerate(v)} for k, v in tgt.simplices.items()}
    matrices = {}
    for k, simps in src.simplices.items():
        M = fld.zeros(tgt_chain.dim(k), len(simps))
        for j, s in enumerate(simps):
            try:
                image = tuple(vmap[v] for v in s)
            except KeyError as e:
                raise ValueError(f"vertex map undefined on {e.args[0]!r}") from None
            if len(set(image)) < len(image):
                continue  # degenerate: zero in the chain map
            sorted_img, sign = _sorted_with_sign(image)
            row = tgt_index.get(len(sorted_img) - 1, {}).get(sorted_img)
            if row is None:
                raise ValueError(f"image {sorted_img!r} of {s!r} is not a simplex of the target")
            M[row, j] = sign % fld.p
        matrices[k] = M
    return ChainMap(src_chain, tgt_chain, matrices)


class HomologyBasis:
    """Basis of H_k(C): cycle representatives plus a projection.

    representatives: (dim C_k) x rank matrix of cycles.
    projection: rank x (dim C_k); sends a cycle to its class coordinates and
    boundaries to 0.
    """

    def __init__(self, complex: ChainComplex, k: int, representatives: np.ndarray,
                 projection: np.ndarray):
        self.complex = complex
        self.k = k
        self.representatives = representatives
        self.projection = projection

    @property
    def rank(self) -> int:
        return self.representatives.shape[1]

    def __repr__(self) -> str:
        return f"HomologyBasis(k={self.k}, rank={self.rank})"


def homology(C: ChainComplex, k: int) -> HomologyBasis:
    """H_k(C) = ker d_k / im d_{k+1}, presented with explicit cycle reps."""
    field = C.field
    Z = field.kernel_basis(C.boundary(k))
    B = field.column_space_basis(C.boundary(k + 1))
    q = field.quotient_map(Z, B)
    # rebase projection/representatives to chain coordinates
    return HomologyBasis(C, k, q.representatives, q.projection)


def induced_homology_map(f: ChainMap, src_h: HomologyBasis,
                         tgt_h: HomologyBasis) -> np.ndarray:
    """Matrix of H_k(f) with respect to the two given bases."""
    assert src_h.k == tgt_h.k
    field = f.field
    pushed = field.matmul(f.matrix(src_h.k), src_h.representatives)
    return field.matmul(tgt_h.projection, pushed)


class TelescopeResult:
    """Total complex of a zigzag of spaces, with the inclusions of its nodes.

    Labels are ("v", t, lbl) for generators of node t and ("e", t, lbl) for
    the degree-shifted generators of edge t, so block membership is
    recoverable from the labels alone.
    """

    def __init__(self, complex: ChainComplex, node_inclusions: list[ChainMap]):
        self.complex = complex
        self.node_inclusions = node_inclusions


def telescope(nodes: Sequence[ChainComplex],
              edges: Sequence[tuple[ChainComplex, ChainMap, ChainMap]]) -> TelescopeResult:
    """Mapping telescope of V_0 <- E_0 -> V_1 <- E_1 -> ... -> V_n.

    Each edge is (E, l, r) with chain maps l: E -> V_t and r: E -> V_{t+1}.
    Edge generators enter with degree shifted up by one; the differential of
    a shifted generator e is (r(e) - l(e)) - shift(de), which squares to zero
    because r - l is a chain map.
    """
    if not nodes:
        raise ValueError("telescope needs at least one node")
    assert len(edges) == len(nodes) - 1
    field = nodes[0].field
    for E, l, r in edges:
        assert E.field == field
    degs = set()
    for V in nodes:
        degs.update(V.degrees())
    for E, _, _ in edges:
        degs.update(k + 1 for k in E.degrees())
    top = max(degs, default=-1)

    labels: dict[int, list] = {}
    col_of: dict[tuple, int] = {}
    for k in range(top + 1):
        lab = []
        for t, V in enumerate(nodes):
            lab.extend(("v", t, x) for x in V.labels.get(k, []))
        for t, (E, _, _) in enumerate(edges):
            lab.extend(("e", t, x) for x in E.labels.get(k - 1, []))
        labels[k] = lab
        for i, x in enumerate(lab):
            col_of[(k, *x[:2], x[2])] = i

    def node_offset(k: int, t: int) -> int:
        return sum(nodes[s].dim(k) for s in range(t))

    boundaries = {}
    for k in range(1, top + 1):
        M = field.zeros(len(labels.get(k - 1, [])), len(labels.get(k, [])))
        col = 0
        for t, V in enumerate(nodes):
            d = V.boundary(k)
            if V.dim(k):
                off = node_offset(k - 1, t)
                M[off:off + V.dim(k - 1), col:col + V.dim(k)] = d
                col += V.dim(k)
        for t, (E, l, r) in enumerate(edges):
            ek = k - 1  # edge generators of this telescope degree
            if not E.dim(ek):
                continue
            off_l = node_offset(k - 1, t)
            off_r = node_offset(k - 1, t + 1)
            lm, rm = l.matrix(ek), r.matrix(ek)
            M[off_l:off_l + nodes[t].dim(k - 1), col:col + E.dim(ek)] = (-lm) % field.p
            M[off_r:off_r + nodes[t + 1].dim(k - 1), col:col + E.dim(ek)] += rm
            M[off_r:off_r + nodes[t + 1].dim(k - 1), col:col + E.dim(ek)] %= field.p
            if E.dim(ek - 1):
                # locate this edge's shifted block in degree k-1
                row0 = col_of[(k - 1, "e", t, E.labels[ek - 1][0])]
                M[row0:row0 + E.dim(ek - 1), col:col + E.dim(ek)] = (-E.boundary(ek)) % field.p
            col += E.dim(ek)
        boundaries[k] = M

    total = ChainComplex(field, labels, boundaries)

    node_inclusions = []
    for t, V in enumerate(nodes):
        mats = {}
        for k in V.degrees():
            M = field.zeros(total.dim(k), V.dim(k))
            off = node_offset(k, t)
            M[off:off + V.dim(k), :] = field.identity(V.dim(k))
            mats[k] = M
        node_inclusions.append(ChainMap(V, total, mats, check=False))
    return TelescopeResult(total, node_inclusions)


def subcomplex(C: ChainComplex, columns: dict[int, Sequence[int]]) -> tuple[ChainComplex, ChainMap]:
    """Span of a set of basis columns, which must be closed under d.

    Returns the subcomplex (with the inherited labels) and its inclusion.

    Raises:
        ValueError: if the boundary of a chosen column leaves the chosen rows.
    """
    field = C.field
    cols = {k: sorted(columns.get(k, [])) for k in C.degrees()}
    labels = {k: [C.labels[k][i] for i in cols[k]] for k in C.degrees() if cols[k]}
    boundaries = {}
    for k in C.degrees():
        if not cols[k]:
            continue
        d = C.boundary(k)[:, cols[k]]
        keep = np.zeros(C.dim(k - 1), dtype=bool)
        keep[cols.get(k - 1, [])] = True
        if d[~keep, :].any():
            raise ValueError(f"columns are not closed under the boundary at degree {k}")
        boundaries[k] = d[keep, :]
    sub = ChainComplex(field, labels, boundaries)
    mats = {}
    for k in sub.degrees():
        M = field.zeros(C.dim(k), sub.dim(k))
        for j, i in enumerate(cols[k]):
            M[i, j] = 1
        mats[k] = M
    return sub, ChainMap(sub, C, mats, check=False)


def quotient_complex(C: ChainComplex, columns: dict[int, Sequence[int]]
                     ) -> tuple[ChainComplex, dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Quotient of C by the span of basis columns (closed under d).

    Returns (Q, projections, sections): projections[k] maps chain coordinates
    of C_k onto Q_k killing the chosen columns; sections[k] embeds Q_k back
    as the complementary coordinate columns.
    """
    field = C.field
    cols = {k: sorted(set(columns.get(k, ()))) for k in C.degrees()}
    # validate closure so the quotient differential is well defined
    for k in C.degrees():
        if not cols[k]:
            continue
        d = C.boundary(k)[:, cols[k]]
        keep = np.zeros(C.dim(k - 1), dtype=bool)
        keep[cols.get(k - 1, [])] = True
        if d[~keep, :].any():
            raise ValueError(f"columns are not closed under the boundary at degree {k}")
    labels, projs, secs = {}, {}, {}
    for k in C.degrees():
        chosen = set(cols[k])
        rest = [i for i in range(C.dim(k)) if i not in chosen]
        if rest:
            labels[k] = [C.labels[k][i] for i in rest]
        P = field.zeros(len(rest), C.dim(k))
        S = field.zeros(C.dim(k), len(rest))
        for j, i in enumerate(rest):
            P[j, i] = 1
            S[i, j] = 1
        projs[k], secs[k] = P, S
    boundaries = {}
    for k in C.degrees():
        if labels.get(k) and (k - 1) in C.labels:
            boundaries[k] = field.matmul(projs[k - 1],
                                         field.matmul(C.boundary(k), secs[k]))
        elif labels.get(k):
            boundaries[k] = field.zeros(0, len(labels[k]))
    Q = ChainComplex(field, labels, boundaries)
    return Q, projs, secs
