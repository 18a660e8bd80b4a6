"""Simplicial and chain complexes over F_p, with telescopes and quotients.

Chain complexes here are finite, based, non-negatively graded: each degree
has an ordered basis of labels and an integer boundary matrix.  Basis order
is always the deterministic label order fixed at construction, so induced
matrices are reproducible across runs.

Every chain map built here sends each basis cell to a multiple of one cell
or to 0, so it is a column map: per degree, integer arrays (columns,
coefficients) over the source basis, sending source column j to
coefficients[j] times target column columns[j], or to 0 where columns[j]
is -1.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .fieldlin import PrimeField

# degree -> (columns, coefficients), as described above
ColumnMap = dict[int, tuple[np.ndarray, np.ndarray]]

__all__ = [
    "SimplicialComplex",
    "ChainComplex",
    "HomologyBasis",
    "chain_complex",
    "induced_chain_map",
    "homology",
    "induced_homology_map",
    "label_columns",
    "telescope",
    "subcomplex",
    "quotient_complex",
]


class SimplicialComplex:
    """Finite abstract simplicial complex, closed under faces.

    The constructor accepts any iterable of simplices (sequences of distinct,
    mutually comparable vertex ids) and closes them under faces, so callers
    may list only maximal simplices.  Simplices are stored sorted, in
    read-only rows listed in lexicographic order within each dimension.
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
        self.simplices: Mapping[int, tuple[tuple, ...]] = MappingProxyType({
            k: tuple(sorted(by_dim[k])) for k in sorted(by_dim)
        })

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
        row = self.simplices.get(len(t) - 1, ())
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
    (dim(k-1), dim(k)).  The constructor checks d o d = 0 in every degree.
    Labels are stored as tuples and boundaries as read-only arrays, so a
    complex held in a cache cannot be edited through what it hands out.
    """

    def __init__(self, field: PrimeField, labels: dict[int, list],
                 boundaries: dict[int, np.ndarray]):
        self.field = field
        self.labels = MappingProxyType({k: tuple(v) for k, v in labels.items() if v})
        stored = {}
        for k, M in boundaries.items():
            M = field.normalize(M)
            if M.shape != (self.dim(k - 1), self.dim(k)):
                raise ValueError(f"boundary {k} has shape {M.shape}")
            if M.size:
                M.flags.writeable = False
                stored[k] = M
        self.boundaries = MappingProxyType(stored)
        columns = {k: _sparse_columns(M) for k, M in stored.items()
                   if k - 1 in stored or k + 1 in stored}
        for k in sorted(columns):
            if k + 1 in columns and not _composes_to_zero(columns[k], columns[k + 1], field.p):
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


def _sparse_columns(M: np.ndarray) -> list[list[tuple[int, int]]]:
    """The nonzeros (row, entry) of each column of M, as Python ints."""
    cols: list[list[tuple[int, int]]] = [[] for _ in range(M.shape[1])]
    rs, cs = M.nonzero()
    for i, j, v in zip(rs.tolist(), cs.tolist(), M[rs, cs].tolist()):
        cols[j].append((i, v))
    return cols


def _composes_to_zero(lower: list, upper: list, p: int) -> bool:
    """Whether d_k d_{k+1} = 0 mod p, from the sparse columns of each: each
    column of d_{k+1} combines the columns of d_k that it names."""
    for col in upper:
        acc: dict[int, int] = {}
        for i, a in col:
            for r, b in lower[i]:
                acc[r] = acc.get(r, 0) + a * b
        if any(x % p for x in acc.values()):
            return False
    return True


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
                      src_chain: ChainComplex, tgt_chain: ChainComplex) -> ColumnMap:
    """Column map of the chain map induced by a vertex map.

    src_chain and tgt_chain are the chain complexes of src and tgt.  A
    simplex goes to its image with the sign of the sorting permutation, or
    to 0 when the image is degenerate.

    Raises:
        ValueError: if the vertex map is undefined on a vertex of src, the
            image of some simplex is not a simplex of tgt, or the result
            fails to commute with the boundaries.
    """
    p = src_chain.field.p
    tgt_index = {k: {s: i for i, s in enumerate(v)} for k, v in tgt.simplices.items()}
    f: ColumnMap = {}
    for k, simps in src.simplices.items():
        cols, coefs = [], []
        for s in simps:
            try:
                image = tuple(vmap[v] for v in s)
            except KeyError as e:
                raise ValueError(f"vertex map undefined on {e.args[0]!r}") from None
            col, sign = -1, 0  # a degenerate image is zero in the chain map
            if len(set(image)) == len(image):
                sorted_img, sign = _sorted_with_sign(image)
                col = tgt_index.get(len(sorted_img) - 1, {}).get(sorted_img)
                if col is None:
                    raise ValueError(f"image {sorted_img!r} of {s!r} is not a simplex of the target")
            cols.append(col)
            coefs.append(sign % p)
        f[k] = (np.array(cols, dtype=np.int64), np.array(coefs, dtype=np.int64))
    for k in src_chain.degrees()[1:]:  # every degree above the vertices
        # d f = f d, both sides as tgt.dim(k-1) x src.dim(k) matrices
        lhs = np.zeros((tgt_chain.dim(k - 1), src_chain.dim(k)), dtype=np.int64)
        rhs = lhs.copy()
        cols, coefs = f[k]
        kept = cols >= 0
        lhs[:, kept] = tgt_chain.boundary(k)[:, cols[kept]] * coefs[kept] % p
        cols, coefs = f[k - 1]
        kept = cols >= 0
        np.add.at(rhs, cols[kept], src_chain.boundary(k)[kept] * coefs[kept, None] % p)
        if not np.array_equal(lhs, rhs % p):
            raise ValueError(f"chain map fails to commute at degree {k}")
    return f


class HomologyBasis:
    """Basis of H_k(C): cycle representatives plus a projection.

    representatives: (dim C_k) x rank matrix of cycles, columns of the rref
    kernel basis of d_k.
    projection: rank x (dim C_k); sends a cycle to its class coordinates and
    boundaries to 0.  It reads a cycle only at the free coordinates of that
    kernel basis, so it is meaningful on cycles alone.
    Both arrays are made read-only, as cached bases are shared.
    """

    def __init__(self, complex: ChainComplex, k: int, representatives: np.ndarray,
                 projection: np.ndarray):
        self.complex = complex
        self.k = k
        self.representatives = representatives
        self.projection = projection
        representatives.flags.writeable = False
        projection.flags.writeable = False

    @property
    def rank(self) -> int:
        return self.representatives.shape[1]

    def __repr__(self) -> str:
        return f"HomologyBasis(k={self.k}, rank={self.rank})"


def homology(C: ChainComplex, k: int) -> HomologyBasis:
    """H_k(C) = ker d_k / im d_{k+1}, presented with explicit cycle reps.

    Works in the coordinates of the cycle basis Z = kernel_basis(d_k).  Row
    free[j] of Z, the lowest nonzero row of column j, is e_j, so every cycle
    z equals Z @ z[free]; boundaries are cycles, so d_{k+1} = Z @ B_f with
    B_f = d_{k+1}[free], and H_k is F^f / span(B_f).  The representatives
    are the columns of Z whose coordinate vectors quotient_map chooses, and
    the projection is its projection read at the free rows.
    """
    field, n = C.field, C.dim(k)
    Z = field.kernel_basis(C.boundary(k))
    free = np.where(Z != 0, np.arange(n)[:, None], -1).max(axis=0, initial=-1)
    if not np.array_equal(Z[free], field.identity(len(free))):
        raise ValueError("cycle basis is not the identity on its free rows")
    chosen, proj = field.quotient_map(C.boundary(k + 1)[free])
    projection = field.zeros(len(chosen), n)
    projection[:, free] = proj
    return HomologyBasis(C, k, Z[:, chosen], projection)


def induced_homology_map(src_h: HomologyBasis, tgt_h: HomologyBasis,
                         columns: Sequence[int],
                         coefficients: Sequence[int] | None = None) -> np.ndarray:
    """Matrix of H_k of a column chain map, with respect to the two bases.

    The chain map sends basis column j of the source to coefficients[j]
    times basis column columns[j] of the target, or to 0 where columns[j]
    is -1; with no coefficients given, every coefficient is 1.
    """
    if src_h.k != tgt_h.k:
        raise ValueError(f"homology degrees differ: {src_h.k} and {tgt_h.k}")
    field = src_h.complex.field
    cols = np.asarray(columns, dtype=np.int64)
    if len(cols) != src_h.complex.dim(src_h.k):
        raise ValueError(f"{len(cols)} columns for a source of dimension "
                         f"{src_h.complex.dim(src_h.k)}")
    kept = cols >= 0
    proj = tgt_h.projection[:, cols[kept]]
    if coefficients is not None:
        proj = proj * np.asarray(coefficients, dtype=np.int64)[kept] % field.p
    return field.matmul(proj, src_h.representatives[kept])


def label_columns(labels: Iterable, C: ChainComplex, k: int) -> np.ndarray:
    """The degree-k column of C holding each label, or -1: an inclusion by label."""
    position = {x: c for c, x in enumerate(C.labels.get(k, []))}
    return np.array([position.get(x, -1) for x in labels], dtype=np.int64)


def telescope(nodes: Sequence[ChainComplex],
              edges: Sequence[tuple[ChainComplex, ColumnMap, ColumnMap]]) -> ChainComplex:
    """Mapping telescope of V_0 <- E_0 -> V_1 <- E_1 -> ... -> V_n.

    Each edge is (E, l, r) with column maps l: E -> V_t and r: E -> V_{t+1}.
    Edge generators enter with degree shifted up by one; the differential of
    a shifted generator e is (r(e) - l(e)) - shift(de), which squares to zero
    because r - l is a chain map.

    Labels are ("v", t, lbl) for generators of node t and ("e", t, lbl) for
    the shifted generators of edge t.  The order of the columns within a
    degree is this function's own choice: callers find a cell by its label
    (see `label_columns`), never by its position.
    """
    if not nodes:
        raise ValueError("telescope needs at least one node")
    if len(edges) != len(nodes) - 1:
        raise ValueError(f"{len(nodes)} nodes need {len(nodes) - 1} edges, got {len(edges)}")
    field = nodes[0].field
    if any(V.field != field for V in nodes) or any(E.field != field for E, _, _ in edges):
        raise ValueError("telescope pieces over different fields")
    top = max([V.top_degree for V in nodes] + [E.top_degree + 1 for E, _, _ in edges])

    n, p = len(nodes), field.p
    labels: dict[int, list] = {}
    start: dict[int, list[int]] = {}  # first column of each block, per degree
    for k in range(top + 1):
        blocks = ([("v", t, V.labels.get(k, [])) for t, V in enumerate(nodes)]
                  + [("e", t, E.labels.get(k - 1, [])) for t, (E, _, _) in enumerate(edges)])
        labels[k] = [(tag, t, x) for tag, t, xs in blocks for x in xs]
        start[k] = list(itertools.accumulate((len(xs) for _, _, xs in blocks), initial=0))

    boundaries = {}
    for k in range(1, top + 1):
        M = field.zeros(len(labels[k - 1]), len(labels[k]))
        rows, cols = start[k - 1], start[k]
        for t, V in enumerate(nodes):
            M[rows[t]:rows[t + 1], cols[t]:cols[t + 1]] = V.boundary(k)
        for t, (E, l, r) in enumerate(edges):
            if not E.dim(k - 1):
                continue
            col0 = cols[n + t]
            for f, node, sign in ((l, t, -1), (r, t + 1, 1)):
                tgt, coefs = f[k - 1]
                kept = np.flatnonzero(tgt >= 0)
                M[rows[node] + tgt[kept], col0 + kept] = sign * coefs[kept] % p
            M[rows[n + t]:rows[n + t + 1], col0:cols[n + t + 1]] = -E.boundary(k - 1) % p
        boundaries[k] = M

    return ChainComplex(field, labels, boundaries)


def _closed_columns(C: ChainComplex, columns: Mapping[int, Sequence[int]]
                    ) -> dict[int, list[int]]:
    """Sorted chosen columns per degree, checked to be closed under d."""
    cols = {k: sorted(set(columns.get(k, ()))) for k in C.degrees()}
    for k in C.degrees():
        keep = np.zeros(C.dim(k - 1), dtype=bool)
        keep[cols.get(k - 1, [])] = True
        if C.boundary(k)[:, cols[k]][~keep].any():
            raise ValueError(f"columns are not closed under the boundary at degree {k}")
    return cols


def _coordinate_complex(C: ChainComplex, cols: dict[int, list[int]]) -> ChainComplex:
    labels = {k: [C.labels[k][i] for i in cols[k]] for k in C.degrees()}
    boundaries = {k: C.boundary(k)[np.ix_(cols.get(k - 1, []), cols[k])]
                  for k in C.degrees()}
    return ChainComplex(C.field, labels, boundaries)


def subcomplex(C: ChainComplex, columns: Mapping[int, Sequence[int]]
               ) -> tuple[ChainComplex, dict[int, list[int]]]:
    """Span of a set of basis columns, which must be closed under d.

    Returns the subcomplex (with the inherited labels) and, per degree, the
    sorted columns of C it keeps: its inclusion sends basis column j of
    degree k to column kept[k][j] of C.

    Raises:
        ValueError: if the boundary of a chosen column leaves the chosen rows.
    """
    cols = _closed_columns(C, columns)
    return _coordinate_complex(C, cols), cols


def quotient_complex(C: ChainComplex, columns: Mapping[int, Sequence[int]]
                     ) -> tuple[ChainComplex, dict[int, list[int]]]:
    """Quotient of C by the span of basis columns (closed under d).

    Returns the quotient and, per degree, the sorted columns of C it keeps:
    the projection sends column kept[k][j] of C to basis column j of degree
    k and kills the chosen columns.
    """
    chosen = _closed_columns(C, columns)
    rest = {k: sorted(set(range(C.dim(k))) - set(chosen[k])) for k in C.degrees()}
    return _coordinate_complex(C, rest), rest
