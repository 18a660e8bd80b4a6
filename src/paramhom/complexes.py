"""Simplicial and chain complexes over F_p, with telescopes and quotients.

Chain complexes here are finite, based, non-negatively graded: each degree
has an ordered basis of labels and a boundary kept as sparse columns.  Basis
order is always the deterministic label order fixed at construction, so
induced matrices are reproducible across runs.

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

# one boundary column: its nonzeros (row, entry)
Column = tuple[tuple[int, int], ...]
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
    """Based chain complex: ordered basis labels and sparse boundary columns.

    columns[k][j] lists the nonzeros (row, entry) of column j of d_k as ints,
    rows indexing the degree k-1 labels and entries in [1, p); a cell has few
    faces, so columns are short.  The constructor refuses anything else and
    checks d o d = 0.  Labels and columns are stored as tuples in read-only
    mappings, so a complex held in a cache cannot be edited through them.
    """

    def __init__(self, field: PrimeField, labels: Mapping[int, Sequence],
                 columns: Mapping[int, Sequence[Sequence[tuple[int, int]]]]):
        self.field = field
        self.labels = MappingProxyType({k: tuple(v) for k, v in labels.items() if v})
        stored = {k: ((),) * len(v) for k, v in self.labels.items()}
        for k, cols in columns.items():
            n, m = self.dim(k - 1), self.dim(k)
            try:
                found = list(map(dict, cols))  # each column as {row: entry}
            except (TypeError, ValueError):
                raise ValueError(f"boundary {k} is not columns of (row, entry) pairs") from None
            if len(found) != m:
                raise ValueError(f"boundary {k} has {len(found)} columns for {m} cells")
            if sum(map(len, found)) < sum(map(len, cols)):
                raise ValueError(f"boundary {k} names a row twice in one column")
            rows = list(itertools.chain.from_iterable(found))
            entries = list(itertools.chain.from_iterable(map(dict.values, found)))
            if set(map(type, rows + entries)) - {int}:
                bad = next(v for v in rows + entries if type(v) is not int)
                raise ValueError(f"boundary {k} has an entry {bad!r} that is not an int")
            if rows and not (0 <= min(rows) <= max(rows) < n
                             and 0 < min(entries) <= max(entries) < field.p):
                raise ValueError(f"boundary {k} has a row outside 0..{n - 1} "
                                 f"or an entry outside 1..{field.p - 1}")
            if m:
                stored[k] = tuple(map(tuple, map(dict.items, found)))
        self.columns: Mapping[int, tuple[Column, ...]] = MappingProxyType(stored)
        for k, lower in stored.items():
            if k + 1 in stored and any(_compose(lower, stored[k + 1], field.p)):
                raise ValueError(f"d o d != 0 at degree {k + 1}")

    def degrees(self) -> list[int]:
        return sorted(self.labels)

    @property
    def top_degree(self) -> int:
        return max(self.labels, default=-1)

    def dim(self, k: int) -> int:
        return len(self.labels.get(k, ()))

    def boundary(self, k: int, rows: Sequence[int] | None = None) -> np.ndarray:
        """d_k as a read-only dense int64 array, built on each call: all
        dim(k-1) rows, or only the given distinct rows, in their order."""
        cols = self.columns.get(k, ())
        rows = range(self.dim(k - 1)) if rows is None else rows
        at = {r: i * len(cols) for i, r in enumerate(rows)}  # row -> its offset in M
        M = self.field.zeros(len(at), len(cols))
        M.put([at[r] + j for j, col in enumerate(cols) for r, _ in col if r in at],
              [x for col in cols for r, x in col if r in at])
        M.flags.writeable = False
        return M

    def __repr__(self) -> str:
        dims = {k: self.dim(k) for k in self.degrees()}
        return f"ChainComplex(F{self.field.p}, dims={dims})"


def _compose(outer: Sequence[Column], inner: Sequence[Column], p: int) -> list[dict[int, int]]:
    """The columns of outer @ inner mod p, each as {row: entry} of its
    nonzeros: column j combines the columns of outer that column j of inner
    names."""
    out = []
    for col in inner:
        acc: dict[int, int] = {}
        for i, a in col:
            for r, b in outer[i]:
                acc[r] = acc.get(r, 0) + a * b
        out.append({r: x % p for r, x in acc.items() if x % p})
    return out


def chain_complex(S: SimplicialComplex, field: PrimeField) -> ChainComplex:
    """Simplicial chain complex with basis the sorted simplices.

    Boundary signs follow the usual alternating-face rule on sorted vertex
    tuples; over F_2 the signs collapse as expected.
    """
    columns = {}
    for k in range(1, S.dimension + 1):
        row = {s: i for i, s in enumerate(S.simplices[k - 1])}
        faces = [(i, (-1) ** i % field.p) for i in range(k + 1)]
        columns[k] = [[(row[s[:i] + s[i + 1:]], sign) for i, sign in faces] for s in S.simplices[k]]
    return ChainComplex(field, S.simplices, columns)


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
    sparse: dict[int, list[Column]] = {}  # f as columns, for _compose
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
        sparse[k] = [((c, a),) if c >= 0 else () for c, a in zip(cols, coefs)]
    for k in src_chain.degrees()[1:]:  # every degree above the vertices
        # d f = f d, column by column over the degree-k source basis
        if (_compose(tgt_chain.columns.get(k, ()), sparse[k], p)
                != _compose(sparse[k - 1], src_chain.columns[k], p)):
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
        representatives.flags.writeable = projection.flags.writeable = False

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
    if not n:  # no k-cells, as in any degree above a fiber's dimension
        return HomologyBasis(C, k, field.zeros(0, 0), field.zeros(0, 0))
    Z = field.kernel_basis(C.boundary(k))
    free = np.where(Z != 0, np.arange(n)[:, None], -1).max(axis=0, initial=-1)
    if not np.array_equal(Z[free], field.identity(len(free))):
        raise ValueError("cycle basis is not the identity on its free rows")
    chosen, proj = field.quotient_map(C.boundary(k + 1, free.tolist()))
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

    columns: dict[int, list] = {}
    for k in range(1, top + 1):
        rows = start[k - 1]
        cols = columns[k] = []
        for t, V in enumerate(nodes):
            cols += [[(rows[t] + i, x) for i, x in col] for col in V.columns.get(k, ())]
        for t, (E, l, r) in enumerate(edges):
            if not E.dim(k - 1):
                continue
            ends = [(rows[s], c.tolist(), (sign * a % p).tolist())
                    for s, (c, a), sign in ((t, l[k - 1], -1), (t + 1, r[k - 1], 1))]
            # the column of e is r(e) - l(e) - shift(de)
            cols += [[(rows[n + t] + i, p - x) for i, x in col]
                     + [(at + c[j], a[j]) for at, c, a in ends if c[j] >= 0]
                     for j, col in enumerate(E.columns[k - 1])]

    return ChainComplex(field, labels, columns)


def _closed_columns(C: ChainComplex, columns: Mapping[int, Sequence[int]]
                    ) -> dict[int, list[int]]:
    """Sorted chosen columns per degree, checked to be closed under d."""
    cols = {k: sorted(set(columns.get(k, ()))) for k in C.degrees()}
    for k in C.degrees():
        keep = set(cols.get(k - 1, ()))
        if any(r not in keep for j in cols[k] for r, _ in C.columns[k][j]):
            raise ValueError(f"columns are not closed under the boundary at degree {k}")
    return cols


def _coordinate_complex(C: ChainComplex, cols: dict[int, list[int]]) -> ChainComplex:
    """The chosen columns of C, with their rows among the chosen ones."""
    row = {k: {r: i for i, r in enumerate(rs)} for k, rs in cols.items()}
    return ChainComplex(C.field, {k: [C.labels[k][i] for i in js] for k, js in cols.items()}, {
        k: [[(row[k - 1][r], x) for r, x in C.columns[k][j] if r in row.get(k - 1, ())]
            for j in js] for k, js in cols.items()})


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
