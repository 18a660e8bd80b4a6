"""Independent oracles for the decomposition, extraction and matching tests.

brute_decompose enumerates every nonnegative interval assignment consistent
with the node dimensions and keeps those matching the full generalized-rank
table computed by the literal limit->colimit construction,
limit_colimit_rank; the solution is unique by inclusion-exclusion, and
multiplicity reads one interval off the same ranks.  rank_table_decompose
is the second reference, fast enough for long modules: the same
inclusion-exclusion over the whole rank table, which rank_table fills by
one right-to-left subspace sweep per right endpoint.  planted_zigzag builds
a module whose decomposition is known ahead of time and hides it behind
random basis changes.  None of them goes anywhere near the left-to-right
pass of decompose().
extract_diagram reads a diagram off any rectangle measure by probing, so
the measure route can be compared with the levelset zigzag route.
dense_homology, ChainMap, dense_simplicial_map, dense_coordinate_map and
dense_homology_map are the dense route to homology maps: a basis extension
inverted in full, chain maps as commutation-checked matrices (simplicial
maps with signs counted by inversions, coordinate maps as 0/1 blocks), and
the two multiplied out.
five_rule_valid and edge_rule_contains state point validity and rectangle
membership rule by rule, one branch per infinity, diagonal and edge case,
for the tests that hold the decorated order of paramhom.diagrams to them.
dense_rref is Gauss-Jordan elimination on the whole dense matrix, one
outer-product update per pivot: the reference for the sparse-row rref.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from typing import Callable, Sequence

import numpy as np

# the one random-module generator, shared with checks.restriction_suite
from paramhom.checks import _random_zigzag as random_zigzag
from paramhom.complexes import ChainComplex, HomologyBasis
from paramhom.diagrams import (BehaviorType, DecoratedDiagram, DecoratedPoint, Decoration,
                               Rectangle)
from paramhom.fieldlin import PrimeField
from paramhom.zigzag import FORWARD, DecompositionError, ZigzagModule


def dense_rref(field: PrimeField, M) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form, every row updated at every pivot."""
    A = field.normalize(M).copy()
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * field.inv_scalar(int(A[r, c])) % field.p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % field.p
        pivots.append(c)
        r += 1
    return A, pivots


def invert(field: PrimeField, A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    R, piv = field.rref(np.hstack([A, field.identity(n)]))
    assert piv == list(range(n)), "matrix not invertible"
    return R[:, n:]


def dense_homology(C: ChainComplex, k: int) -> HomologyBasis:
    """H_k(C) with its projection read off an inverted basis extension.

    The cycle basis is extended to all of C_k by identity columns and the
    extension inverted; the rows dual to the representatives project.
    """
    field = C.field
    Z = field.kernel_basis(C.boundary(k))
    B = field.column_space_basis(C.boundary(k + 1))
    _, pivots = field.rref(np.hstack([B, Z]))
    b_sel = [c for c in pivots if c < B.shape[1]]
    reps = Z[:, [c - B.shape[1] for c in pivots if c >= B.shape[1]]]
    W = np.hstack([B[:, b_sel], reps])
    n = Z.shape[0]
    _, piv = field.rref(np.hstack([W, field.identity(n)]))
    G = np.hstack([W, field.identity(n)[:, [c - W.shape[1] for c in piv if c >= W.shape[1]]]])
    proj = invert(field, G)[len(b_sel):len(b_sel) + reps.shape[1]]
    return HomologyBasis(C, k, reps, proj)


class ChainMap:
    """Degreewise dense matrices commuting with the boundaries (checked)."""

    def __init__(self, src: ChainComplex, tgt: ChainComplex,
                 matrices: dict[int, np.ndarray]):
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
            self.matrices[k] = M
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


def dense_simplicial_map(vmap, src: ChainComplex, tgt: ChainComplex) -> ChainMap:
    """Chain map of a vertex map between two simplicial chain complexes.

    The labels of both complexes are sorted vertex tuples.  A simplex goes
    to the sorted image with sign (-1)^(inversions of the image), or to 0
    when two of its vertices share an image.
    """
    mats = {}
    for k in src.degrees():
        row = {s: i for i, s in enumerate(tgt.labels.get(k, []))}
        M = np.zeros((tgt.dim(k), src.dim(k)), dtype=np.int64)
        for j, s in enumerate(src.labels[k]):
            image = [vmap[v] for v in s]
            if len(set(image)) == len(image):
                inversions = sum(a > b for a, b in itertools.combinations(image, 2))
                M[row[tuple(sorted(image))], j] = (-1) ** inversions
        mats[k] = M
    return ChainMap(src, tgt, mats)


def dense_homology_map(f: ChainMap, src_h: HomologyBasis,
                       tgt_h: HomologyBasis) -> np.ndarray:
    """Matrix of H_k(f): the projection of the pushed representatives."""
    pushed = f.field.matmul(f.matrix(src_h.k), src_h.representatives)
    return f.field.matmul(tgt_h.projection, pushed)


def coordinate_matrix(n: int, kept: Sequence[int]) -> np.ndarray:
    """The n x len(kept) 0/1 matrix including coordinate kept[j] as column j."""
    E = np.zeros((n, len(kept)), dtype=np.int64)
    E[list(kept), list(range(len(kept)))] = 1
    return E


def dense_coordinate_map(C: ChainComplex, src: ChainComplex, src_kept: dict,
                         tgt: ChainComplex, tgt_kept: dict) -> ChainMap:
    """Checked chain map between two coordinate pieces of C.

    Each piece keeps the columns of C listed per degree; the map includes
    the source's columns into C and projects onto the target's.
    """
    mats = {k: coordinate_matrix(C.dim(k), tgt_kept.get(k, [])).T
            @ coordinate_matrix(C.dim(k), src_kept.get(k, []))
            for k in src.degrees()}
    return ChainMap(src, tgt, mats)


def random_invertible(rng: random.Random, field: PrimeField, n: int) -> np.ndarray:
    if n == 0:
        return field.identity(0)
    while True:
        A = np.array([rng.randrange(field.p) for _ in range(n * n)],
                     dtype=np.int64).reshape(n, n)
        if field.rank(A) == n:
            return A


def planted_zigzag(rng: random.Random, field: PrimeField, max_len: int = 6,
                   max_bars: int = 6) -> tuple[ZigzagModule, dict]:
    """A module isomorphic to a known interval sum, in a scrambled basis."""
    n = rng.randint(1, max_len)
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        p = rng.randint(1, n)
        bars.append((p, rng.randint(p, n)))
    bars.sort()
    dims = [sum(1 for (p, q) in bars if p <= i <= q) for i in range(1, n + 1)]
    alive = [[j for j, (p, q) in enumerate(bars) if p <= i <= q] for i in range(1, n + 1)]
    pos = [{j: c for c, j in enumerate(a)} for a in alive]
    change = [random_invertible(rng, field, d) for d in dims]
    arrows = []
    for i in range(n - 1):
        direction = rng.choice("fb")
        if direction == "f":
            M = field.zeros(dims[i + 1], dims[i])
            for j in alive[i]:
                if j in pos[i + 1]:
                    M[pos[i + 1][j], pos[i][j]] = 1
            M = field.matmul(field.matmul(change[i + 1], M), invert(field, change[i]))
        else:
            M = field.zeros(dims[i], dims[i + 1])
            for j in alive[i + 1]:
                if j in pos[i]:
                    M[pos[i][j], pos[i + 1][j]] = 1
            M = field.matmul(field.matmul(change[i], M), invert(field, change[i + 1]))
        arrows.append((direction, M))
    return ZigzagModule(field, dims, arrows), dict(Counter(bars))


def _check_range(Z: ZigzagModule, p: int, q: int) -> None:
    if not (1 <= p <= q <= Z.n):
        raise ValueError(f"interval [{p}, {q}] out of range 1..{Z.n}")


def limit_colimit_rank(Z: ZigzagModule, p: int, q: int) -> int:
    """Rank of the canonical map lim -> colim over the restriction to [p, q].

    The limit is the subspace of the direct sum of V_p..V_q cut out by the
    arrow-compatibility equations; the colimit is the direct sum modulo the
    arrow-difference relations.  A compatible tuple maps to the class of any
    single component (the relations make all components agree, so the first
    one is used; summing them instead would scale the class by q - p + 1,
    which can vanish mod p).  This is the literal construction;
    rank_table computes the same table by a subspace sweep.
    """
    _check_range(Z, p, q)
    fld = Z.field
    dims = Z.dims[p - 1:q]
    total = sum(dims)
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    if total == 0:
        return 0

    span = list(range(p - 1, q - 1))  # 0-based arrow indices inside [p, q]
    eq_rows = sum(Z.dims[i + 1] if Z.arrows[i][0] == FORWARD else Z.dims[i]
                  for i in span)
    L = fld.zeros(eq_rows, total)
    row = 0
    for i in span:
        a, b = i - (p - 1), i + 1 - (p - 1)  # local block indices
        direction, M = Z.arrows[i]
        if direction == FORWARD:
            # f(v_a) - v_b = 0
            L[row:row + dims[b], offs[a]:offs[a + 1]] = M
            L[row:row + dims[b], offs[b]:offs[b + 1]] = (-fld.identity(dims[b])) % fld.p
            row += dims[b]
        else:
            # g(v_b) - v_a = 0
            L[row:row + dims[a], offs[b]:offs[b + 1]] = M
            L[row:row + dims[a], offs[a]:offs[a + 1]] = (-fld.identity(dims[a])) % fld.p
            row += dims[a]
    K = fld.kernel_basis(L) if eq_rows else fld.identity(total)
    # embed the first component of each compatible tuple back into the sum
    lim_img = fld.zeros(total, K.shape[1])
    lim_img[offs[0]:offs[1], :] = K[offs[0]:offs[1], :]

    rel_cols = sum(Z.dims[i] if Z.arrows[i][0] == FORWARD else Z.dims[i + 1]
                   for i in span)
    Rel = fld.zeros(total, rel_cols)
    col = 0
    for i in span:
        a, b = i - (p - 1), i + 1 - (p - 1)
        direction, M = Z.arrows[i]
        if direction == FORWARD:
            # iota_a(v) - iota_b(f v)
            Rel[offs[a]:offs[a + 1], col:col + dims[a]] = fld.identity(dims[a])
            Rel[offs[b]:offs[b + 1], col:col + dims[a]] = (-M) % fld.p
            col += dims[a]
        else:
            Rel[offs[b]:offs[b + 1], col:col + dims[b]] = fld.identity(dims[b])
            Rel[offs[a]:offs[a + 1], col:col + dims[b]] = (-M) % fld.p
            col += dims[b]
    return fld.rank(np.hstack([lim_img, Rel])) - fld.rank(Rel)


def multiplicity(Z: ZigzagModule, p: int, q: int) -> int:
    """Multiplicity of the interval summand I[p, q], by inclusion-exclusion."""
    _check_range(Z, p, q)

    def R(a: int, b: int) -> int:
        if a < 1 or b > Z.n or a > b:
            return 0
        return limit_colimit_rank(Z, a, b)

    m = R(p, q) - R(p - 1, q) - R(p, q + 1) + R(p - 1, q + 1)
    if m < 0:
        raise DecompositionError(f"negative multiplicity {m} at [{p}, {q}]")
    return m


def rank_table(Z: ZigzagModule) -> dict[tuple[int, int], int]:
    """All generalized ranks r(p, q) by a right-to-left subspace sweep.

    For a fixed right endpoint q, propagate two subspaces of V_i from i = q
    down to i = p: E_i (values at i extendable to a compatible tuple over
    [i, q]) and D_i (the kernel of V_i -> colim over [i, q]).  Across a
    forward arrow both pull back; across a backward arrow both push forward.
    Then r(p, q) = dim E_p - dim(E_p intersect D_p), computed as
    rank([E | D]) - rank(D).
    """
    fld = Z.field
    table: dict[tuple[int, int], int] = {}
    for q in range(1, Z.n + 1):
        E = fld.identity(Z.dims[q - 1])
        D = fld.zeros(Z.dims[q - 1], 0)
        table[(q, q)] = Z.dims[q - 1]
        for i in range(q - 1, 0, -1):
            direction, M = Z.arrows[i - 1]
            if direction == FORWARD:
                E = _preimage(fld, M, E)
                D = _preimage(fld, M, D)
            else:
                E = fld.column_space_basis(fld.matmul(M, E))
                D = fld.column_space_basis(fld.matmul(M, D))
            table[(i, q)] = int(fld.rank(np.hstack([E, D])) - fld.rank(D))
    return table


def _preimage(fld: PrimeField, M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Basis of {x : M x in span(W)}."""
    K = fld.kernel_basis(np.hstack([M, W]))
    return fld.column_space_basis(K[:M.shape[1], :])


def rank_table_decompose(Z: ZigzagModule) -> dict[tuple[int, int], int]:
    """Interval multiplicities {(p, q): m > 0} from the whole rank table.

    By inclusion-exclusion,

        m[p, q] = r(p, q) - r(p-1, q) - r(p, q+1) + r(p-1, q+1)

    with out-of-range terms zero: an interval I[a, b] adds 1 to r(p, q)
    exactly when [p, q] lies inside [a, b], whatever the arrow directions.
    The table takes O(n^2) sweep steps, so keep n moderate.
    """
    r = rank_table(Z)

    def R(p: int, q: int) -> int:
        return r.get((p, q), 0)

    mults: dict[tuple[int, int], int] = {}
    for p in range(1, Z.n + 1):
        for q in range(p, Z.n + 1):
            m = R(p, q) - R(p - 1, q) - R(p, q + 1) + R(p - 1, q + 1)
            if m < 0:
                raise DecompositionError(f"negative multiplicity {m} at [{p}, {q}]")
            if m:
                mults[(p, q)] = m
    return mults


def brute_decompose(Z: ZigzagModule) -> dict:
    """Exhaustive search against the independent rank table; asserts a unique
    solution exists (guaranteed mathematically, so failure means a bug)."""
    n = Z.n
    if n == 0:
        return {}
    intervals = [(p, q) for p in range(1, n + 1) for q in range(p, n + 1)]
    table = {(p, q): limit_colimit_rank(Z, p, q) for (p, q) in intervals}
    solutions: list[dict] = []
    assignment: dict = {}
    rem = list(Z.dims)

    def matches_table() -> bool:
        for (p, q) in intervals:
            got = sum(m for (a, b), m in assignment.items() if a <= p and q <= b)
            if got != table[(p, q)]:
                return False
        return True

    def rec(idx: int) -> None:
        if idx == len(intervals):
            if all(v == 0 for v in rem) and matches_table():
                solutions.append({k: v for k, v in assignment.items() if v})
            return
        p, q = intervals[idx]
        # nothing after this point covers nodes below p
        if any(rem[j] for j in range(p - 1)):
            return
        cap = min(rem[p - 1:q])
        for m in range(cap, -1, -1):
            assignment[(p, q)] = m
            for j in range(p - 1, q):
                rem[j] -= m
            rec(idx + 1)
            for j in range(p - 1, q):
                rem[j] += m
        del assignment[(p, q)]

    rec(0)
    assert len(solutions) == 1, f"expected a unique decomposition, found {len(solutions)}"
    return solutions[0]


def brute_bottleneck(a_pts, b_pts) -> float:
    """Exhaustive minimum over all partial matchings (small inputs only).

    Uses the same ground metric as the implementation but replaces the
    matching search with full enumeration.
    """
    from paramhom.bottleneck import diagonal_distance, dinf

    a_pts, b_pts = list(a_pts), list(b_pts)
    best = math.inf

    def rec(i: int, used: frozenset, cur: float) -> None:
        nonlocal best
        if cur >= best and best < math.inf:
            return
        if i == len(a_pts):
            rest = max((diagonal_distance(b_pts[j])
                        for j in range(len(b_pts)) if j not in used),
                       default=0.0)
            best = min(best, max(cur, rest))
            return
        x = a_pts[i]
        rec(i + 1, used, max(cur, diagonal_distance(x)))
        for j in range(len(b_pts)):
            if j not in used:
                rec(i + 1, used | {j}, max(cur, dinf(x, b_pts[j])))

    rec(0, frozenset(), 0.0)
    return best


def slot_bottleneck(a_pts, b_pts) -> float:
    """Bottleneck distance by reduction to perfect bipartite matching.

    The left side is A plus one diagonal slot per point of B, the right
    side is B plus one slot per point of A; diagonal slots pair with their
    own point when that point may stay unmatched, and with each other
    freely.  Each candidate delta is decided by a greedy pass and then
    breadth-first augmenting paths, and a binary search over the sorted
    candidates finds the least feasible one.
    """
    from paramhom.bottleneck import diagonal_distance, dinf

    a_pts, b_pts = list(a_pts), list(b_pts)
    if not a_pts and not b_pts:
        return 0.0
    cost = np.empty((len(a_pts), len(b_pts)))
    for i, x in enumerate(a_pts):
        cost[i] = [dinf(x, y) for y in b_pts]
    diag_a = [diagonal_distance(x) for x in a_pts]
    diag_b = [diagonal_distance(y) for y in b_pts]

    def feasible(delta: float) -> bool:
        na, nb = len(diag_a), len(diag_b)
        size = na + nb
        adj: list[list[int]] = []
        for i in range(na):
            row = np.flatnonzero(cost[i] <= delta).tolist()
            if diag_a[i] <= delta:
                row.append(nb + i)
            adj.append(row)
        diag_row = list(range(nb, size))
        for j in range(nb):
            row = list(diag_row)
            if diag_b[j] <= delta:
                row.append(j)
            adj.append(row)

        match_right, match_left = [-1] * size, [-1] * size

        def augment(root: int) -> bool:
            # breadth-first search for an augmenting path, with no recursion;
            # reached[v] is the left vertex that reached right vertex v
            reached = [-1] * size
            queue = [root]
            for u in queue:
                for v in adj[u]:
                    if reached[v] == -1:
                        reached[v] = u
                        if match_right[v] == -1:
                            while v != -1:  # flip the path back to the root
                                u = reached[v]
                                match_right[v], match_left[u], v = u, v, match_left[u]
                            return True
                        queue.append(match_right[v])
            return False

        # greedy pass first; a vertex with no augmenting path never gains one
        # as the matching grows, so the first failure decides
        unmatched = []
        for u in range(size):
            v = next((v for v in adj[u] if match_right[v] == -1), -1)
            if v == -1:
                unmatched.append(u)
            else:
                match_right[v], match_left[u] = u, v
        return all(augment(u) for u in unmatched)

    ordered = np.unique(np.concatenate([cost.ravel(), diag_a, diag_b, [0.0, math.inf]]))
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(ordered[lo])


def five_rule_valid(p: float, pdec: Decoration, q: float, qdec: Decoration) -> bool:
    """Point validity as five separate rules on values and decorations."""
    if not p <= q:
        return False
    if p == math.inf or q == -math.inf:
        return False
    if p == -math.inf and pdec is not Decoration.PLUS:
        return False
    if q == math.inf and qdec is not Decoration.MINUS:
        return False
    if p == q and (pdec, qdec) != (Decoration.MINUS, Decoration.PLUS):
        return False
    return True


def edge_rule_contains(R: Rectangle, pt: DecoratedPoint) -> bool:
    """Membership as a closed range test, then one decoration rule per edge."""
    if not (R.a <= pt.p <= R.b and R.c <= pt.q <= R.d):
        return False
    if pt.p == R.a and pt.pdec is not Decoration.PLUS:
        return False
    if pt.p == R.b and pt.pdec is not Decoration.MINUS:
        return False
    if pt.q == R.c and pt.qdec is not Decoration.PLUS:
        return False
    if pt.q == R.d and pt.qdec is not Decoration.MINUS:
        return False
    return True


class MeasureNotAdditiveError(Exception):
    """A rectangle measure failed an additivity split-check."""


def _split_points(lo: float, hi: float) -> float:
    if lo == -math.inf:
        return hi - 1.0
    if hi == math.inf:
        return lo + 1.0
    return (lo + hi) / 2.0


def _checked(measure: Callable[[Rectangle], int], R: Rectangle) -> int:
    """Evaluate the measure and verify additivity under one vertical and one
    horizontal split of R."""
    v = measure(R)
    x = _split_points(R.a, R.b)
    if R.a < x < R.b:
        left = measure(Rectangle(R.a, x, R.c, R.d))
        right = measure(Rectangle(x, R.b, R.c, R.d))
        if left + right != v:
            raise MeasureNotAdditiveError(
                f"vertical split of {R!r} at {x}: {left} + {right} != {v}")
    y = _split_points(R.c, R.d)
    if R.c < y < R.d:
        low = measure(Rectangle(R.a, R.b, R.c, y))
        high = measure(Rectangle(R.a, R.b, y, R.d))
        if low + high != v:
            raise MeasureNotAdditiveError(
                f"horizontal split of {R!r} at {y}: {low} + {high} != {v}")
    return v


def extract_diagram(measure: Callable[[Rectangle], int],
                    critical_values: Sequence[float],
                    btype: BehaviorType) -> DecoratedDiagram:
    """Read a decorated diagram off a rectangle measure.

    Feature endpoints of a constructible space sit at critical values (or at
    infinity for open ends), so the content of the measure is recovered by
    probing one small rectangle per candidate endpoint pair.  The probe
    half-width is a quarter of the minimal critical gap: small enough that a
    probe touches no other critical value and stays below the diagonal even
    for adjacent candidates.  Every probe is additivity-checked by splitting
    it once in each direction.

    Raises:
        MeasureNotAdditiveError: if a split-check fails.
    """
    vals = sorted(set(float(v) for v in critical_values))
    if not vals:
        return DecoratedDiagram()
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    eps = min(gaps) / 4.0 if gaps else 1.0
    pdec, qdec = btype.decorations

    p_candidates: list[float] = list(vals)
    if not btype.left_closed:
        p_candidates = [-math.inf] + p_candidates
    q_candidates: list[float] = list(vals)
    if not btype.right_closed:
        q_candidates = q_candidates + [math.inf]

    diagram = DecoratedDiagram()
    for pc in p_candidates:
        for qc in q_candidates:
            if not pc < qc:
                continue
            if pc == -math.inf:
                pa, pb = -math.inf, vals[0] - eps
            elif btype.left_closed:
                pa, pb = pc - eps, pc
            else:
                pa, pb = pc, pc + eps
            if qc == math.inf:
                qa, qb = vals[-1] + eps, math.inf
            elif btype.right_closed:
                qa, qb = qc, qc + eps
            else:
                qa, qb = qc - eps, qc
            if not pb < qa:
                continue  # no feature can have this endpoint pair
            m = _checked(measure, Rectangle(pa, pb, qa, qb))
            if m:
                diagram.add(DecoratedPoint(pc, pdec, qc, qdec), m)
    return diagram
