"""Bottleneck distance between undecorated diagrams, and the stability check.

Points live in the extended plane.  Two equal infinite coordinates are at
distance 0, an infinite coordinate facing a finite one is at distance +inf,
so bars with matching infinite ends compare by their finite ends and
mismatched infinite bars can never be matched (nor parked on the diagonal)
at finite cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .diagrams import BehaviorType, undecorate
from .levelset import all_diagrams
from .rspace import ConstructibleRSpace

__all__ = [
    "dinf",
    "diagonal_distance",
    "bottleneck_distance",
    "StabilityRecord",
    "stability_report",
]

Point = tuple[float, float]


def _diff(u: float, v: float) -> float:
    if u == v:
        return 0.0  # covers equal infinities
    if math.isinf(u) or math.isinf(v):
        return math.inf
    return abs(u - v)


def dinf(x: Point, y: Point) -> float:
    """l-infinity distance with the extended-plane infinity conventions."""
    return max(_diff(x[0], y[0]), _diff(x[1], y[1]))


def diagonal_distance(x: Point) -> float:
    """Cost of leaving x unmatched: its distance to the diagonal."""
    p, q = x
    if math.isinf(p) or math.isinf(q):
        return math.inf
    return (q - p) / 2.0


def _expand(D: Mapping[Point, int] | Iterable[Point]) -> list[Point]:
    items = D.items() if isinstance(D, Mapping) else ((pt, 1) for pt in D)
    pts = []
    for (p, q), m in items:
        p, q = float(p), float(q)
        if m < 0:
            raise ValueError("negative multiplicity")
        if not p <= q:  # also refuses a NaN coordinate
            raise ValueError(f"need p <= q, got ({p}, {q})")
        pts.extend([(p, q)] * m)
    return pts


def _covers(near: np.ndarray) -> bool:
    """Can each row of near take a distinct column that it marks True?"""
    adj = [np.flatnonzero(row).tolist() for row in near]
    n_right = near.shape[1]
    match_right, match_left = [-1] * n_right, [-1] * len(adj)

    def augment(root: int) -> bool:
        # breadth-first search for an augmenting path, with no recursion;
        # reached[v] is the left vertex that reached right vertex v
        reached = [-1] * n_right
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

    # a vertex with no augmenting path never gains one as the matching
    # grows, so the first failure decides
    return all(augment(u) for u in range(len(adj)))


def _feasible(cost: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray,
              delta: float) -> bool:
    """Is there a partial matching of cost <= delta?

    cost[i][j] is the distance from point i of A to point j of B, and
    diag_a, diag_b the distances of the points to the diagonal.  The points
    farther than delta from the diagonal must be matched.  One matching of
    the delta-graph covering those of A and another covering those of B
    combine into one covering both (Mendelsohn-Dulmage), so two one-sided
    checks decide.
    """
    near = cost <= delta
    return _covers(near[diag_a > delta]) and _covers(near.T[diag_b > delta])


def bottleneck_distance(A, B) -> float:
    """Minimal cost of a partial matching between two undecorated diagrams.

    Arguments are multisets of (p, q) pairs, as mappings to multiplicities
    or as point iterables.  The optimum is attained at one of the pairwise
    distances or diagonal distances, so a binary search over that candidate
    set is exact.

    Raises:
        ValueError: on a negative multiplicity, a point with p > q or a
            NaN coordinate, or when the finite coordinates span more than
            the largest float.
    """
    a_pts, b_pts = _expand(A), _expand(B)
    if not a_pts and not b_pts:
        return 0.0
    finite = [c for pt in a_pts + b_pts for c in pt if math.isfinite(c)]
    if finite and math.isinf(max(finite) - min(finite)):
        raise ValueError("diagram coordinates span more than the float range")
    cost = np.empty((len(a_pts), len(b_pts)))
    for i, x in enumerate(a_pts):
        cost[i] = [dinf(x, y) for y in b_pts]
    diag_a = np.array([diagonal_distance(x) for x in a_pts])
    diag_b = np.array([diagonal_distance(y) for y in b_pts])
    ordered = np.unique(np.concatenate([cost.ravel(), diag_a, diag_b, [0.0, math.inf]]))
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(cost, diag_a, diag_b, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(ordered[lo])


@dataclass(frozen=True)
class StabilityRecord:
    distance: float
    delta: float
    passed: bool


def _same_combinatorics(X: ConstructibleRSpace, Y: ConstructibleRSpace) -> bool:
    return (X.field == Y.field
            and X.n_critical == Y.n_critical
            and X.vertex_complexes == Y.vertex_complexes
            and X.edge_complexes == Y.edge_complexes
            and X.left_maps == Y.left_maps
            and X.right_maps == Y.right_maps)


def stability_report(X: ConstructibleRSpace, Y: ConstructibleRSpace,
                     tolerance: float = 1e-9
                     ) -> dict[tuple[int, BehaviorType], StabilityRecord]:
    """Compare the diagrams of two spaces differing only in critical values.

    delta is the sup-norm distance between the two parameter functions; for
    each degree and behaviour type the bottleneck distance of the
    undecorated diagrams must be at most delta.

    Raises:
        ValueError: if the spaces differ in anything but their values,
            the tolerance is negative or NaN, or values or diagram
            coordinates lie farther apart than the largest float.
    """
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    if not _same_combinatorics(X, Y):
        raise ValueError("spaces must share field, complexes and attaching maps")
    delta = max(abs(a - b) for a, b in zip(X.critical_values, Y.critical_values))
    if not math.isfinite(delta):
        raise ValueError("critical values differ by more than the float range")
    report = {}
    for k in range(max(X.max_piece_dimension(), 0) + 2):
        DX, DY = all_diagrams(X, k), all_diagrams(Y, k)
        for t in BehaviorType:
            d = bottleneck_distance(undecorate(DX[t]), undecorate(DY[t]))
            report[(k, t)] = StabilityRecord(d, delta, d <= delta + tolerance)
    return report
