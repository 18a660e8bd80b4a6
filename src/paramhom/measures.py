"""The four rectangle measures of parametrized homology.

A rectangle R = [a, b] x [c, d] below the diagonal selects a 7-node zigzag

    X_a^a -> X_a^b <- X_b^b -> X_b^c <- X_c^c -> X_c^d <- X_d^d

of fibers and slices, read from `X.slice_homology` alone: each slice comes
with the maps from its two end fibers.  Decomposing its degree-k homology
into intervals, four multiplicities classify how a feature alive on [b, c]
behaves at the two ends: "killed" at an end means it stops at the fiber node
(interval ends at position 3 or 5), "expired" means it survives the outer
slice but not the outer fiber (interval ends at 2 or 6).  The measure of
each behaviour type is the corresponding interval multiplicity, and
`measure_profile` reads all four from one decomposition.

The same numbers are obtained by counting decorated diagram points inside R
(`DecoratedDiagram.count_in`), and the test suite exercises the agreement
of the two routes.
"""

from __future__ import annotations

from .diagrams import BehaviorType, Rectangle
from .rspace import ConstructibleRSpace
from .zigzag import BACKWARD, FORWARD, ZigzagModule, decompose

__all__ = [
    "PATTERNS",
    "rectangle_module",
    "measure_profile",
    "full_bar_count",
]

# Interval of the 7-node zigzag counted by each behaviour type (1-based
# node positions).
PATTERNS: dict[BehaviorType, tuple[int, int]] = {
    BehaviorType.OPEN_OPEN: (3, 5),
    BehaviorType.CLOSED_OPEN: (2, 5),
    BehaviorType.OPEN_CLOSED: (3, 6),
    BehaviorType.CLOSED_CLOSED: (2, 6),
}


def _slice_zigzag(X: ConstructibleRSpace, k: int, corners) -> ZigzagModule:
    """F_t0 -> S_t0t1 <- F_t1 -> ... <- F_tm over corners t0 < ... < tm.

    A fiber's rank is the width of the arrows out of it.
    """
    dims, arrows = [], []
    for p, q in zip(corners, corners[1:]):
        h, from_p, from_q = X.slice_homology(p, q, k)
        dims += [from_p.shape[1], h.rank]
        arrows += [(FORWARD, from_p), (BACKWARD, from_q)]
    return ZigzagModule(X.field, dims + [from_q.shape[1]], arrows)


def rectangle_module(X: ConstructibleRSpace, k: int, R: Rectangle) -> ZigzagModule:
    """Degree-k homology zigzag over the corners of R."""
    return _slice_zigzag(X, k, (R.a, R.b, R.c, R.d))


def measure_profile(X: ConstructibleRSpace, k: int, R: Rectangle
                    ) -> dict[BehaviorType, int]:
    """All four measures of R from a single decomposition."""
    mult = decompose(rectangle_module(X, k, R))
    return {t: mult.get(span, 0) for t, span in PATTERNS.items()}


def full_bar_count(X: ConstructibleRSpace, k: int, b: float, c: float) -> int:
    """Multiplicity of the full bar in the 3-node zigzag X_b^b -> X_b^c <- X_c^c.

    This counts features alive across all of [b, c] and bounds the sum of
    the four measures over any rectangle with inner corners b, c.
    """
    if not b < c:
        raise ValueError(f"need b < c, got [{b}, {c}]")
    return decompose(_slice_zigzag(X, k, (b, c))).get((1, 3), 0)
