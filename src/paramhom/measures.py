"""The four rectangle measures of parametrized homology.

A rectangle R = [a, b] x [c, d] below the diagonal selects a 7-node zigzag

    X_a^a -> X_a^b <- X_b^b -> X_b^c <- X_c^c -> X_c^d <- X_d^d

of fibers and slices.  Decomposing its degree-k homology into intervals,
four multiplicities classify how a feature alive on [b, c] behaves at the
two ends: "killed" at an end means it stops at the fiber node (interval ends
at position 3 or 5), "expired" means it survives the outer slice but not
the outer fiber (interval ends at 2 or 6).  The measure of each behaviour
type is the corresponding interval multiplicity, and `measure_profile`
reads all four from one decomposition.

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


def rectangle_module(X: ConstructibleRSpace, k: int, R: Rectangle) -> ZigzagModule:
    """Degree-k homology zigzag over the corners of R."""
    a, b, c, d = R.a, R.b, R.c, R.d
    h_ab, into_ab_from_a, into_ab_from_b = X.slice_homology(a, b, k)
    h_bc, into_bc_from_b, into_bc_from_c = X.slice_homology(b, c, k)
    h_cd, into_cd_from_c, into_cd_from_d = X.slice_homology(c, d, k)
    dims = (
        X.fiber_homology(a, k).rank, h_ab.rank,
        X.fiber_homology(b, k).rank, h_bc.rank,
        X.fiber_homology(c, k).rank, h_cd.rank,
        X.fiber_homology(d, k).rank,
    )
    arrows = [
        (FORWARD, into_ab_from_a),
        (BACKWARD, into_ab_from_b),
        (FORWARD, into_bc_from_b),
        (BACKWARD, into_bc_from_c),
        (FORWARD, into_cd_from_c),
        (BACKWARD, into_cd_from_d),
    ]
    return ZigzagModule(X.field, dims, arrows)


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
    h, into_from_b, into_from_c = X.slice_homology(b, c, k)
    dims = (X.fiber_homology(b, k).rank, h.rank, X.fiber_homology(c, k).rank)
    Z = ZigzagModule(X.field, dims,
                     [(FORWARD, into_from_b), (BACKWARD, into_from_c)])
    return decompose(Z).get((1, 3), 0)
