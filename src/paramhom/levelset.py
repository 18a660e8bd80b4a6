"""Levelset zigzag of a constructible space and its decorated diagrams.

For a space with n critical values the degree-k levelset zigzag has 2n + 1
nodes, alternating gap fibers and critical fibers:

    F_0  ->  S_1  <-  F_1  ->  S_2  <-  ...  ->  S_n  <-  F_n

where S_i is the fiber at the i-th critical value, F_i is the fiber over the
open gap above it (F_0 below the first value and F_n above the last one are
empty), and every arrow is induced by the attachment of a gap fiber to the
critical fiber it abuts.  Decomposing this module and reading each
interval's ends off the decorated reals its end nodes span yields the four
decorated diagrams.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .diagrams import BehaviorType, DecoratedDiagram, DecoratedPoint, Decoration
from .rspace import ConstructibleRSpace
from .zigzag import BACKWARD, FORWARD, ZigzagModule, decompose

__all__ = ["levelset_zigzag", "translate", "all_diagrams"]


def levelset_zigzag(X: ConstructibleRSpace, k: int) -> ZigzagModule:
    """Degree-k levelset zigzag module of X.

    Node 2i + 1 (1-based) is the gap fiber F_i above the i-th critical value
    (F_0 and F_n are empty) and node 2i the fiber S_i at it, i from 1.
    """
    n = X.n_critical
    v = [X.piece_homology(("V", i), k).rank for i in range(n)]
    e = [0] + [X.piece_homology(("E", i), k).rank for i in range(n - 1)] + [0]
    dims = [d for pair in zip(e, v) for d in pair] + [0]
    arrows: list[tuple[str, np.ndarray]] = []
    for i in range(n):
        empty = np.zeros((v[i], 0), dtype=np.int64)
        arrows.append((FORWARD, X.attachment_homology_map(i - 1, "right", k) if i > 0 else empty))
        arrows.append((BACKWARD, X.attachment_homology_map(i, "left", k) if i < n - 1 else empty))
    return ZigzagModule(X.field, dims, arrows)


def translate(multiplicities: Mapping[tuple[int, int], int],
              critical_values: Sequence[float]
              ) -> dict[BehaviorType, DecoratedDiagram]:
    """Turn an interval decomposition of a levelset zigzag into diagrams.

    Keys of `multiplicities` are 1-based node position pairs on the 2n + 1
    node module over the given critical values.  Node j spans the decorated
    reals from ends[j - 1] to ends[j]: the fiber at a critical value a spans
    a^- to a^+, a gap fiber between a and b spans a^+ to b^-, and the outer
    gaps run from -inf^+ and to +inf^-.  The interval [lo, hi] is the
    decorated point (ends[lo - 1], ends[hi]).
    """
    vals = [float(v) for v in critical_values]
    n = len(vals)
    plus, minus = Decoration.PLUS, Decoration.MINUS
    ends = ([(-math.inf, plus)] + [(v, dec) for v in vals for dec in (minus, plus)]
            + [(math.inf, minus)])
    out = {t: DecoratedDiagram() for t in BehaviorType}
    for (lo, hi), mult in sorted(multiplicities.items()):
        if mult == 0:
            continue
        if not (1 <= lo <= hi <= 2 * n + 1):
            raise ValueError(f"interval [{lo}, {hi}] out of range for n={n}")
        pt = DecoratedPoint(*ends[lo - 1], *ends[hi])
        out[pt.behavior_type].add(pt, mult)
    return out


def all_diagrams(X: ConstructibleRSpace, k: int
                 ) -> dict[BehaviorType, DecoratedDiagram]:
    """Decorated diagrams of X in degree k, one per behaviour type."""
    return translate(decompose(levelset_zigzag(X, k)), X.critical_values)
