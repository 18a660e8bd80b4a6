"""Zigzag modules over F_p and their interval decomposition.

A zigzag module is a sequence of based vector spaces V_1, ..., V_n with an
arrow between each consecutive pair, pointing either forward (V_i -> V_{i+1})
or backward (V_{i+1} -> V_i).  Node indices are 1-based throughout the public
API, matching the interval notation [p, q].

decompose reads the intervals in one left-to-right pass, after the
right-filtration algorithm of Carlsson and de Silva ("Zigzag persistence",
2010, section 4).  The pass keeps a basis P of the current node V_i in
which every column spans the node-i part of one interval summand of
V_1 .. V_i, and records the birth node of each.  The columns are kept in
age order: classes born at a backward arrow (kernel-born) first, newest
first, then classes born at a forward arrow (cokernel-born), oldest first.
In that order any column may be changed by adding earlier columns to it,
because the interval of an earlier column always maps into the interval of
a later one with the same right end.  So the pass may eliminate left to
right:

- forward arrow M: the columns of M P that depend on earlier ones mark
  classes whose adjusted vector lies in the kernel; they die at i.  The
  independent columns carry their classes on to V_{i+1}, and a completion
  to a basis of V_{i+1} is born at i + 1, at the back;
- backward arrow M: column-reduce C = P^-1 M so that the lowest nonzero
  rows (lows) are distinct.  Zero columns are the kernel, born at i + 1, at
  the front; a reduced column continues the class of its low, and a class
  that is no column's low is not in the image and dies at i.

Each arrow costs at most two eliminations of a matrix with one node's
dimensions, so n nodes of dimension at most d take O(n d^3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .fieldlin import PrimeField

__all__ = [
    "ZigzagModule",
    "DecompositionError",
    "decompose",
    "coarsen",
    "dualize",
]

FORWARD = "f"
BACKWARD = "b"


class DecompositionError(Exception):
    """The interval multiplicities do not add up to the node dimensions."""


@dataclass
class ZigzagModule:
    field: PrimeField
    dims: list[int]
    arrows: list[tuple[str, np.ndarray]]

    def __post_init__(self):
        self.dims = [int(d) for d in self.dims]
        if len(self.arrows) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly one arrow per consecutive pair")
        fixed = []
        for i, (direction, M) in enumerate(self.arrows):
            M = self.field.normalize(M)
            if direction == FORWARD:
                want = (self.dims[i + 1], self.dims[i])
            elif direction == BACKWARD:
                want = (self.dims[i], self.dims[i + 1])
            else:
                raise ValueError(f"unknown arrow direction {direction!r}")
            if M.shape != want:
                raise ValueError(f"arrow {i}: shape {M.shape} != {want}")
            fixed.append((direction, M))
        self.arrows = fixed
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")

    @property
    def n(self) -> int:
        return len(self.dims)

    def __repr__(self) -> str:
        pat = "".join("." if i == 0 else self.arrows[i - 1][0] for i in range(self.n))
        return f"ZigzagModule(dims={self.dims}, pattern={pat!r})"


def decompose(Z: ZigzagModule) -> dict[tuple[int, int], int]:
    """Interval multiplicities {(p, q): m} with every m > 0, sorted by (p, q).

    One left-to-right pass; see the module docstring.  At most two rref
    calls per arrow.

    Raises:
        DecompositionError: if the result fails the per-node dimension count
            (a postcondition: it would mean a bug, not a bad input).
    """
    if Z.n == 0:
        return {}
    fld = Z.field
    bars: Counter = Counter()
    P = fld.identity(Z.dims[0])  # basis of the current node, in age order
    births = [1] * Z.dims[0]     # birth node of each column of P
    for i, (direction, M) in enumerate(Z.arrows, start=1):
        d, dn = P.shape[1], Z.dims[i]
        if direction == FORWARD:
            MP, I = fld.matmul(M, P), fld.identity(dn)
            _, pivots = fld.rref(np.hstack([MP, I]))
            kept = [c for c in pivots if c < d]
            born = [c - d for c in pivots if c >= d]
            bars.update((births[c], i) for c in set(range(d)).difference(kept))
            P = np.hstack([MP[:, kept], I[:, born]])
            births = [births[c] for c in kept] + [i + 1] * len(born)
        else:
            R, _ = fld.rref(np.hstack([P, M]))
            C = R[:, d:]  # P^-1 M: the arrow in the coordinates of P
            # column-reduce C by lowest nonzero row: a row reduction of C^T
            # with the rows of C reversed, so the leading entry is the low
            R, pivots = fld.rref(np.hstack([C[::-1].T, fld.identity(dn)]))
            kernel = [r for r, c in enumerate(pivots) if c >= d]
            # rows come sorted by pivot, so by decreasing low; reverse to
            # keep the surviving classes in the order of P
            survivors = [r for r, c in enumerate(pivots) if c < d][::-1]
            lows = [d - 1 - pivots[r] for r in survivors]
            bars.update((births[c], i) for c in set(range(d)).difference(lows))
            P = R[kernel + survivors, d:].T
            births = [i + 1] * len(kernel) + [births[c] for c in lows]
    bars.update((b, Z.n) for b in births)
    mults = dict(sorted(bars.items()))
    steps = [0] * (Z.n + 2)
    for (p, q), m in mults.items():
        steps[p] += m
        steps[q + 1] -= m
    for i, total in enumerate(accumulate(steps[1:Z.n + 1]), start=1):
        if total != Z.dims[i - 1]:
            raise DecompositionError(
                f"node {i}: interval multiplicities sum to {total}, dimension is {Z.dims[i - 1]}")
    return mults


def coarsen(Z: ZigzagModule, k: int) -> ZigzagModule:
    """Drop interior node k (1-based) when its two arrows share a direction.

    The two arrows are replaced by their composite; by the restriction
    principle the decomposition of the result is the pushforward of the
    original decomposition.

    Raises:
        ValueError: if k is not interior or the adjacent arrows disagree.
    """
    if not (1 < k < Z.n):
        raise ValueError(f"node {k} is not interior")
    (d1, M1), (d2, M2) = Z.arrows[k - 2], Z.arrows[k - 1]
    if d1 != d2:
        raise ValueError(f"arrows around node {k} point in different directions")
    if d1 == FORWARD:
        comp = Z.field.matmul(M2, M1)  # V_{k-1} -> V_k -> V_{k+1}
    else:
        comp = Z.field.matmul(M1, M2)  # V_{k+1} -> V_k -> V_{k-1}
    dims = Z.dims[:k - 1] + Z.dims[k:]
    arrows = Z.arrows[:k - 2] + [(d1, comp)] + Z.arrows[k:]
    return ZigzagModule(Z.field, dims, arrows)


def dualize(Z: ZigzagModule) -> ZigzagModule:
    """Reverse every arrow and transpose its matrix (linear dual, same order)."""
    arrows = [(BACKWARD if d == FORWARD else FORWARD, M.T.copy())
              for d, M in Z.arrows]
    return ZigzagModule(Z.field, list(Z.dims), arrows)
