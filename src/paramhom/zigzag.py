"""Zigzag modules over F_p and their interval decomposition.

A zigzag module is a sequence of based vector spaces V_1, ..., V_n with an
arrow between each consecutive pair, pointing either forward (V_i -> V_{i+1})
or backward (V_{i+1} -> V_i).  Node indices are 1-based throughout the public
API, matching the interval notation [p, q].

The interval multiplicity of [p, q] is recovered from generalized ranks by
inclusion-exclusion:

    m[p, q] = r(p, q) - r(p-1, q) - r(p, q+1) + r(p-1, q+1)

where r(p, q) is the rank of the canonical map lim -> colim of the module
restricted to [p, q], and out-of-range terms are zero.  This works because
an interval I[a, b] contributes 1 to r(p, q) exactly when [p, q] is inside
[a, b], regardless of arrow directions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """The rank data is inconsistent with any interval decomposition."""


@dataclass
class ZigzagModule:
    field: PrimeField
    dims: list[int]
    arrows: list[tuple[str, np.ndarray]]
    annotations: tuple | None = None

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


def _rank_table(Z: ZigzagModule) -> dict[tuple[int, int], int]:
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


def decompose(Z: ZigzagModule) -> dict[tuple[int, int], int]:
    """Interval multiplicities {(p, q): m} with every m > 0.

    Raises:
        DecompositionError: if inclusion-exclusion produces a negative
            multiplicity or the result fails the per-node dimension count
            (either would mean the input is not a valid zigzag module).
    """
    if Z.n == 0:
        return {}
    r = _rank_table(Z)

    def R(p: int, q: int) -> int:
        return r.get((p, q), 0)

    mults: dict[tuple[int, int], int] = {}
    for pp in range(1, Z.n + 1):
        for qq in range(pp, Z.n + 1):
            m = R(pp, qq) - R(pp - 1, qq) - R(pp, qq + 1) + R(pp - 1, qq + 1)
            if m < 0:
                raise DecompositionError(f"negative multiplicity {m} at [{pp}, {qq}]")
            if m:
                mults[(pp, qq)] = m
    for i in range(1, Z.n + 1):
        total = sum(m for (pp, qq), m in mults.items() if pp <= i <= qq)
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
    ann = None
    if Z.annotations is not None:
        ann = tuple(a for i, a in enumerate(Z.annotations, start=1) if i != k)
    return ZigzagModule(Z.field, dims, arrows, ann)


def dualize(Z: ZigzagModule) -> ZigzagModule:
    """Reverse every arrow and transpose its matrix (linear dual, same order)."""
    arrows = [(BACKWARD if d == FORWARD else FORWARD, M.T.copy())
              for d, M in Z.arrows]
    return ZigzagModule(Z.field, list(Z.dims), arrows, Z.annotations)
