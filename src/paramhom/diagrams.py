"""Decorated persistence diagrams and rectangles.

A feature interval has one of four endpoint behaviours, encoded as a
BehaviorType: each end is closed (the feature is present at the endpoint
value) or open (it vanishes there).  A decorated point stores the endpoint
values plus one decoration per coordinate; the decoration says on which side
of a rectangle edge the point is counted:

    pdec = "+"  counts when p lies on the left edge  (open left end),
    pdec = "-"  counts when p lies on the right edge (closed left end),
    qdec = "+"  counts when q lies on the bottom edge (closed right end),
    qdec = "-"  counts when q lies on the top edge    (open right end).

Consequently the decoration pair determines the behaviour type and vice
versa, which is the content of the decoration-typing check in the test
suite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

__all__ = [
    "BehaviorType",
    "Decoration",
    "DecoratedPoint",
    "DecoratedDiagram",
    "Rectangle",
    "contains",
    "undecorate",
]


class Decoration(Enum):
    PLUS = "+"
    MINUS = "-"


class BehaviorType(Enum):
    """Endpoint behaviour of a feature interval: "c"losed or "o"pen (left, right)."""

    OPEN_OPEN = "oo"
    CLOSED_OPEN = "co"
    OPEN_CLOSED = "oc"
    CLOSED_CLOSED = "cc"

    @staticmethod
    def of(left_closed: bool, right_closed: bool) -> "BehaviorType":
        """The type whose left and right ends are closed as given."""
        return BehaviorType("oc"[left_closed] + "oc"[right_closed])

    @property
    def left_closed(self) -> bool:
        return self.value[0] == "c"

    @property
    def right_closed(self) -> bool:
        return self.value[1] == "c"

    @property
    def decorations(self) -> tuple[Decoration, Decoration]:
        pdec = Decoration.MINUS if self.left_closed else Decoration.PLUS
        qdec = Decoration.PLUS if self.right_closed else Decoration.MINUS
        return pdec, qdec

    @staticmethod
    def from_decorations(pdec: Decoration, qdec: Decoration) -> "BehaviorType":
        return BehaviorType.of(pdec is Decoration.MINUS, qdec is Decoration.PLUS)

    def interval_str(self, p: float, q: float) -> str:
        lo = "[" if self.left_closed else "("
        hi = "]" if self.right_closed else ")"
        return f"{lo}{p}, {q}{hi}"


@dataclass(frozen=True)
class DecoratedPoint:
    p: float
    pdec: Decoration
    q: float
    qdec: Decoration

    def __post_init__(self):
        if not self.p <= self.q:
            raise ValueError(f"need p <= q, got ({self.p}, {self.q})")
        if self.p == math.inf or self.q == -math.inf:
            raise ValueError("p must be < +inf and q > -inf")
        if self.p == -math.inf and self.pdec is not Decoration.PLUS:
            raise ValueError("a feature extending to -inf has no closed left end")
        if self.q == math.inf and self.qdec is not Decoration.MINUS:
            raise ValueError("a feature extending to +inf has no closed right end")
        if self.p == self.q and (self.pdec, self.qdec) != (Decoration.MINUS, Decoration.PLUS):
            raise ValueError("a width-zero feature is closed at both ends")

    @property
    def behavior_type(self) -> BehaviorType:
        return BehaviorType.from_decorations(self.pdec, self.qdec)

    def sort_key(self):
        return (self.p, self.q, self.pdec.value, self.qdec.value)

    def __repr__(self) -> str:
        return f"<{self.behavior_type.interval_str(self.p, self.q)}>"


@dataclass(frozen=True)
class Rectangle:
    """[a, b] x [c, d] with a < b < c < d; a may be -inf, d may be +inf."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a < self.b < self.c < self.d):
            raise ValueError(f"invalid rectangle [{self.a}, {self.b}] x [{self.c}, {self.d}]")
        if not (math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError("the inner corners b, c must be finite")

    def is_regular(self, critical_values: Sequence[float]) -> bool:
        crit = set(critical_values)
        return not any(v in crit for v in (self.a, self.b, self.c, self.d)
                       if math.isfinite(v))

    def __repr__(self) -> str:
        return f"Rectangle([{self.a}, {self.b}] x [{self.c}, {self.d}])"


def contains(R: Rectangle, pt: DecoratedPoint) -> bool:
    """Decorated membership of a point in a rectangle.

    Interior points always count; a point on an edge counts only when its
    decoration points into the rectangle.
    """
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


class DecoratedDiagram:
    """Multiset of decorated points."""

    def __init__(self, points: Mapping[DecoratedPoint, int] | Iterable[DecoratedPoint] = ()):
        if isinstance(points, Mapping):
            self._points = Counter({k: int(v) for k, v in points.items() if v})
        else:
            self._points = Counter(points)
        if any(m < 0 for m in self._points.values()):
            raise ValueError("multiplicities must be nonnegative")

    def add(self, pt: DecoratedPoint, multiplicity: int = 1) -> None:
        if multiplicity < 0:
            raise ValueError("multiplicities must be nonnegative")
        self._points[pt] += multiplicity

    def points(self) -> list[tuple[DecoratedPoint, int]]:
        return sorted(((p, m) for p, m in self._points.items() if m),
                      key=lambda pm: pm[0].sort_key())

    def multiplicity(self, pt: DecoratedPoint) -> int:
        return self._points.get(pt, 0)

    def count_in(self, R: Rectangle) -> int:
        return sum(m for p, m in self._points.items() if m and contains(R, p))

    def off_diagonal(self) -> "DecoratedDiagram":
        """Copy without the width-zero points (which no rectangle contains)."""
        return DecoratedDiagram({p: m for p, m in self._points.items() if p.p < p.q})

    def total(self) -> int:
        return sum(m for m in self._points.values() if m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecoratedDiagram):
            return NotImplemented
        return self.points() == other.points()

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}: {m}" for p, m in self.points())
        return f"DecoratedDiagram({{{inner}}})"


def undecorate(D: DecoratedDiagram) -> Counter:
    """Forget decorations: multiset of (p, q) pairs."""
    out: Counter = Counter()
    for pt, m in D.points():
        out[(pt.p, pt.q)] += m
    return out
