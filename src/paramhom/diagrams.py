"""Decorated persistence diagrams and rectangles.

A feature interval has one of four endpoint behaviours, encoded as a
BehaviorType: each end is closed (the feature is present at the endpoint
value) or open (it vanishes there).  A decorated point (p*, q*) stores each
end as a decorated real, x^- just below x or x^+ just above it, so that
y < x^- < x < x^+ < z whenever y < x < z (the decorated reals of Chazal, de
Silva, Glisse and Oudot, "The Structure and Stability of Persistence
Modules").  A closed left end is p^- and an open one p^+; a closed right
end is q^+ and an open one q^-; an infinite end is open, -inf^+ or +inf^-.
One order then decides validity and rectangle membership:

    (p*, q*) is a point               iff  p* < q*,
    (p*, q*) lies in [a, b] x [c, d]  iff  a < p* < b  and  c < q* < d,

so a point on a rectangle edge counts exactly when its decoration points
into the rectangle, and the rectangle measures of a space equal its diagram
counts on every rectangle, corners on critical values included.  The
decoration pair determines the behaviour type and vice versa, which is the
content of the decoration-typing check in the test suite.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

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
        """The type whose ends are closed where p^- and q^+ say so."""
        return BehaviorType("oc"[pdec is Decoration.MINUS] + "oc"[qdec is Decoration.PLUS])

    def interval_str(self, p: float, q: float) -> str:
        lo = "[" if self.left_closed else "("
        hi = "]" if self.right_closed else ")"
        return f"{lo}{p}, {q}{hi}"


def _decorated(x: float, dec: Decoration) -> tuple[float, int]:
    """x^+ or x^- as a pair whose tuple order is that of the decorated reals:
    x^- = (x, -1) < (x, 0) < (x, 1) = x^+, where (x, 0) stands for x."""
    return (x, 1 if dec is Decoration.PLUS else -1)


@dataclass(frozen=True)
class DecoratedPoint:
    p: float
    pdec: Decoration
    q: float
    qdec: Decoration

    def __post_init__(self):
        if not _decorated(self.p, self.pdec) < _decorated(self.q, self.qdec):
            raise ValueError(f"need p* < q*, got ({self.p}{self.pdec.value}, "
                             f"{self.q}{self.qdec.value})")
        if self.p == -math.inf and self.pdec is not Decoration.PLUS:
            raise ValueError("a feature extending to -inf has no closed left end")
        if self.q == math.inf and self.qdec is not Decoration.MINUS:
            raise ValueError("a feature extending to +inf has no closed right end")

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

    def __repr__(self) -> str:
        return f"Rectangle([{self.a}, {self.b}] x [{self.c}, {self.d}])"


def contains(R: Rectangle, pt: DecoratedPoint) -> bool:
    """Whether a < p* < b and c < q* < d in the decorated order.

    Interior points always count; a point on an edge counts only when its
    decoration points into the rectangle.
    """
    return ((R.a, 0) < _decorated(pt.p, pt.pdec) < (R.b, 0)
            and (R.c, 0) < _decorated(pt.q, pt.qdec) < (R.d, 0))


def _count(m) -> int:
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 0:
        raise ValueError(f"multiplicity {m!r} is not a nonnegative integer")
    return int(m)


class DecoratedDiagram:
    """Multiset of decorated points."""

    def __init__(self, points: Mapping[DecoratedPoint, int] | Iterable[DecoratedPoint] = ()):
        if isinstance(points, Mapping):
            self._points = Counter({k: m for k, v in points.items() if (m := _count(v))})
        else:
            self._points = Counter(points)

    def add(self, pt: DecoratedPoint, multiplicity: int = 1) -> None:
        self._points[pt] += _count(multiplicity)

    def points(self) -> list[tuple[DecoratedPoint, int]]:
        return sorted(((p, m) for p, m in self._points.items() if m),
                      key=lambda pm: pm[0].sort_key())

    def multiplicity(self, pt: DecoratedPoint) -> int:
        return self._points.get(pt, 0)

    def count_in(self, R: Rectangle) -> int:
        return sum(m for p, m in self._points.items() if m and contains(R, p))

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
