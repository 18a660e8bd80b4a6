"""Self-check property suites behind the `validate` subcommand.

Each suite samples randomized instances, verifies one structural property
of the computation on the given space, and reports pass/fail with a
counterexample on failure.  They are library functions so tests can run
them at larger sample counts and inject faulty measures as negative
controls.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cohomology import DualityError, cohomology_diagrams
from .diagrams import BehaviorType, Rectangle
from .extended import PARAMETRIZED, extended_profile
from .fieldlin import PrimeField
from .levelset import all_diagrams
from .measures import full_bar_count, measure_profile
from .rspace import ConstructibleRSpace
from .zigzag import BACKWARD, FORWARD, ZigzagModule, coarsen, decompose

__all__ = [
    "CheckResult",
    "random_rectangle",
    "additivity_suite",
    "restriction_suite",
    "equivalence_suite",
    "duality_suite",
    "bound_suite",
    "correspondence_suite",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_rectangle(rng: random.Random, critical_values: Sequence[float]
                     ) -> Rectangle:
    """A rectangle with corners on, near and between the critical values.

    Raises ValueError when the candidate corners round to fewer than four
    distinct floats, as for large or crowded critical values.
    """
    vals = sorted(critical_values)
    pool = [vals[0] - 0.75, vals[0] - 0.25, vals[-1] + 0.25, vals[-1] + 0.75]
    for lo, hi in zip(vals, vals[1:]):
        pool.extend(lo + f * (hi - lo) for f in (0.25, 0.5, 0.75))
    pool = list(dict.fromkeys(pool + vals))
    if len(pool) < 4:
        raise ValueError(f"critical values {vals} leave only {len(pool)} distinct "
                         "rectangle corners, 4 needed")
    a, b, c, d = sorted(rng.sample(pool, 4))
    if rng.random() < 0.2:
        a = -math.inf
    if rng.random() < 0.2:
        d = math.inf
    return Rectangle(a, b, c, d)


def _split_point(lo: float, hi: float) -> float | None:
    """The midpoint of (lo, hi), or 1 in from the finite end if one is
    infinite, or else a float next to an end; None if none is inside."""
    for x in ((lo + hi) / 2, hi - 1.0, lo + 1.0,
              math.nextafter(hi, lo), math.nextafter(lo, hi)):
        if lo < x < hi:
            return x
    return None


def _dims(X: ConstructibleRSpace) -> range:
    return range(max(X.max_piece_dimension(), 0) + 1)


def additivity_suite(X: ConstructibleRSpace, rng: random.Random,
                     samples: int = 20) -> CheckResult:
    """mu(R) = mu(R1) + mu(R2) in each type for vertical and horizontal splits.

    Reads `measure_profile` at call time, and each rectangle once.
    """
    checked = 0
    for i in range(samples):
        R = random_rectangle(rng, X.critical_values)
        k = i % len(_dims(X))
        splits = []
        if (x := _split_point(R.a, R.b)) is not None:
            splits.append((f"p={x}", (Rectangle(R.a, x, R.c, R.d), Rectangle(x, R.b, R.c, R.d))))
        if (y := _split_point(R.c, R.d)) is not None:
            splits.append((f"q={y}", (Rectangle(R.a, R.b, R.c, y), Rectangle(R.a, R.b, y, R.d))))
        whole = measure_profile(X, k, R)
        halves = [(split, [measure_profile(X, k, part) for part in parts]) for split, parts in splits]
        for t in BehaviorType:
            for split, profiles in halves:
                total = sum(p[t] for p in profiles)
                checked += 1
                if total != whole[t]:
                    return CheckResult(
                        "additivity", False,
                        f"k={k} type={t.value} {R} split at {split}: "
                        f"{whole[t]} != {total}")
    return CheckResult("additivity", True, f"{checked} splits")


def _random_zigzag(rng: random.Random, field: PrimeField,
                   max_len: int, max_dim: int) -> ZigzagModule:
    n = rng.randint(2, max_len)
    dims = [rng.randint(0, max_dim) for _ in range(n)]
    arrows = []
    for i in range(n - 1):
        direction = rng.choice((FORWARD, BACKWARD))
        shape = (dims[i + 1], dims[i]) if direction == FORWARD else (dims[i], dims[i + 1])
        M = np.array([rng.randrange(field.p) for _ in range(shape[0] * shape[1])],
                     dtype=np.int64).reshape(shape)
        arrows.append((direction, M))
    return ZigzagModule(field, dims, arrows)


def _dropped_node(mults: dict[tuple[int, int], int], k: int) -> Counter:
    """Interval multiplicities after restricting away node k."""
    out: Counter = Counter()
    for (p, q), m in mults.items():
        if p == q == k:
            continue
        out[(p if p <= k else p - 1, q if q < k else q - 1)] += m
    return +out


# length, node dimension and field of the random modules restriction_suite draws
RESTRICTION_MAX_LEN = 8
RESTRICTION_MAX_DIM = 5
RESTRICTION_FIELD = PrimeField(2)


def restriction_suite(rng: random.Random, modules: int = 30) -> CheckResult:
    """Coarsening an interior node pushes the decomposition forward."""
    checked = 0
    for _ in range(modules):
        Z = _random_zigzag(rng, RESTRICTION_FIELD, RESTRICTION_MAX_LEN, RESTRICTION_MAX_DIM)
        mults = decompose(Z)
        for k in range(2, Z.n):
            if Z.arrows[k - 2][0] != Z.arrows[k - 1][0]:
                continue
            got = Counter(decompose(coarsen(Z, k)))
            want = _dropped_node(mults, k)
            checked += 1
            if got != want:
                return CheckResult(
                    "restriction", False,
                    f"dims={Z.dims} node {k}: got {dict(got)}, want {dict(want)}")
    return CheckResult("restriction", True,
                       f"{checked} coarsenings of {modules} modules")


def equivalence_suite(X: ConstructibleRSpace, rng: random.Random,
                      samples: int = 20) -> CheckResult:
    """Direct measures equal diagram point counts on every rectangle,
    corners on critical values included, where only the decorations decide
    which diagram points count."""
    diagrams = {k: all_diagrams(X, k) for k in _dims(X)}
    checked = 0
    for _ in range(samples):
        R = random_rectangle(rng, X.critical_values)
        for k in _dims(X):
            profile = measure_profile(X, k, R)
            for t in BehaviorType:
                checked += 1
                if profile[t] != diagrams[k][t].count_in(R):
                    return CheckResult(
                        "equivalence", False,
                        f"k={k} type={t.value} {R}: measure {profile[t]}, "
                        f"diagram count {diagrams[k][t].count_in(R)}")
    return CheckResult("equivalence", True, f"{checked} comparisons")


def duality_suite(X: ConstructibleRSpace) -> CheckResult:
    """Cohomology diagrams match homology diagrams in every degree."""
    for k in range(max(X.max_piece_dimension(), 0) + 2):
        try:
            cohomology_diagrams(X, k)
        except DualityError as e:
            return CheckResult("duality", False, str(e))
    return CheckResult("duality", True, "all degrees agree")


def bound_suite(X: ConstructibleRSpace, rng: random.Random,
                samples: int = 20) -> CheckResult:
    """The four measures of R sum to at most the bars spanning [b, c]."""
    checked = 0
    for _ in range(samples):
        R = random_rectangle(rng, X.critical_values)
        for k in _dims(X):
            total = sum(measure_profile(X, k, R).values())
            cap = full_bar_count(X, k, R.b, R.c)
            checked += 1
            if total > cap:
                return CheckResult(
                    "bound", False,
                    f"k={k} {R}: measures sum to {total}, only {cap} bars span "
                    f"[{R.b}, {R.c}]")
    return CheckResult("bound", True, f"{checked} rectangles")


def correspondence_suite(X: ConstructibleRSpace, rng: random.Random,
                         samples: int = 8) -> CheckResult:
    """Extended measures restate the parametrized ones, one degree up on
    the relative half."""
    checked = 0
    for _ in range(samples):
        R = random_rectangle(rng, X.critical_values)
        ext = {k: extended_profile(X, k, R)
               for k in range(max(X.max_piece_dimension(), 0) + 2)}
        for k in _dims(X):
            profile = measure_profile(X, k, R)
            for t, (behavior, shift) in PARAMETRIZED.items():
                checked += 1
                if ext[k + shift][t] != profile[behavior]:
                    return CheckResult(
                        "correspondence", False,
                        f"k={k} {t.value} {R}: extended {ext[k + shift][t]}, "
                        f"parametrized {profile[behavior]}")
    return CheckResult("correspondence", True, f"{checked} comparisons")


def run_all(X: ConstructibleRSpace, rng: random.Random,
            samples: int = 20) -> list[CheckResult]:
    return [
        additivity_suite(X, rng, samples),
        restriction_suite(rng, max(samples, 10)),
        equivalence_suite(X, rng, samples),
        duality_suite(X),
        bound_suite(X, rng, samples),
        correspondence_suite(X, rng, max(samples // 2, 4)),
    ]
