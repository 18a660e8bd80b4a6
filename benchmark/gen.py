"""Seeded input generators with answers derived from their own parameters.

Nothing here imports paramhom: every expected answer follows from the
construction, so it can be checked against the library without trusting it.

Tube stack.  Over critical values a_0 < ... < a_{n-1} the fiber at each
level is a ring or a coned disk, and the fiber over each gap is a ring of
`gap_size` vertices.  Each attaching map is a seeded rotation of the gap ring
followed by the monotone degree-one collapse onto the critical ring, so the
map matrices are not identities; vertex ids are a seeded relabelling, so the
simplex order inside each piece is scrambled too.  Every fiber is connected,
rings carry one H1 class that every attaching map preserves, disks kill it,
and nothing carries H2.  The diagrams are therefore:

* H0: one closed-closed bar [a_0, a_{n-1}];
* H1: one open-open bar (a_d, a_e) for each pair of consecutive disk levels
  d < e; a closed-open bar [a_0, a_d) when the first disk d is above level 0;
  an open-closed bar (a_d, a_{n-1}] when the last disk d is below the top
  level; a single closed-closed bar [a_0, a_{n-1}] when there is no disk;
* H2: nothing.

Separated diagram pair.  Grid points sit on a jittered grid of spacing 10
with persistence at least 7.  The second diagram moves each grid point by at
most a seeded cap c in [0.5, 1] in each coordinate, one point by exactly c,
and each diagram gets its own near-diagonal noise (diagonal distance at most
0.375).  Any other partner of a grid point is at least 3.1 away, so matching
every grid point to its own copy and every noise point to the diagonal is
optimal, and the bottleneck distance is the largest grid displacement, c.
All coordinates are multiples of 1/64, so they survive JSON exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Diagram entry type codes, in the order diagram documents sort them.
CC, CO, OC, OO = "cc", "co", "oc", "oo"


def case_rng(workload: str, seed: int, i: int) -> random.Random:
    """Generator for op i of a run; depends only on (workload, seed, i)."""
    return random.Random(f"{workload}:{seed}:{i}")


def _json_real(v: float):
    """A finite value as a diagram document writes it: integers bare."""
    return int(v) if float(v).is_integer() else float(v)


# -- tube stack -------------------------------------------------------------


@dataclass(frozen=True)
class TubeSpec:
    """Shape of a tube stack: level count, ring sizes and characteristic."""

    levels: int
    gap_size: int
    min_critical: int
    max_critical: int
    characteristic: int


@dataclass
class TubeCase:
    doc: dict           # input document, as `paramhom diagram` reads it
    values: list        # critical values
    disks: list         # indices of the disk levels
    simplices: int      # total simplex count over all pieces

    def expected_entries(self) -> list[dict]:
        """Closed-form diagram document entries (see the module docstring)."""
        a, disks = self.values, self.disks
        top = len(a) - 1
        bars = [(0, CC, a[0], a[top])]
        if not disks:
            bars.append((1, CC, a[0], a[top]))
        else:
            if disks[0] > 0:
                bars.append((1, CO, a[0], a[disks[0]]))
            bars.extend((1, OO, a[d], a[e]) for d, e in zip(disks, disks[1:]))
            if disks[-1] < top:
                bars.append((1, OC, a[disks[-1]], a[top]))
        bars.sort()
        return [{"dim": dim, "type": t, "birth": _json_real(p),
                 "death": _json_real(q), "multiplicity": 1}
                for dim, t, p, q in bars]

    def expected_document(self) -> str:
        """The exact bytes `paramhom diagram` must print for this space."""
        return json.dumps(self.expected_entries(), indent=2) + "\n"


def _labels(rng: random.Random, count: int) -> list[int]:
    return rng.sample(range(4 * count), count)


def _ring(ids: list[int]) -> list[list[int]]:
    m = len(ids)
    return [[ids[j], ids[(j + 1) % m]] for j in range(m)]


def tube_stack(rng: random.Random, spec: TubeSpec) -> TubeCase:
    n = spec.levels
    values, v = [], 0.0
    for _ in range(n):
        values.append(v)
        v += rng.choice((1.0, 1.5, 2.0, 2.5))
    disks = [i for i in range(n) if rng.random() < 0.5]
    disk_set = set(disks)

    rims, vertex_complexes, simplices = [], [], 0
    for i in range(n):
        m = rng.randint(spec.min_critical, spec.max_critical)
        ids = _labels(rng, m + 1)
        rim, cone = ids[:m], ids[m]
        faces = _ring(rim)
        if i in disk_set:
            faces = [[cone, x, y] for x, y in faces]
            simplices += 3 * m + 1
        else:
            simplices += 2 * m
        rims.append(rim)
        vertex_complexes.append(faces)

    g = spec.gap_size
    edge_complexes, left_maps, right_maps = [], [], []
    for i in range(n - 1):
        ids = _labels(rng, g)
        edge_complexes.append(_ring(ids))
        simplices += 2 * g
        for rim, maps in ((rims[i], left_maps), (rims[i + 1], right_maps)):
            shift = rng.randrange(g)
            maps.append({str(ids[j]): rim[((j + shift) % g) * len(rim) // g]
                         for j in range(g)})

    doc = {"characteristic": spec.characteristic, "critical_values": values,
           "vertex_complexes": vertex_complexes, "edge_complexes": edge_complexes,
           "left_maps": left_maps, "right_maps": right_maps}
    return TubeCase(doc, values, disks, simplices)


# -- separated diagram pairs --------------------------------------------------


@dataclass(frozen=True)
class PairSpec:
    grid_points: int
    noise_points: int


@dataclass
class PairCase:
    doc_a: list          # diagram documents, as `paramhom bottleneck` reads them
    doc_b: list
    distance: float      # exact bottleneck distance
    dim: int = 1
    type: str = OO


def _grid64(rng: random.Random, lo: float, hi: float) -> float:
    return rng.randint(round(lo * 64), round(hi * 64)) / 64


def _entries(points) -> list[dict]:
    return [{"dim": 1, "type": OO, "birth": _json_real(p), "death": _json_real(q),
             "multiplicity": 1} for p, q in points]


def separated_pair(rng: random.Random, spec: PairSpec) -> PairCase:
    side = 1
    while side * (side + 1) // 2 < spec.grid_points:
        side += 1
    cells = [(x, y) for x in range(side + 1) for y in range(x + 1, side + 1)]
    cap = _grid64(rng, 0.5, 1)
    a_grid, b_grid = [], []
    for x, y in rng.sample(cells, spec.grid_points):
        p = 10 * x + _grid64(rng, -1.5, 1.5)
        q = 10 * y + _grid64(rng, -1.5, 1.5)
        a_grid.append((p, q))
        b_grid.append((p + _grid64(rng, -cap, cap), q + _grid64(rng, -cap, cap)))
    b_grid[0] = (a_grid[0][0] + rng.choice((-cap, cap)), b_grid[0][1])
    distance = max(max(abs(ap - bp), abs(aq - bq))
                   for (ap, aq), (bp, bq) in zip(a_grid, b_grid))

    def noise():
        out = []
        for _ in range(spec.noise_points):
            p = _grid64(rng, 0, 10 * side)
            out.append((p, p + _grid64(rng, 1 / 64, 0.75)))
        return out

    a_pts, b_pts = a_grid + noise(), b_grid + noise()
    rng.shuffle(a_pts)
    rng.shuffle(b_pts)
    return PairCase(_entries(a_pts), _entries(b_pts), distance)
