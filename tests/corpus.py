"""Shared model spaces for the test suite.

Every builder returns a ConstructibleRSpace.  The expected homology and
diagrams quoted in the tests were worked out by hand from these models (the
derivations are sketched next to each builder); nothing here is computed by
the code under test.  constant_doc writes a fiber held constant, and
point_doc a point over given critical values, as CLI input documents.  The
helpers at the end refine a space at regular values, re-parametrize it,
flip its coordinate, and count the Euler characteristic of a chain complex.
`random_rectangle` is the library's one rectangle sampler,
`paramhom.checks.random_rectangle`, named here for the tests.
"""

from __future__ import annotations

import random
from typing import Sequence

from paramhom.checks import random_rectangle  # noqa: F401  (re-exported)
from paramhom.complexes import ChainComplex, SimplicialComplex
from paramhom.diagrams import Rectangle
from paramhom.fieldlin import PrimeField
from paramhom.rspace import ConstructibleRSpace

F2 = PrimeField(2)


def circle(field=F2) -> ConstructibleRSpace:
    """Height function on a circle: min at 0, max at 1.

    Regular fibers are two points collapsing to one point at each extremum.
    Levelset H_0 bars: [0, 1] closed-closed; H_0 zigzag dims (0,1,2,1,0).
    """
    pt_b = SimplicialComplex([("b",)])
    pt_t = SimplicialComplex([("t",)])
    two = SimplicialComplex([("x",), ("y",)])
    return ConstructibleRSpace(
        (0.0, 1.0), [pt_b, pt_t], [two],
        [{"x": "b", "y": "b"}], [{"x": "t", "y": "t"}], field)


def sphere(field=F2) -> ConstructibleRSpace:
    """Height function on S^2: regular fiber a (triangle) circle, poles points."""
    south = SimplicialComplex([("s",)])
    north = SimplicialComplex([("n",)])
    ring = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    collapse = lambda tgt: {v: tgt for v in (0, 1, 2)}
    return ConstructibleRSpace(
        (0.0, 1.0), [south, north], [ring],
        [collapse("s")], [collapse("n")], field)


def segment(field=F2) -> ConstructibleRSpace:
    """An interval [0, 1]; one H_0 bar [0, 1] closed-closed."""
    return ConstructibleRSpace(
        (0.0, 1.0),
        [SimplicialComplex([("a",)]), SimplicialComplex([("b",)])],
        [SimplicialComplex([("m",)])],
        [{"m": "a"}], [{"m": "b"}], field)


def point(field=F2) -> ConstructibleRSpace:
    """A single point over value 0; its H_0 bar is the degenerate [0, 0]."""
    return ConstructibleRSpace((0.0,), [SimplicialComplex([("p",)])], [], [], [], field)


def empty_space(field=F2) -> ConstructibleRSpace:
    return ConstructibleRSpace((0.0,), [SimplicialComplex()], [], [], [], field)


def v_shape(field=F2) -> ConstructibleRSpace:
    """A V: one minimum at 0, two open ends at 1.

    H_0 bars: [0, 1] closed-closed and (0, 1] open-closed (the second branch).
    """
    bottom = SimplicialComplex([("b",)])
    tops = SimplicialComplex([("l",), ("r",)])
    two = SimplicialComplex([("x",), ("y",)])
    return ConstructibleRSpace(
        (0.0, 1.0), [bottom, tops], [two],
        [{"x": "b", "y": "b"}], [{"x": "l", "y": "r"}], field)


def w_shape(field=F2) -> ConstructibleRSpace:
    """A W-shaped path graph A(1)-B(0)-C(0.6)-D(0.2)-E(1).

    Ordinary persistence of H_0 has the pair (0.2, 0.6): the right valley is
    born at 0.2 and merges into the left one at 0.6.
    """
    v1 = SimplicialComplex([("B",)])
    v2 = SimplicialComplex([("ab",), ("bc",), ("D",)])
    v3 = SimplicialComplex([("ab",), ("C",), ("de",)])
    v4 = SimplicialComplex([("A",), ("E",)])
    e1 = SimplicialComplex([("ab",), ("bc",)])
    e2 = SimplicialComplex([("ab",), ("bc",), ("cd",), ("de",)])
    e3 = SimplicialComplex([("ab",), ("de",)])
    return ConstructibleRSpace(
        (0.0, 0.2, 0.6, 1.0), [v1, v2, v3, v4], [e1, e2, e3],
        [{"ab": "B", "bc": "B"},
         {"ab": "ab", "bc": "bc", "cd": "D", "de": "D"},
         {"ab": "ab", "de": "de"}],
        [{"ab": "ab", "bc": "bc"},
         {"ab": "ab", "bc": "C", "cd": "C", "de": "de"},
         {"ab": "A", "de": "E"}], field)


def two_component(field=F2) -> ConstructibleRSpace:
    """A segment spanning [0, 3] next to a separate segment spanning [1, 2].

    H_0 bars: [0, 3] and [1, 2], both closed-closed.
    """
    m = SimplicialComplex([("m",)])
    mb = SimplicialComplex([("m",), ("b",)])
    ident = {"m": "m", "b": "b"}
    return ConstructibleRSpace(
        (0.0, 1.0, 2.0, 3.0), [m, mb, mb, m],
        [m, mb, m],
        [{"m": "m"}, ident, {"m": "m"}],
        [{"m": "m"}, ident, {"m": "m"}], field)


def cylinder(field=F2) -> ConstructibleRSpace:
    """S^1 x [0, 1], projection to the interval: one [0,1] bar in H_0 and H_1."""
    ring = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    ident = {v: v for v in (0, 1, 2)}
    return ConstructibleRSpace((0.0, 1.0), [ring, ring], [ring], [ident], [ident], field)


def vertical_torus(field=F2) -> ConstructibleRSpace:
    """Torus standing on its side: critical values 0, 1, 2, 3.

    Fibers: point, figure-eight, figure-eight, point; regular fibers are one
    circle below/above the saddles and two circles between them.  Hand
    decomposition of the H_1 levelset zigzag (9 nodes, dims 0,0,1,2,2,2,1,0,0)
    gives intervals [3,7] -> (0, 3) open-open and [4,6] -> [1, 2]
    closed-closed; H_0 gives [0, 3] closed-closed; H_2 is empty (every fiber
    is at most 1-dimensional).
    """
    pt_s = SimplicialComplex([("p",)])
    pt_n = SimplicialComplex([("q",)])
    fig8 = SimplicialComplex([("c", "a1"), ("a1", "a2"), ("a2", "c"),
                              ("c", "b1"), ("b1", "b2"), ("b2", "c")])
    hexagon = SimplicialComplex([(f"x{i}", f"x{i % 6 + 1}") for i in range(1, 7)])
    wrap_both = {"x1": "c", "x2": "a1", "x3": "a2", "x4": "c", "x5": "b1", "x6": "b2"}
    two_rings = SimplicialComplex([("p1", "p2"), ("p2", "p3"), ("p1", "p3"),
                                   ("q1", "q2"), ("q2", "q3"), ("q1", "q3")])
    one_each = {"p1": "c", "p2": "a1", "p3": "a2", "q1": "c", "q2": "b1", "q3": "b2"}
    return ConstructibleRSpace(
        (0.0, 1.0, 2.0, 3.0), [pt_s, fig8, fig8, pt_n],
        [hexagon, two_rings, hexagon],
        [{v: "p" for v in wrap_both}, one_each, wrap_both],
        [wrap_both, one_each, {v: "q" for v in wrap_both}], field)


def fig4_space(kind: str, field=F2) -> ConstructibleRSpace:
    """Spaces with exactly one H_0 feature over [0.5, 2.5], one per bar type.

    Ambient strand spans [0, 3]; critical values are (0, 0.5, 2.5, 3.0).
    kind selects the feature's endpoint behaviour: "oo" a bubble (open-open),
    "co" a branch grafted at the bottom (closed-open), "oc" its mirror image
    (open-closed), "cc" a separate floating segment (closed-closed).
    """
    m = SimplicialComplex([("m",)])
    mw = SimplicialComplex([("m",), ("w",)])
    s = SimplicialComplex([("s",)])
    uv = SimplicialComplex([("u",), ("v",)])
    if kind == "oo":
        verts = [m, s, s, m]
        edges = [m, uv, m]
        lmaps = [{"m": "m"}, {"u": "s", "v": "s"}, {"m": "s"}]
        rmaps = [{"m": "s"}, {"u": "s", "v": "s"}, {"m": "m"}]
    elif kind == "co":
        verts = [m, mw, s, m]
        edges = [m, mw, m]
        lmaps = [{"m": "m"}, {"m": "m", "w": "w"}, {"m": "s"}]
        rmaps = [{"m": "m"}, {"m": "s", "w": "s"}, {"m": "m"}]
    elif kind == "oc":
        verts = [m, s, mw, m]
        edges = [m, mw, m]
        lmaps = [{"m": "m"}, {"m": "s", "w": "s"}, {"m": "m"}]
        rmaps = [{"m": "s"}, {"m": "m", "w": "w"}, {"m": "m"}]
    elif kind == "cc":
        verts = [m, mw, mw, m]
        edges = [m, mw, m]
        lmaps = [{"m": "m"}, {"m": "m", "w": "w"}, {"m": "m"}]
        rmaps = [{"m": "m"}, {"m": "m", "w": "w"}, {"m": "m"}]
    else:
        raise ValueError(kind)
    return ConstructibleRSpace((0.0, 0.5, 2.5, 3.0), verts, edges, lmaps, rmaps, field)


# RP^2, six-vertex triangulation: H_1 = H_2 = F_2 in characteristic 2, and
# both vanish in odd characteristic
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
       (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]


def constant_doc(simplices, characteristic: int) -> dict:
    """JSON input document of one fiber held constant over [0, 1]."""
    ident = {str(v): v for v in sorted({v for s in simplices for v in s})}
    return {"characteristic": characteristic, "critical_values": [0, 1],
            "vertex_complexes": [simplices, simplices], "edge_complexes": [simplices],
            "left_maps": [ident], "right_maps": [ident]}


def point_doc(values: list) -> dict:
    """JSON input document of a point over each critical value and each gap."""
    n = len(values)
    return {"critical_values": values, "vertex_complexes": [[[0]]] * n,
            "edge_complexes": [[[0]]] * (n - 1), "left_maps": [{"0": 0}] * (n - 1),
            "right_maps": [{"0": 0}] * (n - 1)}


# two sets of critical values some of whose differences, -1.7e308 to
# 1.7e308 or 1.6e308, are past the largest float
OVERFLOW_VALUES = ([-1.7e308, 0, 1.7e308], [1.6e308, 1.65e308, 1.7e308])


def random_space(rng: random.Random, field=F2, max_values: int = 6,
                 max_gap_vertices: int = 4, extra_edges: int = 2) -> ConstructibleRSpace:
    """A random valid model: maps are chosen first, critical fibers close over
    the images, so the attaching maps are simplicial by construction."""
    n = rng.randint(1, max_values)
    values = sorted(rng.sample([0.5 * i for i in range(16)], n))
    gap_vertices = []
    gap_edges = []
    for g in range(n - 1):
        verts = [f"e{g}_{j}" for j in range(rng.randint(0, max_gap_vertices))]
        edges = []
        for _ in range(rng.randint(0, extra_edges)):
            if len(verts) >= 2:
                edges.append(tuple(rng.sample(verts, 2)))
        gap_vertices.append(verts)
        gap_edges.append(edges)
    vert_own = [[f"v{i}_{j}" for j in range(rng.randint(0, max_gap_vertices))]
                for i in range(n)]
    lmaps, rmaps = [], []
    for g in range(n - 1):
        lmaps.append({v: rng.choice(vert_own[g] + [f"v{g}_x"])
                      for v in gap_vertices[g]})
        rmaps.append({v: rng.choice(vert_own[g + 1] + [f"v{g + 1}_x"])
                      for v in gap_vertices[g]})
    verts = []
    for i in range(n):
        simplices = [(v,) for v in vert_own[i]] + [(f"v{i}_x",)]
        for source, vmap in ((i - 1, rmaps[i - 1] if i > 0 else None),
                             (i, lmaps[i] if i < n - 1 else None)):
            if vmap is None:
                continue
            for e in gap_edges[source]:
                img = tuple(sorted({vmap[v] for v in e}))
                simplices.append(img)
        for _ in range(extra_edges):
            pool = vert_own[i] + [f"v{i}_x"]
            if len(pool) >= 2:
                simplices.append(tuple(rng.sample(pool, 2)))
        verts.append(SimplicialComplex(simplices))
    gaps = [SimplicialComplex([(v,) for v in gap_vertices[g]] + gap_edges[g])
            for g in range(n - 1)]
    return ConstructibleRSpace(values, verts, gaps, lmaps, rmaps, field)


def tube_space(n_values=20, m=21, field=None):
    """Alternating disk / circle fibers over n_values levels: one connected
    component throughout, a circle class that dies at every disk level."""
    field = field or PrimeField(2)
    ring = [(f"b{j}", f"b{(j + 1) % m}") for j in range(m)]
    disk = [("c", f"b{j}", f"b{(j + 1) % m}") for j in range(m)]
    verts = [SimplicialComplex(disk if i % 2 == 0 else ring)
             for i in range(n_values)]
    gaps = [SimplicialComplex(ring) for _ in range(n_values - 1)]
    ident = {f"b{j}": f"b{j}" for j in range(m)}
    maps = [dict(ident) for _ in range(n_values - 1)]
    return ConstructibleRSpace([float(i) for i in range(n_values)],
                               verts, gaps, maps,
                               [dict(ident) for _ in range(n_values - 1)],
                               field)


def corpus(field=F2) -> dict[str, ConstructibleRSpace]:
    """The named spaces plus three seeded random ones (16 total)."""
    spaces = {
        "circle": circle(field),
        "sphere": sphere(field),
        "segment": segment(field),
        "point": point(field),
        "v_shape": v_shape(field),
        "w_shape": w_shape(field),
        "two_component": two_component(field),
        "cylinder": cylinder(field),
        "torus": vertical_torus(field),
        "fig4_oo": fig4_space("oo", field),
        "fig4_co": fig4_space("co", field),
        "fig4_oc": fig4_space("oc", field),
        "fig4_cc": fig4_space("cc", field),
    }
    rng = random.Random(20260815)
    for i in range(3):
        spaces[f"random_{i}"] = random_space(rng, field)
    return spaces


def refine(X: ConstructibleRSpace, cuts: Sequence[float]) -> ConstructibleRSpace:
    """Insert regular values as artificial critical values.

    Over an inserted t in the gap (a_i, a_{i+1}) the new critical fiber is
    E_i itself, attached by identities on both sides, so the refined space is
    the same space; cuts outside the open support or at existing critical
    values are ignored.
    """
    vals = X.critical_values
    inner = sorted({float(t) for t in cuts
                    if vals[0] < t < vals[-1] and t not in vals})
    if not inner:
        return X
    values = [vals[0]]
    verts = [X.vertex_complexes[0]]
    edges, lmaps, rmaps = [], [], []
    for i in range(len(vals) - 1):
        E = X.edge_complexes[i]
        ident = {v: v for v in E.vertices}
        gap_cuts = [t for t in inner if vals[i] < t < vals[i + 1]]
        left = X.left_maps[i]
        for t in gap_cuts:
            edges.append(E)
            lmaps.append(left)
            rmaps.append(ident)
            values.append(t)
            verts.append(E)
            left = ident
        edges.append(E)
        lmaps.append(left)
        rmaps.append(X.right_maps[i])
        values.append(vals[i + 1])
        verts.append(X.vertex_complexes[i + 1])
    return ConstructibleRSpace(values, verts, edges, lmaps, rmaps, X.field)


def with_critical_values(X: ConstructibleRSpace, values) -> ConstructibleRSpace:
    """Same combinatorial model over a new (strictly increasing) value list."""
    if len(values) != X.n_critical:
        raise ValueError("value count must match the critical value count")
    return ConstructibleRSpace(values, X.vertex_complexes, X.edge_complexes,
                               X.left_maps, X.right_maps, X.field)


def coordinate_reverse(X: ConstructibleRSpace) -> ConstructibleRSpace:
    """The space parametrized by the negated value: flip everything."""
    return ConstructibleRSpace(
        critical_values=[-v for v in reversed(X.critical_values)],
        vertex_complexes=list(reversed(X.vertex_complexes)),
        edge_complexes=list(reversed(X.edge_complexes)),
        left_maps=list(reversed(X.right_maps)),
        right_maps=list(reversed(X.left_maps)),
        field=X.field,
    )


def reverse_rectangle(R: Rectangle) -> Rectangle:
    return Rectangle(-R.d, -R.c, -R.b, -R.a)


def euler_characteristic(C: ChainComplex) -> int:
    return sum((-1) ** k * C.dim(k) for k in C.degrees())
