from __future__ import annotations

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramhom import complexes
from paramhom.complexes import (
    ChainComplex,
    SimplicialComplex,
    chain_complex,
    homology,
    induced_chain_map,
    induced_homology_map,
    quotient_complex,
    subcomplex,
    telescope,
)
from paramhom.fieldlin import PrimeField

from corpus import euler_characteristic
from oracles import dense_coordinate_map

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)

TRIANGLE_BOUNDARY = [(0, 1), (1, 2), (0, 2)]
SOLID_TRIANGLE = [(0, 1, 2)]
TETRA_BOUNDARY = list(itertools.combinations(range(4), 3))


def ranks(S, field, top=3):
    C = chain_complex(SimplicialComplex(S), field)
    return [homology(C, k).rank for k in range(top)]


def test_simplicial_complex_face_closure_and_order():
    S = SimplicialComplex([(2, 0, 1)])
    assert S.simplices[0] == ((0,), (1,), (2,))
    assert S.simplices[1] == ((0, 1), (0, 2), (1, 2))
    assert S.simplices[2] == ((0, 1, 2),)
    assert S.dimension == 2
    assert S.has_simplex((2, 0)) and not S.has_simplex(("x",))
    assert SimplicialComplex().dimension == -1
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 0)])


def test_homology_of_standard_spaces():
    for field in (F2, F3, F5):
        assert ranks(TRIANGLE_BOUNDARY, field) == [1, 1, 0]
        assert ranks(SOLID_TRIANGLE, field) == [1, 0, 0]
        assert ranks(TETRA_BOUNDARY, field) == [1, 0, 1]
        assert ranks([(0,), (1,)], field) == [2, 0, 0]
        assert ranks([], field) == [0, 0, 0]


def test_homology_projection_contract():
    C = chain_complex(SimplicialComplex(TRIANGLE_BOUNDARY), F5)
    h = homology(C, 1)
    assert not F5.matmul(C.boundary(1), h.representatives).any()
    assert np.array_equal(F5.matmul(h.projection, h.representatives), F5.identity(1))


def test_homology_rejects_a_cycle_basis_off_rref_form(monkeypatch):
    # homology reads cycles at the free rows of the rref kernel basis; a
    # basis that is not the identity there must be refused, not misread
    C = chain_complex(SimplicialComplex(TRIANGLE_BOUNDARY), F5)
    kernel = PrimeField.kernel_basis
    monkeypatch.setattr(PrimeField, "kernel_basis",
                        lambda self, M: 2 * kernel(self, M) % self.p)
    with pytest.raises(ValueError, match="free rows"):
        homology(C, 1)


def test_induced_chain_map_identity_and_collapse():
    circle = SimplicialComplex(TRIANGLE_BOUNDARY)
    point = SimplicialComplex([(9,)])
    Cc, Cp = chain_complex(circle, F3), chain_complex(point, F3)
    ident = induced_chain_map({v: v for v in circle.vertices}, circle, circle, Cc, Cc)
    for k in (0, 1):
        cols, coefs = ident[k]
        assert cols.tolist() == list(range(Cc.dim(k))) and coefs.tolist() == [1] * Cc.dim(k)
    collapse = induced_chain_map({0: 9, 1: 9, 2: 9}, circle, point, Cc, Cp)
    # degenerate edge images vanish
    assert collapse[1][0].tolist() == [-1, -1, -1]
    assert collapse[0][0].tolist() == [0, 0, 0]
    h1 = induced_homology_map(homology(Cc, 1), homology(Cp, 1), *collapse[1])
    assert h1.shape == (0, 1)
    h0 = induced_homology_map(homology(Cc, 0), homology(Cp, 0), *collapse[0])
    assert np.array_equal(h0, [[1]])


def test_induced_chain_map_rejects_non_simplicial():
    seg = SimplicialComplex([(0, 1)])
    two_pts = SimplicialComplex([(5,), (7,)])
    Cs, Ct = chain_complex(seg, F2), chain_complex(two_pts, F2)
    with pytest.raises(ValueError):
        induced_chain_map({0: 5, 1: 7}, seg, two_pts, Cs, Ct)
    with pytest.raises(ValueError):
        induced_chain_map({0: 5}, seg, two_pts, Cs, Ct)


def test_orientation_signs_transpose_under_sorting():
    # map swapping two vertices of an edge must carry sign -1 over F_3
    seg = SimplicialComplex([(0, 1)])
    C = chain_complex(seg, F3)
    swap = induced_chain_map({0: 1, 1: 0}, seg, seg, C, C)
    assert swap[1][0].tolist() == [0] and swap[1][1].tolist() == [2]  # -1 mod 3
    # a reflection of the circle acts on H_1 by -1: the coefficients count
    circle = SimplicialComplex(TRIANGLE_BOUNDARY)
    Cc = chain_complex(circle, F3)
    flip = induced_chain_map({0: 0, 1: 2, 2: 1}, circle, circle, Cc, Cc)
    h1 = homology(Cc, 1)
    assert np.array_equal(induced_homology_map(h1, h1, *flip[1]), [[2]])


def test_relative_homology_of_interval_mod_endpoints():
    seg = SimplicialComplex([(0, 1)])
    C = chain_complex(seg, F2)
    sub_cols = {0: [0, 1]}  # both vertices
    rel = quotient_complex(C, sub_cols)[0]
    assert homology(rel, 1).rank == 1
    assert homology(rel, 0).rank == 0


def test_quotient_complex_rejects_unclosed_columns():
    C = chain_complex(SimplicialComplex([(0, 1)]), F2)
    with pytest.raises(ValueError):
        quotient_complex(C, {1: [0]})  # edge without its endpoints


def test_subcomplex_inclusion():
    S = SimplicialComplex(TRIANGLE_BOUNDARY)
    C = chain_complex(S, F2)
    # the arc 0-1, 1-2 with all three vertices
    sub, kept = subcomplex(C, {0: [0, 1, 2], 1: [0, 2]})
    assert kept == {0: [0, 1, 2], 1: [0, 2]}
    incl = dense_coordinate_map(C, sub, kept, C, {k: range(C.dim(k)) for k in C.degrees()})
    assert homology(sub, 0).rank == 1
    assert homology(sub, 1).rank == 0
    for k in (0, 1):
        got = F2.matmul(C.boundary(k), incl.matrix(k))
        want = F2.matmul(incl.matrix(k - 1), sub.boundary(k))
        assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        subcomplex(C, {1: [0]})


def _telescope_circle(field):
    # two arcs glued over two points: pt <- {a,b} -> pt builds a circle
    pt1 = chain_complex(SimplicialComplex([("l",)]), field)
    pt2 = chain_complex(SimplicialComplex([("r",)]), field)
    two = SimplicialComplex([("a",), ("b",)])
    E = chain_complex(two, field)
    l = induced_chain_map({"a": "l", "b": "l"}, two, SimplicialComplex([("l",)]), E, pt1)
    r = induced_chain_map({"a": "r", "b": "r"}, two, SimplicialComplex([("r",)]), E, pt2)
    return telescope([pt1, pt2], [(E, l, r)])


@pytest.mark.parametrize("field", [F2, F3, F5])
def test_telescope_builds_a_circle(field):
    tel = _telescope_circle(field)
    assert homology(tel, 0).rank == 1
    assert homology(tel, 1).rank == 1
    # the shifted edge generator a bounds r(a) - l(a)
    e = tel.labels[1].index(("e", 0, ("a",)))
    assert tel.boundary(1)[:, e].tolist() == [field.p - 1, 1]
    # each node includes as the coordinate block after the earlier nodes;
    # dense_coordinate_map builds a ChainMap, which checks commuting
    pt = chain_complex(SimplicialComplex([("p",)]), field)
    everything = {k: range(tel.dim(k)) for k in tel.degrees()}
    for t in (0, 1):
        dense_coordinate_map(tel, pt, {0: [t]}, tel, everything)
    assert tel.labels[0][:2] == (("v", 0, ("l",)), ("v", 1, ("r",)))


@pytest.mark.parametrize("field", [F2, F3, F5])
def test_mapping_cylinder_retracts_to_target(field):
    circle = SimplicialComplex(TRIANGLE_BOUNDARY)
    point = SimplicialComplex([(9,)])
    Cc, Cp = chain_complex(circle, field), chain_complex(point, field)
    ident = induced_chain_map({v: v for v in circle.vertices}, circle, circle, Cc, Cc)
    collapse = induced_chain_map({0: 9, 1: 9, 2: 9}, circle, point, Cc, Cp)
    tel = telescope([Cc, Cp], [(Cc, ident, collapse)])
    assert homology(tel, 0).rank == 1
    assert homology(tel, 1).rank == 0
    assert euler_characteristic(tel) == 1


def _random_complex(draw, vertices, max_extra_dim=2):
    n = draw(st.integers(1, 4))
    verts = list(range(vertices, vertices + n))
    simplices = [(v,) for v in verts]
    for size in (2, 3):
        for combo in itertools.combinations(verts, size):
            if draw(st.booleans()):
                simplices.append(combo)
    return SimplicialComplex(simplices)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_euler_poincare(data):
    field = PrimeField(data.draw(st.sampled_from([2, 3, 5])))
    S = _random_complex(data.draw, 0)
    C = chain_complex(S, field)
    chi_chain = euler_characteristic(C)
    chi_hom = sum((-1) ** k * homology(C, k).rank for k in range(C.top_degree + 1))
    assert chi_chain == chi_hom


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_telescope_euler_characteristic(data):
    # chi(telescope) = sum chi(V) - sum chi(E); maps land in a full simplex
    field = PrimeField(data.draw(st.sampled_from([2, 3, 5])))
    E1 = _random_complex(data.draw, 0)
    E2 = _random_complex(data.draw, 10)
    full = SimplicialComplex([tuple(range(100, 104))])
    CV = chain_complex(full, field)
    nodes = [CV, CV, CV]
    edges = []
    for E in (E1, E2):
        CE = chain_complex(E, field)
        vmap = {v: 100 + (v % 4) for v in E.vertices}
        lm = induced_chain_map(vmap, E, full, CE, CV)
        edges.append((CE, lm, lm))
    tel = telescope(nodes, [(edges[0][0], edges[0][1], edges[0][2]),
                            (edges[1][0], edges[1][1], edges[1][2])])
    chi = euler_characteristic(tel)
    want = 3 * 1 - euler_characteristic(edges[0][0]) - euler_characteristic(edges[1][0])
    assert chi == want
    # telescope of identity cylinders over a full simplex is contractible
    assert homology(tel, 0).rank == 1


def test_chain_complex_rejects_broken_boundary():
    with pytest.raises(ValueError):
        ChainComplex(F2, {0: ["a"], 1: ["e"], 2: ["t"]},
                     {1: [[1]], 2: [[1]]})


@pytest.mark.parametrize("field", [F2, F3])
def test_every_perturbed_boundary_entry_breaks_d_o_d(field):
    # in the solid tetrahedron every cell has a face or a coface, so one
    # entry of d_k moved by 1 breaks the first composite d_{m-1} d_m holding
    # it, m = max(k, 2)
    C = chain_complex(SimplicialComplex([(0, 1, 2, 3)]), field)
    for k in (1, 2, 3):
        for i, j in itertools.product(range(C.dim(k - 1)), range(C.dim(k))):
            d = {m: np.array(C.boundary(m)) for m in (1, 2, 3)}
            d[k][i, j] += 1
            with pytest.raises(ValueError, match=f"d o d != 0 at degree {max(k, 2)}"):
                ChainComplex(field, dict(C.labels), d)
    ChainComplex(field, dict(C.labels), dict(C.boundaries))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 33554393]), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_d_o_d_check_matches_dense_product(p, n0, n1, n2, data):
    field = PrimeField(p)

    def matrix(rows, cols):
        # mostly zeros, entries written as any representative
        entries = st.sampled_from([0, 0, 0, 1, -1, p - 1, p + 1, 2 * p])
        return np.array(data.draw(st.lists(entries, min_size=rows * cols,
                                           max_size=rows * cols)),
                        dtype=np.int64).reshape(rows, cols)

    d1, d2 = matrix(n0, n1), matrix(n1, n2)
    labels = {0: list(range(n0)), 1: list(range(n1)), 2: list(range(n2))}
    if field.matmul(d1 % p, d2 % p).any():
        with pytest.raises(ValueError, match="d o d != 0 at degree 2"):
            ChainComplex(field, labels, {1: d1, 2: d2})
    else:
        ChainComplex(field, labels, {1: d1, 2: d2})


def test_chain_map_rejects_non_commuting_matrices(monkeypatch):
    seg = SimplicialComplex([(0, 1)])
    C = chain_complex(seg, F3)
    # with the orientation sign lost, the swapped edge maps to +e while its
    # boundary maps to -de: f(de) != d(f(e)) over F_3
    monkeypatch.setattr(complexes, "_sorted_with_sign", lambda v: (tuple(sorted(v)), 1))
    with pytest.raises(ValueError, match="commute"):
        induced_chain_map({0: 1, 1: 0}, seg, seg, C, C)


def test_checks_survive_optimized_mode():
    header = ("from paramhom.complexes import ChainComplex, SimplicialComplex, "
              "chain_complex, telescope; from paramhom.fieldlin import PrimeField; ")
    cases = [
        ("ChainComplex(PrimeField(2), {0: ['a'], 1: ['e'], 2: ['t']}, "
         "{1: [[1]], 2: [[1]]})", "ValueError: d o d != 0"),
        ("C = chain_complex(SimplicialComplex([(0,)]), PrimeField(2)); "
         "telescope([C, C], [])", "ValueError: 2 nodes need 1 edges"),
        ("from paramhom.complexes import homology; "
         "PrimeField.kernel_basis = lambda self, M: 2 * self.identity(M.shape[1]); "
         "homology(chain_complex(SimplicialComplex([(0,)]), PrimeField(3)), 0)",
         "ValueError: cycle basis is not the identity"),
        ("import paramhom.complexes as c; "
         "c._sorted_with_sign = lambda v: (tuple(sorted(v)), 1); "
         "S = SimplicialComplex([(0, 1)]); C = chain_complex(S, PrimeField(3)); "
         "c.induced_chain_map({0: 1, 1: 0}, S, S, C, C)",
         "ValueError: chain map fails to commute"),
        # the README circle with a stray vertex in its left map
        ("from paramhom.rspace import ConstructibleRSpace; "
         "ConstructibleRSpace([0.0, 1.0], [SimplicialComplex([(0,)])] * 2, "
         "[SimplicialComplex([(0,), (1,)])], [{0: 0, 1: 0, 7: 0}], [{0: 0, 1: 0}], "
         "PrimeField(2))", "ValueError: gap 0: left map names vertex 7"),
        ("from paramhom.rspace import ConstructibleRSpace; "
         "X = ConstructibleRSpace([0.0, 1.0], [SimplicialComplex([(0,)])] * 2, "
         "[SimplicialComplex([(0,), (1,)])], [{0: 0, 1: 0}], [{0: 0, 1: 0}], "
         "PrimeField(2)); X.piece_chain(('V', 1)); X.piece_chain(('V', True))",
         "ValueError: no piece ('V', True)"),
    ]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    for code, message in cases:
        proc = subprocess.run([sys.executable, "-O", "-c", header + code],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert message in proc.stderr, proc.stderr


def test_chain_complex_is_read_only():
    C = chain_complex(SimplicialComplex(SOLID_TRIANGLE), F3)
    with pytest.raises(AttributeError):
        C.labels[0].append((7,))
    with pytest.raises(TypeError):
        C.labels[0] = []
    with pytest.raises(ValueError, match="read-only"):
        C.boundary(1)[0, 0] = 2
    with pytest.raises(TypeError):
        C.boundaries[1] = C.boundary(2)
    h = homology(C, 0)
    with pytest.raises(ValueError, match="read-only"):
        h.representatives[0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        h.projection[0, 0] = 2
    assert C.labels[0] == ((0,), (1,), (2,)) and not homology(C, 1).rank


def test_homology_maps_reject_mismatched_inputs():
    seg = SimplicialComplex([(0, 1)])
    C = chain_complex(seg, F3)
    h0, h1 = homology(C, 0), homology(C, 1)
    # the endpoint swap as a column map: column j goes to column 1 - j
    assert np.array_equal(induced_homology_map(h0, h0, [1, 0]), [[1]])
    assert np.array_equal(induced_homology_map(h0, h0, [1, 0], [2, 2]), [[2]])
    assert np.array_equal(induced_homology_map(h0, h0, [-1, -1]), [[0]])
    with pytest.raises(ValueError, match="columns"):
        induced_homology_map(h0, h0, [0])
    with pytest.raises(ValueError, match="degrees"):
        induced_homology_map(h0, h1, [0, 1])
