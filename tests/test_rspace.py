from __future__ import annotations

import importlib
import math
import pkgutil
import random
from collections import Counter

import numpy as np
import pytest

import paramhom
from paramhom import complexes, rspace
from paramhom.complexes import SimplicialComplex, homology
from paramhom.diagrams import Rectangle
from paramhom.checks import run_all
from paramhom.extended import extended_profile
from paramhom.fieldlin import PrimeField
from paramhom.measures import full_bar_count, measure_profile
from paramhom.rspace import ConstructibleRSpace

import corpus
from corpus import refine, with_critical_values

F2, F3 = PrimeField(2), PrimeField(3)
INF = math.inf

GLOBAL_HOMOLOGY = {
    # hand-checked Betti numbers of the total spaces
    "circle": (1, 1, 0),
    "sphere": (1, 0, 1),
    "segment": (1, 0, 0),
    "point": (1, 0, 0),
    "v_shape": (1, 0, 0),
    "w_shape": (1, 0, 0),
    "two_component": (2, 0, 0),
    "cylinder": (1, 1, 0),
    "torus": (1, 2, 1),
    "fig4_oo": (1, 1, 0),
    "fig4_co": (1, 0, 0),
    "fig4_oc": (1, 0, 0),
    "fig4_cc": (2, 0, 0),
}


def slice_ranks(X, p, q, top=3):
    return tuple(X.slice_homology(p, q, k)[0].rank for k in range(top))


@pytest.mark.parametrize("name", sorted(GLOBAL_HOMOLOGY))
def test_full_slice_recovers_global_homology(name):
    X = corpus.corpus()[name]
    assert slice_ranks(X, -INF, INF) == GLOBAL_HOMOLOGY[name]


def test_validate_accepts_corpus_and_flags_breakage():
    for name, X in corpus.corpus().items():
        assert X.validate() == [], name
    with pytest.raises(ValueError, match=r"left map undefined on vertex 'y'; "
                                         r"gap 0: right image \('nope',\) of \('y',\)"):
        ConstructibleRSpace(
            (0.0, 1.0),
            [SimplicialComplex([("a",)]), SimplicialComplex([("b",)])],
            [SimplicialComplex([("x",), ("y",)])],
            [{"x": "a"}],  # y unmapped
            [{"x": "b", "y": "nope"}],  # image vertex missing
            F2)


def test_stray_map_key_refused_at_construction():
    # a space built in Python is refused with the message the CLI prints
    pt, two = SimplicialComplex([(0,)]), SimplicialComplex([(0,), (1,)])
    with pytest.raises(ValueError, match="^gap 0: left map names vertex 7, "
                                         "which is not in the gap fiber$"):
        ConstructibleRSpace((0.0, 1.0), [pt, pt], [two], [{0: 0, 1: 0, 7: 0}],
                            [{0: 0, 1: 0}], F2)


def test_fields_are_read_only():
    # an edit would leave the cached chains, maps and homology stale
    X = corpus.circle()
    X.slice_homology(-INF, INF, 0)
    with pytest.raises(TypeError):
        X.left_maps[0][0] = 1
    with pytest.raises(TypeError):
        X.vertex_complexes[0].simplices[0][0] = ("z",)
    with pytest.raises(TypeError):
        X.vertex_complexes[0].simplices[0] = ()
    with pytest.raises(TypeError):
        X.edge_complexes[0] = X.vertex_complexes[0]


def test_fields_cannot_be_rebound():
    X = corpus.circle()
    before = slice_ranks(X, -INF, INF)
    for name in ("critical_values", "vertex_complexes", "edge_complexes",
                 "left_maps", "right_maps", "field"):
        with pytest.raises(AttributeError, match=name):
            setattr(X, name, getattr(X, name))
        with pytest.raises(AttributeError, match=name):
            delattr(X, name)
    with pytest.raises(AttributeError, match="left_maps"):
        X.left_maps = ({"x": "t"},)
    assert slice_ranks(X, -INF, INF) == before


def test_cached_chains_and_maps_are_read_only():
    # an edit through a returned value would change every later answer
    X = corpus.circle()
    C = X.piece_chain(("V", 0))
    with pytest.raises(AttributeError):
        C.labels[0].append("junk")
    for M in (X.telescope().boundary(1), X.piece_homology(("E", 0), 0).representatives,
              X.piece_homology(("E", 0), 0).projection,
              X.attachment_homology_map(0, "left", 0), *X.slice_homology(0.5, 1.0, 0)[1:],
              *X.slice_homology(0.2, 0.8, 0)[1:]):
        with pytest.raises(ValueError, match="read-only"):
            M[...] = 0
    assert X.piece_chain(("V", 0)).labels == {0: (("b",),)}


@pytest.mark.parametrize("call", [
    lambda X, k: X.piece_homology(("E", 0), k),
    lambda X, k: X.piece_homology(("W", 0, 1), k),
    lambda X, k: X.attachment_homology_map(0, "left", k),
    lambda X, k: X.slice_homology(-INF, INF, k),
], ids=["fiber", "window", "attachment", "slice"])
def test_non_int_degree_refused_after_int_degree_cached(call):
    # 0.0 == False == 0 would meet a cached degree 0, True a cached 1
    X = corpus.circle()
    for k in (0, 1):
        call(X, k)
    for k in (0.5, 0.0, True, np.int64(1), "0"):
        with pytest.raises(ValueError, match="degree"):
            call(X, k)


def test_ill_typed_keys_refused_after_int_key_cached():
    # ("V", 0.0) == ("V", False) == ("V", 0), so the check precedes each lookup
    X = corpus.circle()
    X.slice_homology(-INF, INF, 0)
    X.slice_homology(0.2, 0.8, 0)
    for key in (("V", 0.0), ("V", False), ("E", 0.0), ("W", 0, True), ("P", 1.0)):
        with pytest.raises(ValueError, match="no piece"):
            X.piece_chain(key)
        with pytest.raises(ValueError, match="no piece"):
            X.piece_homology(key, 0)
    for i in (0.0, False):
        with pytest.raises(ValueError, match="no piece"):
            X.attachment_homology_map(i, "left", 0)
        with pytest.raises(ValueError, match="no piece"):
            X.edge_chain_maps(i)


def test_constructor_faults():
    pt = SimplicialComplex([("p",)])
    with pytest.raises(ValueError):
        ConstructibleRSpace((1.0, 0.0), [pt, pt], [pt], [{"p": "p"}], [{"p": "p"}], F2)
    with pytest.raises(ValueError):
        ConstructibleRSpace((), [], [], [], [], F2)
    with pytest.raises(ValueError):
        ConstructibleRSpace((0.0,), [pt], [pt], [{}], [{}], F2)


def test_levelset_piece_selection():
    X = corpus.circle()
    assert X.levelset(-0.5).n_simplices() == 0
    assert X.levelset(0.0).vertices == ["b"]
    assert X.levelset(0.5).vertices == ["x", "y"]
    assert X.levelset(1.0).vertices == ["t"]
    assert X.levelset(7.0).n_simplices() == 0


def test_point_slices_match_levelsets():
    from paramhom.complexes import chain_complex

    X = corpus.vertical_torus()
    for t in (-1.0, 0.0, 0.3, 1.0, 1.7, 2.0, 2.5, 3.0, 99.0):
        fiber_chain = chain_complex(X.levelset(t), X.field)
        for k in (0, 1):
            h = X.slice_homology(t, t, k)[0]
            assert h.rank == homology(fiber_chain, k).rank
            assert h.complex.dim(0) == fiber_chain.dim(0)


def test_slice_plans():
    # (lo, hi, fiber at p, fiber at q), a_lo..a_hi the critical values inside
    X = corpus.circle()
    assert X.critical_values == (0.0, 1.0)
    # inside one gap: no critical value, lo > hi
    assert X.slice_plan(0.2, 0.8) == (1, 0, ("E", 0), ("E", 0))
    # a critical end and a gap end
    assert X.slice_plan(0.0, 0.8) == (0, 0, ("V", 0), ("E", 0))
    assert X.slice_plan(0.2, 1.0) == (1, 1, ("E", 0), ("V", 1))
    assert X.slice_plan(-2.0, 0.8) == (0, 0, None, ("E", 0))
    # both ends outside the support, on the same side
    assert X.slice_plan(-2.0, -1.0) == (0, -1, None, None)
    assert X.slice_plan(2.0, 3.0) == (2, 1, None, None)
    # infinite ends
    assert X.slice_plan(-INF, INF) == (0, 1, None, None)
    assert X.slice_plan(-INF, 0.5) == (0, 0, None, ("E", 0))
    assert X.slice_plan(1.0, INF) == (1, 1, ("V", 1), None)
    for p, q in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            X.slice_plan(p, q)


def test_circle_slices():
    X = corpus.circle()
    # two disjoint arcs strictly between the extrema
    assert slice_ranks(X, 0.2, 0.8) == (2, 0, 0)
    # one arc once the minimum is included
    assert slice_ranks(X, 0.0, 0.8) == (1, 0, 0)
    assert slice_ranks(X, -INF, 0.8) == (1, 0, 0)
    # whole circle
    assert slice_ranks(X, 0.0, 1.0) == (1, 1, 0)
    # empty outside the support
    assert slice_ranks(X, 5.0, 6.0) == (0, 0, 0)


def test_fiber_inclusion_maps():
    X = corpus.circle()
    h, mp, mq = X.slice_homology(0.0, 1.0, 0)
    assert h.rank == 1
    assert mp.shape == (1, 1) and mp[0, 0] == 1
    assert mq.shape == (1, 1) and mq[0, 0] == 1
    # strictly inside the gap: two arcs, fiber includes by the identity
    h2, mp2, _ = X.slice_homology(0.5, 0.8, 0)
    assert h2.rank == 2 and mp2.shape == (2, 2)
    # through the maximum: one arc, both fiber components land on it
    h3, mp3, _ = X.slice_homology(0.5, 1.0, 0)
    assert h3.rank == 1 and mp3.shape == (1, 2)
    assert mp3[0, 0] == mp3[0, 1] == 1


def test_sublevel_superlevel():
    X = corpus.circle()
    assert X.slice_homology(-INF, 0.5, 0)[0].rank == 1
    assert X.slice_homology(-INF, 0.5, 1)[0].rank == 0
    assert X.slice_homology(-INF, 1.0, 1)[0].rank == 1
    assert X.slice_homology(0.5, INF, 0)[0].rank == 1
    assert X.slice_homology(-9.0, INF, 1)[0].rank == 1


def test_regular_interval_invariance():
    # slices with the same plan share homology (and are cached together)
    X = corpus.w_shape()
    a = X.slice_plan(0.05, 0.45)
    b = X.slice_plan(0.1, 0.55)
    assert a == b
    assert slice_ranks(X, 0.05, 0.45) == slice_ranks(X, 0.1, 0.55)


def test_refine_preserves_slice_homology():
    for name in ("circle", "torus", "w_shape", "fig4_oo"):
        X = corpus.corpus()[name]
        vals = X.critical_values
        cuts = [(vals[0] + vals[1]) / 2, vals[0] - 1.0, vals[-1] + 1.0]
        Y = refine(X, cuts)
        assert Y.n_critical == X.n_critical + 1
        assert Y.validate() == []
        for (p, q) in [(-INF, INF), (vals[0], vals[-1]), (cuts[0], vals[-1])]:
            assert slice_ranks(X, p, q) == slice_ranks(Y, p, q)
    # no-op refinement returns the same object
    X = corpus.circle()
    assert refine(X, [0.0, 1.0, -5.0]) is X


def test_with_critical_values():
    X = corpus.circle()
    Y = with_critical_values(X, (10.0, 20.0))
    assert Y.critical_values == (10.0, 20.0)
    assert slice_ranks(Y, 10.0, 20.0) == (1, 1, 0)
    with pytest.raises(ValueError):
        with_critical_values(X, (1.0,))
    with pytest.raises(ValueError):
        with_critical_values(X, (2.0, 1.0))


def test_random_spaces_are_valid():
    rng = random.Random(7)
    for _ in range(25):
        X = corpus.random_space(rng)
        assert X.validate() == []
        # the full slice must build and have consistent chain data
        for k in range(max(X.max_piece_dimension(), 0) + 1):
            X.slice_homology(-INF, INF, k)


@pytest.fixture
def telescope_builds(monkeypatch) -> list[tuple]:
    """The node chain complexes of every telescope built, as id tuples."""
    built = []

    def counting(nodes, edges):
        built.append(tuple(map(id, nodes)))
        return original(nodes, edges)

    original = complexes.telescope
    for mod in pkgutil.iter_modules(paramhom.__path__):
        module = importlib.import_module(f"paramhom.{mod.name}")
        if getattr(module, "telescope", None) is original:
            monkeypatch.setattr(module, "telescope", counting)
    return built


def test_one_telescope_per_window(telescope_builds):
    # extended pieces and slices share the cached windows: across extended
    # and rectangle modules on two rectangles, no window is built twice
    rng = random.Random(12)
    for name, X in corpus.corpus().items():
        rects = [corpus.random_rectangle(rng, X.critical_values) for _ in range(2)]
        telescope_builds.clear()
        for R in rects + rects:
            for k in (0, 1):
                extended_profile(X, k, R)
                measure_profile(X, k, R)
        assert telescope_builds, name
        assert len(set(telescope_builds)) == len(telescope_builds), name


def test_narrow_slices_build_only_their_windows(telescope_builds):
    # a rectangle around one level of a long tube never builds the whole space
    X = corpus.tube_space(40, 5)
    for k in (0, 1):
        measure_profile(X, k, Rectangle(19.5, 20.5, 21.5, 22.5))
        full_bar_count(X, k, 20.5, 21.5)
    assert sorted(map(len, telescope_builds)) == [1, 1, 1]


def test_low_rectangle_builds_no_whole_telescope(telescope_builds):
    # X^t is a window from level 0 up to t, and (X, X_t) one up to the first
    # critical value >= t: a low rectangle stays at the bottom of the tube
    X = corpus.tube_space(40, 5)
    for k in (0, 1, 2):
        extended_profile(X, k, Rectangle(1.5, 2.5, 4.5, 5.5))
    assert telescope_builds
    assert max(map(len, telescope_builds)) == 7  # the window (0, 6) of (X, X_5.5)


def _blocks(T, keep) -> dict:
    """Per degree, the telescope columns of the blocks ("v" or "e", i) kept."""
    return {k: [j for j, (tag, i, _) in enumerate(labels) if keep(tag, i)]
            for k, labels in T.labels.items()}


def test_window_is_columns_of_whole_telescope():
    # the slice window [a_lo, a_hi] is the whole telescope's columns over it
    for name, X in corpus.corpus(F3).items():
        n = X.n_critical
        full = X.telescope()
        for lo in range(n):
            for hi in range(lo, n):
                S, _ = complexes.subcomplex(full, _blocks(
                    full, lambda tag, i: lo <= i and i + (tag == "e") <= hi))
                W = X.telescope(lo, hi)
                assert W.labels == {k: tuple((tag, i - lo, x) for tag, i, x in labels)
                                    for k, labels in S.labels.items()}, (name, lo, hi)
                for k in S.degrees():
                    assert W.boundary(k).tobytes() == S.boundary(k).tobytes(), (name, lo, hi, k)
        assert X.telescope(0, n - 1) is full


# Column orders a telescope could use, as sort keys on the labels; the sort
# is stable, so each block keeps its own order.
LAYOUTS = {
    "edges_first": lambda label: label[0] == "v",
    # V_0, V_1, E_0, V_2, E_1, ...: each E_t right after V_{t+1}
    "by_level": lambda label: 2 * label[1] - 1 if label[0] == "v" else 2 * label[1] + 2,
}


def _permuted(T, key) -> complexes.ChainComplex:
    """T with each degree's columns sorted by key(label), boundaries carried along."""
    order = {k: sorted(range(T.dim(k)), key=lambda c: key(T.labels[k][c]))
             for k in T.degrees()}
    row = {k: {c: i for i, c in enumerate(cols)} for k, cols in order.items()}
    return complexes.ChainComplex(
        T.field, {k: [T.labels[k][c] for c in cols] for k, cols in order.items()},
        {k: [[(row[k - 1][r], x) for r, x in T.columns[k][c]] for c in cols]
         for k, cols in order.items()})


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_answers_do_not_depend_on_telescope_layout(monkeypatch, field, layout):
    # only the telescope knows where a block's columns sit: every other
    # module finds cells by label, so reordering them changes no answer
    def answers() -> dict:
        rng = random.Random(21)
        out = {}
        for name, X in corpus.corpus(field).items():
            rects = [corpus.random_rectangle(rng, X.critical_values) for _ in range(3)]
            for k in range(max(X.max_piece_dimension(), 0) + 2):
                for R in rects:
                    out[name, k, R] = (measure_profile(X, k, R),
                                       full_bar_count(X, k, R.b, R.c),
                                       extended_profile(X, k, R))
        return out

    want = answers()
    moved = []

    def reordered(nodes, edges):
        T = original(nodes, edges)
        P = _permuted(T, LAYOUTS[layout])
        moved.append(P.labels != T.labels)
        return P

    original = rspace.telescope
    monkeypatch.setattr(rspace, "telescope", reordered)
    assert answers() == want
    assert any(moved)


def test_relative_pieces_by_excision():
    # the pair ("P", j), (X, X_{a_j}) as the window (0, j) modulo its V_j
    # block, equals the whole telescope modulo the cells over [a_j, inf)
    for name, X in corpus.corpus(F3).items():
        full = X.telescope()
        for j in range(X.n_critical):
            want, _ = complexes.quotient_complex(full, _blocks(full, lambda tag, i: i >= j))
            for k in range(3):
                got = X.piece_homology(("P", j), k).complex
                assert got is X.piece_chain(("P", j)), (name, j, k)
                assert got.labels == want.labels, (name, j, k)
                for d in want.degrees():
                    assert got.boundary(d).tobytes() == want.boundary(d).tobytes(), (name, j, d)


@pytest.fixture
def reductions(monkeypatch) -> list[tuple]:
    """(chain complex, degree) of every homology taken."""
    taken = []

    def counting(C, k):
        taken.append((C, k))
        return original(C, k)

    original = complexes.homology
    for mod in pkgutil.iter_modules(paramhom.__path__):
        module = importlib.import_module(f"paramhom.{mod.name}")
        if getattr(module, "homology", None) is original:
            monkeypatch.setattr(module, "homology", counting)
    return taken


def test_extended_profile_twice_reduces_nothing_new(reductions):
    rng = random.Random(4)
    for name, X in corpus.corpus().items():
        for k in range(max(X.max_piece_dimension(), 0) + 2):
            R = corpus.random_rectangle(rng, X.critical_values)
            first = extended_profile(X, k, R)
            reductions.clear()
            assert extended_profile(X, k, R) == first
            assert reductions == [], (name, k, R)


def test_validate_reduces_each_window_and_pair_once(reductions):
    # every homology taken is of a cached piece, and each once per degree
    X = corpus.tube_space(7, 5)
    run_all(X, random.Random(1), 1)
    pieces = {id(C): key for key, C in X._chain.items()}
    seen = Counter((pieces[id(C)], k) for C, k in reductions)
    assert {"W", "P"} <= {key[0] for key, _ in seen if key}
    assert max(seen.values()) == 1, [key for key, m in seen.items() if m > 1]


def test_out_of_range_pieces_refused():
    X = corpus.circle()  # critical values 0 and 1, one gap
    for key in (("V", -1), ("V", 2), ("E", -1), ("E", 1), ("Q", 0), ("V", 0.0), "V"):
        with pytest.raises(ValueError, match="no piece"):
            X.piece(key)
    for key in (("V", -1), ("P", -1), ("P", 2), ("W", 0.0, 1)):
        with pytest.raises(ValueError, match="no piece"):
            X.piece_homology(key, 0)
    with pytest.raises(ValueError, match="no window"):
        X.piece_homology(("W", 0, 2), 0)
    for i in (-1, 1):
        with pytest.raises(ValueError, match="no piece"):
            X.attachment_homology_map(i, "left", 0)
    for lo, hi in ((-1, 0), (-1, 1), (1, 0), (0, 2)):
        with pytest.raises(ValueError, match="no window"):
            X.telescope(lo, hi)
