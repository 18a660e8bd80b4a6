from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramhom.fieldlin import PrimeField

from oracles import dense_rref

PRIMES = [2, 3, 5, 7]


def matrices(max_dim=5, primes=PRIMES):
    @st.composite
    def build(draw):
        p = draw(st.sampled_from(primes))
        r = draw(st.integers(0, max_dim))
        c = draw(st.integers(0, max_dim))
        entries = draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c))
        return PrimeField(p), np.array(entries, dtype=np.int64).reshape(r, c)

    return build()


def loop_kernel_basis(field: PrimeField, M) -> np.ndarray:
    """kernel_basis filled entry by entry: the reference for its vector form."""
    A = field.normalize(M)
    R, pivots = field.rref(A)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    K = field.zeros(A.shape[1], len(free))
    for j, fc in enumerate(free):
        K[fc, j] = 1
        for i, pc in enumerate(pivots):
            K[pc, j] = (-R[i, fc]) % field.p
    return K


def _sparse_case(rng, field, rows, cols, density):
    """A rows x cols matrix with about `density` of its entries nonzero mod p,
    written with representatives that are negative or >= p as often as not."""
    p = field.p
    M = rng.integers(1, p, size=(rows, cols)) + p * rng.integers(-2, 3, size=(rows, cols))
    return np.where(rng.random((rows, cols)) < density, M, p * rng.integers(-2, 3, size=(rows, cols)))


@pytest.mark.parametrize("p", [2, 3, 33554393])
def test_rref_equals_dense_rref(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1), (40, 6), (6, 40), (25, 25), (60, 90)]
    for rows, cols in shapes:
        for density in (0, 0.01, 0.05, 0.3, 1):
            for _ in range(3):
                M = _sparse_case(rng, field, rows, cols, density)
                before = M.copy()
                for A in (M, M.T):  # M.T is a view that is not C-contiguous
                    R, pivots = field.rref(A)
                    want, want_pivots = dense_rref(field, A)
                    assert pivots == want_pivots, (p, A.shape, density)
                    assert (R.shape, R.dtype, R.tobytes()) == (
                        want.shape, want.dtype, want.tobytes())
                assert np.array_equal(M, before), "rref modified its input"


def test_rref_of_dependent_rows():
    # row 3 is row 1 + row 2 and reduces to zero; the first pivot row is
    # back-substituted through both later pivots, which clears its column 3
    F5 = PrimeField(5)
    R, pivots = F5.rref([[0, 1, 1, 0], [1, 2, 0, 3], [1, 3, 1, 3], [0, 0, 1, 1]])
    assert pivots == [0, 1, 2]
    assert R.tolist() == [[1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 1], [0, 0, 0, 0]]


@pytest.mark.parametrize("M", [
    [[0.5]], [[1.5, 2]], [[float("nan")]], [[float("inf")]], [[2.0 ** 63]],
    [[2 ** 64]], [[-(2 ** 63) - 1]], np.array([[2 ** 63]], dtype=np.uint64),
    np.array([[1, None]], dtype=object), np.array([[3, 0.25]], dtype=object),
    [["1"]], [[1j]],
], ids=repr)
def test_inexact_entries_are_refused(M):
    # truncating 1.5 to 1 or wrapping 2**63 to -2**63 would answer for
    # another matrix; each is refused before any elimination
    with pytest.raises(ValueError, match="entr"):
        PrimeField(3).normalize(M)
    with pytest.raises(ValueError, match="entr"):
        PrimeField(3).rref(M)


def test_integral_entries_of_any_dtype_pass():
    F3 = PrimeField(3)
    assert F3.normalize(np.zeros((3, 4))).tolist() == [[0] * 4] * 3
    assert F3.normalize(np.zeros((3, 4))).dtype == np.int64
    for M in ([[4.0, -1.0]], np.array([[4, 2]], dtype=np.uint64), np.array([[4, -1]], dtype=object),
              np.array([[4, -1]], dtype=np.int8), [[2 ** 63 - 1, -(2 ** 63)]]):
        assert F3.normalize(M).tolist() == [[1, np.int64(M[0][1]) % 3]]
    assert F3.normalize(np.array([[True, False]])).tolist() == [[1, 0]]


def test_characteristic_must_be_prime():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(6)
    PrimeField(2)
    PrimeField(7919)


def test_matmul_splits_long_inner_dimension():
    # 20000 products of (p-1)^2 overflow int64; the exact sum is 20000 mod p
    field = PrimeField(33554393)
    A = np.full((1, 20000), field.p - 1, dtype=np.int64)
    assert field.matmul(A, A.T)[0, 0] == 20000
    with pytest.raises(ValueError):
        field.matmul(A, A)


def test_rank_known_values():
    F5 = PrimeField(5)
    assert F5.rank([[2, 4], [1, 2]]) == 1
    F2 = PrimeField(2)
    assert F2.rank([[1, 1], [1, 1]]) == 1
    assert F2.rank(np.zeros((3, 4))) == 0
    assert F5.rank(F5.identity(4)) == 4
    # rank depends on the characteristic: det = 2
    M = [[1, 1], [1, 3]]
    assert PrimeField(2).rank(M) == 1
    assert PrimeField(3).rank(M) == 2


def test_kernel_known_values():
    F2 = PrimeField(2)
    K = F2.kernel_basis([[1, 1]])
    assert K.shape == (2, 1)
    assert np.array_equal(K[:, 0], [1, 1])
    # empty edge cases
    assert F2.kernel_basis(np.zeros((0, 3))).shape == (3, 3)
    assert F2.kernel_basis(np.zeros((3, 0))).shape == (0, 0)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_transpose_and_nullity(fm):
    field, M = fm
    r = field.rank(M)
    assert r == field.rank(M.T)
    K = field.kernel_basis(M)
    want = loop_kernel_basis(field, M)
    assert (K.shape, K.dtype, K.tobytes()) == (want.shape, want.dtype, want.tobytes())
    assert r + K.shape[1] == M.shape[1]
    if K.size:
        assert not field.matmul(M, K).any()
    assert field.rank(K) == K.shape[1]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_quotient_map_properties(fm):
    # any B, dependent columns included: there is no precondition
    field, B = fm
    n = B.shape[0]
    chosen, proj = field.quotient_map(B)
    dim = len(chosen)
    assert dim == n - field.rank(B)
    assert proj.shape == (dim, n)
    if B.size:
        assert not field.matmul(proj, B).any()
    reps = field.identity(n)[:, chosen]
    assert np.array_equal(field.matmul(proj, reps), field.identity(dim))
    assert field.rank(proj) == dim


def test_quotient_of_plane_by_line():
    F5 = PrimeField(5)
    # the line twice over: dependent columns are fine
    chosen, proj = F5.quotient_map([[1, 3], [0, 0], [0, 0]])
    assert chosen == [1, 2]
    # e2, e3 classes are independent in the quotient, e1 is killed
    assert F5.rank(F5.matmul(proj, F5.identity(3)[:, 1:])) == 2
    assert not proj[:, 0].any()
