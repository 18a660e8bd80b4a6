from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramhom.fieldlin import PrimeField

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
