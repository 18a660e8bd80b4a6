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
    assert r + K.shape[1] == M.shape[1]
    if K.size:
        assert not field.matmul(M, K).any()
    assert field.rank(K) == K.shape[1]


@settings(max_examples=150, deadline=None)
@given(matrices(max_dim=4), st.data())
def test_quotient_map_properties(fm, data):
    field, M = fm
    # a basis Z of any subspace, and B inside span(Z): the preconditions
    Z = field.column_space_basis(M)
    ncols = data.draw(st.integers(0, 3))
    coeffs = np.array(
        data.draw(
            st.lists(
                st.integers(0, field.p - 1),
                min_size=Z.shape[1] * ncols,
                max_size=Z.shape[1] * ncols,
            )
        ),
        dtype=np.int64,
    ).reshape(Z.shape[1], ncols)
    B = field.matmul(Z, coeffs) if Z.shape[1] else field.zeros(Z.shape[0], ncols)
    q = field.quotient_map(Z, B)
    assert q.dimension == field.rank(Z) - field.rank(B)
    if B.size:
        assert not field.matmul(q.projection, B).any()
    assert np.array_equal(
        field.matmul(q.projection, q.representatives), field.identity(q.dimension)
    )
    # projection restricted to span(Z) is surjective onto the quotient
    if Z.size:
        assert field.rank(field.matmul(q.projection, Z)) == q.dimension


def test_quotient_map_rejects_bad_subspace():
    F2 = PrimeField(2)
    Z = np.array([[1], [0]], dtype=np.int64)
    B = np.array([[0], [1]], dtype=np.int64)
    with pytest.raises(ValueError):
        F2.quotient_map(Z, B)


def test_quotient_map_rejects_dependent_columns():
    F3 = PrimeField(3)
    Z = np.array([[1, 2], [0, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="not a basis"):
        F3.quotient_map(Z, np.zeros((2, 0), dtype=np.int64))
    with pytest.raises(ValueError, match="not a basis"):
        F3.quotient_map(Z, Z[:, :1])


def test_quotient_of_plane_by_line():
    F5 = PrimeField(5)
    q = F5.quotient_map(F5.identity(3), [[1], [0], [0]])
    assert q.dimension == 2
    # e2, e3 classes are independent in the quotient
    img = F5.matmul(q.projection, F5.identity(3)[:, 1:])
    assert F5.rank(img) == 2
