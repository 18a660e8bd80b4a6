"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p), on the
way in and on the way out; an input entry that int64 does not hold exactly
is refused, never truncated or wrapped.  Elimination runs on sparse rows:
`rref` reads the nonzeros of its input into rows of Python ints, reduces
those, and writes the reduced form back as an int64 array, so its
elimination work follows the nonzeros, not the shape.  All routines are
deterministic: rows and columns are scanned in index order, so pivot
choices depend only on the input matrix, never on hashing or timing.

numpy is used purely as an exact integer container with vectorized
arithmetic; there is no floating point anywhere in this module.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PrimeField"]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """F_p together with exact matrix routines.

    Args:
        p: the characteristic; must be a prime below 2^25.
    """

    def __init__(self, p: int):
        if p >= 1 << 25:
            # keeps every product (p-1)^2 of int64 entries far below overflow;
            # checked first, as trial division of a huge p would not finish
            raise ValueError(f"characteristic {p} too large for exact int64 arithmetic")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        # longest inner dimension whose dot products cannot overflow int64
        self._max_inner = (2 ** 63 - 1) // (p - 1) ** 2

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- array plumbing ----------------------------------------------------

    def normalize(self, M) -> np.ndarray:
        """Coerce to an int64 array with entries reduced into [0, p).  An entry
        int64 does not hold exactly, such as 0.5 or 2**64, raises ValueError."""
        A = np.asarray(M)
        if A.dtype != np.int64:
            with np.errstate(invalid="ignore"):  # a cast out of range fails the test
                try:
                    B = A.astype(np.int64) if A.dtype.kind in "biufO" else None
                except (TypeError, ValueError, OverflowError):
                    B = None
            if B is None or not (B == A).all():
                raise ValueError(f"a {A.dtype} matrix entry is not an integer int64 holds")
            A = B
        if A.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={A.ndim}")
        return A % self.p

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        n, step = A.shape[1], self._max_inner
        if n != B.shape[0]:
            raise ValueError(f"shapes {A.shape} and {B.shape} do not compose")
        if n <= step:
            return (A @ B) % self.p
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for i in range(0, n, step):
            out = (out + (A[:, i:i + step] @ B[i:i + step]) % self.p) % self.p
        return out

    def inv_scalar(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(x, self.p - 2, self.p)

    # -- elimination -------------------------------------------------------

    def rref(self, M) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form, by Gauss-Jordan on sparse rows.

        Each row of M is read once into a dict {column: entry} of Python
        ints and reduced by the pivot row at its leading column until that
        column holds no pivot; it then becomes the pivot row there, scaled
        to 1.  Back-substitution clears the later pivot columns of each
        pivot row, from the last pivot back.  Only nonzeros are touched, and
        the reduced form is unique, so R does not depend on this order.

        Returns:
            (R, pivots) where R is the fully reduced form of M and pivots
            lists the pivot column indices in increasing order.
        """
        A = self.normalize(M)
        p, cols = self.p, A.shape[1]
        flat = A.ravel().nonzero()[0]
        rows: list[dict[int, int]] = [{} for _ in range(A.shape[0])]
        for at, v in zip(flat.tolist(), A.take(flat).tolist()):
            r, c = divmod(at, cols)
            rows[r][c] = v
        lead: dict[int, dict[int, int]] = {}  # pivot column -> its row
        for row in rows:
            while row:
                c = min(row)
                pivot_row = lead.get(c)
                if pivot_row is None:
                    inv = self.inv_scalar(row[c])
                    lead[c] = {j: v * inv % p for j, v in row.items()}
                    break
                f = row[c]  # subtracting f * pivot_row clears column c
                for j, v in pivot_row.items():
                    if x := (row.get(j, 0) - f * v) % p:
                        row[j] = x
                    else:
                        del row[j]
        pivots = sorted(lead)
        for c in reversed(pivots):
            row = lead[c]
            # each later pivot row is reduced already: 1 at its own pivot and
            # 0 at every other, so subtracting it refills no pivot column
            for j in [j for j in row if j != c and j in lead]:
                f = row[j]
                for jj, v in lead[j].items():
                    if x := (row.get(jj, 0) - f * v) % p:
                        row[jj] = x
                    else:
                        del row[jj]
        R = self.zeros(*A.shape)
        R.put([i * cols + j for i, c in enumerate(pivots) for j in lead[c]],
              [v for c in pivots for v in lead[c].values()])
        return R, pivots

    def rank(self, M) -> int:
        return len(self.rref(M)[1])

    def kernel_basis(self, M) -> np.ndarray:
        """Basis of the right null space, one column per free variable.

        The basis is the standard rref one: kernel vector j has a 1 in the
        j-th free column and is supported on pivot columns otherwise, so the
        result is deterministic and in column-index order.
        """
        R, pivots = self.rref(M)
        free = sorted(set(range(R.shape[1])) - set(pivots))
        K = self.zeros(R.shape[1], len(free))
        K[free, range(len(free))] = 1
        K[pivots] = -R[:len(pivots), free] % self.p
        return K

    def column_space_basis(self, M) -> np.ndarray:
        """The pivot columns of M (leftmost independent subset)."""
        A = self.normalize(M)
        return A[:, self.rref(A)[1]]

    def quotient_map(self, B) -> tuple[list[int], np.ndarray]:
        """Present the quotient F^n / span(B), for any n x m matrix B.

        Returns:
            (chosen, projection): the classes of the standard basis vectors
            e_j, j in chosen, form a basis of the quotient, and projection
            (len(chosen) x n) sends a vector to its coordinates in that
            basis, killing span(B).  len(chosen) is n - rank B.
        """
        B = self.normalize(B)
        n, m = B.shape
        # rref [B | I_n] = E [B | I_n]: pivots past B pick the e_j completing
        # a basis of span(B), and the rows of E holding them project
        R, pivots = self.rref(np.hstack([B, self.identity(n)]))
        nb = sum(c < m for c in pivots)
        chosen = [c - m for c in pivots[nb:]]
        proj = R[nb:, m:]
        if not np.array_equal(proj[:, chosen], self.identity(len(chosen))):
            raise ValueError("projection does not invert the representatives")
        if m and self.matmul(proj, B).any():
            raise ValueError("projection does not kill span(B)")
        return chosen, proj
