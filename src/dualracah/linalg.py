"""Exact linear algebra on small dense matrices.

Determinants and solves use fraction-free (Bareiss) elimination on a
denominator-cleared integer matrix, so no rounding occurs anywhere and
intermediate entries stay polynomially bounded.
"""

from __future__ import annotations

from math import gcd
from typing import List, Sequence

from .backend import rat, rat_to_str
from .errors import ShapeMismatch, SingularMatrix


def _cleared_int_rows(rows):
    """Scale each row to integers; return (int_rows, row_factors)."""
    int_rows = []
    factors = []
    for row in rows:
        lcm = 1
        for v in row:
            den = v.denominator
            lcm = lcm * den // gcd(lcm, den)
        int_rows.append([int(v.numerator * (lcm // v.denominator)) for v in row])
        factors.append(lcm)
    return int_rows, factors


def _bareiss_det_int(m: List[List[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


class SquareMatrix:
    """Dense square matrix; kind is "exact" (rationals) or "real" (floats).

    Exact matrices support exact det/solve/inverse; real matrices only carry
    entries plus their working precision in bits.
    """

    __slots__ = ("n", "rows", "kind", "prec")

    def __init__(self, rows, kind: str = "exact", prec: int = 0):
        if kind == "exact":
            self.rows = [[rat(v) for v in row] for row in rows]
        else:
            self.rows = [list(row) for row in rows]
        self.n = len(self.rows)
        for row in self.rows:
            if len(row) != self.n:
                raise ShapeMismatch("matrix is not square")
        self.kind = kind
        self.prec = prec

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "SquareMatrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SquareMatrix)
            and self.kind == other.kind
            and self.rows == other.rows
        )

    def _check(self, other: "SquareMatrix"):
        if self.n != other.n or self.kind != other.kind:
            raise ShapeMismatch("incompatible matrices")

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check(other)
        return SquareMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.kind,
            max(self.prec, other.prec),
        )

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check(other)
        return SquareMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.kind,
            max(self.prec, other.prec),
        )

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check(other)
        n = self.n
        cols = list(zip(*other.rows))
        out = [
            [sum((a * b for a, b in zip(row, col)), rat(0)) for col in cols]
            for row in self.rows
        ]
        return SquareMatrix(out, self.kind, max(self.prec, other.prec))

    def scale(self, c) -> "SquareMatrix":
        return SquareMatrix(
            [[c * v for v in row] for row in self.rows], self.kind, self.prec
        )

    def scale_rows(self, values: Sequence) -> "SquareMatrix":
        """diag(values) @ self, without the dense product."""
        return SquareMatrix(
            [[c * v for v in row] for c, row in zip(values, self.rows)], self.kind, self.prec
        )

    def scale_cols(self, values: Sequence) -> "SquareMatrix":
        """self @ diag(values), without the dense product."""
        return SquareMatrix(
            [[v * c for v, c in zip(row, values)] for row in self.rows], self.kind, self.prec
        )

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(list(zip(*self.rows)), self.kind, self.prec)

    def matvec(self, v: Sequence) -> list:
        return [sum((a * b for a, b in zip(row, v)), rat(0)) for row in self.rows]

    def column(self, j: int) -> list:
        return [row[j] for row in self.rows]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def nonzero_entries(self):
        return [
            (i, j, v) for i, row in enumerate(self.rows) for j, v in enumerate(row) if v != 0
        ]

    def to_json(self):
        if self.kind == "exact":
            return {
                "kind": "exact",
                "entries": [[rat_to_str(v) for v in row] for row in self.rows],
            }
        return {
            "kind": "real",
            "precision_bits": self.prec,
            "entries": [[str(v) for v in row] for row in self.rows],
        }


def exact_det(a: SquareMatrix):
    """Exact determinant via fraction-free Bareiss elimination."""
    if a.kind != "exact":
        raise ShapeMismatch("exact_det requires an exact matrix")
    int_rows, factors = _cleared_int_rows(a.rows)
    det = rat(_bareiss_det_int(int_rows))
    for f in factors:
        det = det / f
    return det


def exact_solve(a: SquareMatrix, b: Sequence) -> list:
    """Unique exact solution of a*x = b (SingularMatrix if none)."""
    if a.kind != "exact":
        raise ShapeMismatch("exact_solve requires an exact matrix")
    n = a.n
    if len(b) != n:
        raise ShapeMismatch("right-hand side length mismatch")
    aug = [list(row) + [rat(b[i])] for i, row in enumerate(a.rows)]
    m, _ = _cleared_int_rows(aug)
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    break
            else:
                raise SingularMatrix(f"zero pivot column {k}")
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = piv
    if m[n - 1][n - 1] == 0:
        raise SingularMatrix(f"zero pivot column {n - 1}")
    x = [rat(0)] * n
    for i in range(n - 1, -1, -1):
        acc = rat(m[i][n])
        for j in range(i + 1, n):
            acc -= m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return x


def exact_inverse(a: SquareMatrix) -> SquareMatrix:
    """Inverse by one exact solve per column.

    A test oracle: the library inverts its eigenvector matrix in closed form
    (``closure.eigen_inverse``); this generic route checks that at small N.
    """
    n = a.n
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        cols.append(exact_solve(a, e))
    return SquareMatrix(list(zip(*cols)))


def solve_overdetermined(rows: List[list], rhs: list) -> list:
    """Exact solution of a consistent (possibly overdetermined) system.

    Row-reduces [rows | rhs] over the rationals; raises SingularMatrix if the
    system is inconsistent or the solution is not unique.
    """
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    aug = [[rat(v) for v in rows[i]] + [rat(rhs[i])] for i in range(m)]
    piv_rows = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, m):
            if aug[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            raise SingularMatrix(f"rank-deficient column {c}")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        piv_rows.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][ncols] != 0:
            raise SingularMatrix("inconsistent overdetermined system")
    return [aug[i][ncols] for i in range(ncols)]


def matrix_poly(coeffs: Sequence, h: SquareMatrix) -> SquareMatrix:
    """Evaluate sum_k coeffs[k] * h^k by matrix Horner, exactly.

    A test oracle: the library evaluates polynomials in the Hamiltonian as
    diagonal scalings in its eigenbasis; this route checks that at small N.
    """
    n = h.n
    acc = SquareMatrix.identity(n).scale(rat(0))
    for c in reversed(list(coeffs)):
        acc = acc @ h + SquareMatrix.identity(n).scale(rat(c))
    return acc


def commutator(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """a*b - b*a; a test oracle, like ``matrix_poly``."""
    return a @ b - b @ a


def generic_det(rows) -> object:
    """Determinant over any field scalars (cofactor/Bareiss hybrid).

    Used where entries may be floats (q->1 checks); for rationals the
    division steps are exact.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    for k in range(n - 1):
        pivot = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return m[0][0] * 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] = m[i][j] - f * m[k][j]
    acc = m[0][0]
    for k in range(1, n):
        acc = acc * m[k][k]
    return sign * acc
