"""Exact linear algebra on small dense matrices.

Exact work runs on Python integers. Each row (or column) is cleared of
denominators once by its lcm (``_cleared_int_rows``):

* a product takes integer dot products and forms one rational per entry,
  ``rat(dot, row_factor * col_factor)``;
* the (possibly overdetermined) solve of ``recurrence.extract_r`` runs a
  fraction-free echelon kernel (Bareiss, Math. Comp. 22, 1968) with row
  pivoting, followed by integer back-substitution, ``x_i = rat(y_i, det)``.

Results are canonical rationals, equal to those of rational arithmetic
entry for entry.  Matrices of kind "real" (floats) keep plain scalar
arithmetic, and ``generic_det`` serves them and the small Casoratians.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import List, Sequence

from .backend import rat
from .errors import ShapeMismatch, SingularMatrix


def _cleared_int_rows(rows):
    """Scale each row to integers; return (int_rows, row_factors)."""
    int_rows = []
    factors = []
    for row in rows:
        f = lcm(*[int(v.denominator) for v in row])
        int_rows.append([int(v.numerator) * (f // int(v.denominator)) for v in row])
        factors.append(f)
    return int_rows, factors


def _bareiss(m: List[List[int]], ncols: int) -> int:
    """Fraction-free echelon form of the integer rows m, in place.

    Pivots run down the first ncols columns, swapping rows as needed; any
    further columns (right-hand sides) are carried along.  Every entry
    below the pivots is a minor of the row-permuted matrix, so each
    division by the previous pivot is exact.  Returns the signed
    determinant of the leading ncols x ncols block, or 0 if some column
    has no pivot.
    """
    sign, prev = 1, 1
    for k in range(ncols):
        piv_row = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv_row is None:
            return 0
        if piv_row != k:
            m[k], m[piv_row] = m[piv_row], m[k]
            sign = -sign
        top = m[k]
        piv = top[k]
        for row in m[k + 1:]:
            f = row[k]
            row[k:] = [0] + [
                (v * piv - f * t) // prev for v, t in zip(row[k + 1:], top[k + 1:])
            ]
        prev = piv
    return sign * prev


class SquareMatrix:
    """Dense square matrix; kind is "exact" (rationals) or "real" (floats).

    Exact matrices take their products on cleared integers; real matrices
    only carry entries plus their working precision in bits.
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
        prec = max(self.prec, other.prec)
        if self.kind != "exact":
            cols = list(zip(*other.rows))
            out = [
                [sum((a * b for a, b in zip(row, col)), rat(0)) for col in cols]
                for row in self.rows
            ]
            return SquareMatrix(out, self.kind, prec)
        left, row_f = _cleared_int_rows(self.rows)
        right, col_f = _cleared_int_rows(zip(*other.rows))
        out = [
            [rat(sum(map(mul, row, col)), f * g) for col, g in zip(right, col_f)]
            for row, f in zip(left, row_f)
        ]
        return SquareMatrix(out, self.kind, prec)

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

    def column(self, j: int) -> list:
        return [row[j] for row in self.rows]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def nonzero_entries(self):
        return [
            (i, j, v) for i, row in enumerate(self.rows) for j, v in enumerate(row) if v != 0
        ]


def solve_overdetermined(rows: List[list], rhs: list) -> list:
    """Exact solution of a consistent (possibly overdetermined) system.

    Raises SingularMatrix if the system is inconsistent or the solution is
    not unique.
    """
    if not rows:
        return []
    n = len(rows[0])
    m, _ = _cleared_int_rows([list(row) + [rhs[i]] for i, row in enumerate(rows)])
    det = _bareiss(m, n)
    if det == 0:
        raise SingularMatrix("rank-deficient system")
    if any(row[n] for row in m[n:]):
        raise SingularMatrix("inconsistent overdetermined system")
    # det*x is integral (Cramer), so each division below is exact
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        y[i] = (det * row[n] - sum(map(mul, row[i + 1:n], y[i + 1:]))) // row[i]
    return [rat(v, det) for v in y]


def generic_det(rows) -> object:
    """Determinant over any field scalars by Gaussian elimination.

    Serves the small Casoratians, whose entries are floats in the q->1
    checks; for rationals the division steps are exact.
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
