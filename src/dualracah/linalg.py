"""Exact linear algebra on small dense matrices.

Every matrix identity the library certifies runs on one of two integer
kernels, and neither forms a dense product.  Each row of a factor is cleared of
denominators once by its lcm (``_cleared_int_rows``) and the dot products
are taken on integers.

* ``eigen_misses``, the band kernel: each identity A*v_j = values[j]*v_j
  (the recurrence on the grid and at nodes, h_tilde*V = V*diag(X), the
  dual recurrence V*T = diag(Ebar)*V read as T^T*v_x = Ebar[x]*v_x) reads
  each row of A over its band only, and forms a rational residual only
  where the identity fails.
* ``_gram_ints``, the Gram kernel: the entries i <= j <= i+w of the
  symmetric G = rows*diag(weights)*rows^T, on the cleared rows times the
  weights cleared once.  A projection reads a band of it as rationals
  (``gram_band``); an orthogonality relation is its whole upper triangle
  against the expected diagonal (``gram_residuals``), compared on
  integers, with a rational residual formed only on a miss.  The dual
  orthogonality is one of them.

``SquareMatrix`` holds a dense matrix of ``Fraction`` entries; ``rat``
keeps an entry that already is one as the same object.  Its one arithmetic
operation, the product (the same integer clearing, each entry one
canonical rational), is the tests' dense oracle: the library forms no
product.

The small Casoratians have one elimination design: eliminate the leading
columns once and carry every further column through the same steps,
giving the determinant with each further column as the last.
``bordered_dets`` does it on integers, fraction-free (Bareiss); bordered
by the unit columns, it gives every cofactor of a bordered column at
once.  The float tables of the q->1 check take the same design by
Gaussian elimination on raw mpmath tuples, on the float side
(``qlimit``); this module imports no float library.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .backend import rat
from .errors import ShapeMismatch


def _cleared_int_rows(rows):
    """Scale each row to integers; return (int_rows, row_factors)."""
    int_rows = []
    factors = []
    for row in rows:
        f = lcm(*[v.denominator for v in row])
        int_rows.append([v.numerator * (f // v.denominator) for v in row])
        factors.append(f)
    return int_rows, factors


class SquareMatrix:
    """Dense square matrix of exact rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        self.rows = [[rat(v) for v in row] for row in rows]
        self.n = len(self.rows)
        for row in self.rows:
            if len(row) != self.n:
                raise ShapeMismatch("matrix is not square")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, SquareMatrix) and self.rows == other.rows

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.n != other.n:
            raise ShapeMismatch("incompatible matrices")
        left, row_f = _cleared_int_rows(self.rows)
        right, col_f = _cleared_int_rows(zip(*other.rows))
        return SquareMatrix([
            [rat(sum(map(mul, row, col)), f * g) for col, g in zip(right, col_f)]
            for row, f in zip(left, row_f)
        ])

    def column(self, j: int) -> list:
        return [row[j] for row in self.rows]


def _gram_ints(rows, weights, w: int) -> dict:
    """The Gram kernel: {(i, j): (s, t)} for i <= j <= i + w, in row-major
    order, with G[i][j] = s/t.  Rows are cleared to r_i/f_i and the weights
    once to c/F; s is the integer dot product of r_i*c with r_j and
    t = f_i*f_j*F, so no rational is formed."""
    right, row_f = _cleared_int_rows(rows)
    (cs,), (F,) = _cleared_int_rows([weights])
    left = [list(map(mul, r, cs)) for r in right]
    n = len(right)
    return {
        (i, j): (sum(map(mul, left[i], right[j])), row_f[i] * row_f[j] * F)
        for i in range(n)
        for j in range(i, min(n, i + w + 1))
    }


def gram_residuals(rows, weights, norms) -> list:
    """Residuals of the weighted Gram matrix against its expected diagonal:
    (i, j, G[i][j] - delta_ij * norms[i]) for every i <= j where that is
    nonzero, in row-major order, over the whole upper triangle.  Empty = the
    rows are orthogonal under the weights with squared norms ``norms``.
    Compared on integers; a residual is formed only on a miss."""
    out = []
    for (i, j), (s, t) in _gram_ints(rows, weights, len(rows)).items():
        p, q = (norms[i].numerator, norms[i].denominator) if i == j else (0, 1)
        miss = q * s - p * t
        if miss:
            out.append((i, j, rat(miss, q * t)))
    return out


def gram_band(rows, weights, w: int) -> dict:
    """Entries (i, j) with i <= j <= i + w of G = rows*diag(weights)*rows^T,
    in row-major order; G is symmetric, so G[j][i] is entry (i, j).  Each
    is the canonical rational of the dense product's entry."""
    return {ij: rat(s, t) for ij, (s, t) in _gram_ints(rows, weights, w).items()}


def eigen_misses(rows, vectors, values) -> list:
    """Misses (i, j, r), in row-major order, where r = (A*v_j)[i] -
    values[j]*v_j[i] is nonzero; empty = each v_j is an eigenvector of A.

    Row i of A is read from its first to its last nonzero entry, cleared to
    integers a_i/f_i; with v_j = u_j/g_j and values[j] = p_j/q_j the check
    is q_j*(a_i . u_j) = p_j*f_i*u_j[i], on integers only, and r is formed
    only on a miss.
    """
    nonzero = [[k for k, v in enumerate(row) if v != 0] or [0, -1] for row in rows]
    bands, row_f = _cleared_int_rows(row[nz[0]:nz[-1] + 1] for row, nz in zip(rows, nonzero))
    vecs, vec_f = _cleared_int_rows(vectors)
    fracs = [(v.numerator, v.denominator) for v in values]
    out = []
    for i, (nz, band, f) in enumerate(zip(nonzero, bands, row_f)):
        for j, (u, g, (p, q)) in enumerate(zip(vecs, vec_f, fracs)):
            miss = q * sum(map(mul, band, u[nz[0]:nz[-1] + 1])) - p * f * u[i]
            if miss:
                out.append((i, j, rat(miss, q * f * g)))
    return out


def bordered_dets(rows) -> list:
    """det[leading n-1 columns | column t] for each further column t of an
    integer matrix of n >= 1 rows, by one fraction-free (Bareiss)
    elimination (each entry a minor, each division by the last pivot
    exact); a leading column without a pivot makes every one zero."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return [0] * (len(m[0]) - n + 1)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, pk = m[k], m[k][k]
        for row in m[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pk * v - f * t) // prev for v, t in zip(row[k + 1:], top[k + 1:])]
        prev = pk
    return [sign * v for v in m[-1][n - 1:]]
