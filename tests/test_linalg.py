"""Exact linear algebra: cleared-integer products and Gram residuals,
checked against the rational-arithmetic routes they replaced, and the
fraction-free echelon kernel kept as a test oracle in conftest (its
determinant, square and overdetermined solves)."""

import math
from itertools import permutations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualracah.backend import rat
from dualracah.errors import SingularMatrix
from dualracah.linalg import SquareMatrix, _cleared_int_rows, generic_det, gram_residuals
from conftest import _bareiss, solve_overdetermined
from test_closure import commutator, exact_inverse, matrix_poly

entry = st.fractions(min_value=-50, max_value=50, max_denominator=10)
# small rationals with zeros and signs well represented
small = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-9, 9, max_denominator=7))


# The rational-arithmetic routes replaced by the integer kernels, kept as
# oracles.


def _naive_matmul(a, b):
    cols = list(zip(*b.rows))
    return [[sum((x * y for x, y in zip(row, col)), rat(0)) for col in cols] for row in a.rows]


def _naive_matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), rat(0)) for row in a.rows]


def exact_det(a: SquareMatrix):
    """Determinant by the fraction-free echelon kernel."""
    m, factors = _cleared_int_rows(a.rows)
    return rat(_bareiss(m, a.n), math.prod(factors))


def _ortho_loop(rows, weights, norms):
    """The weighted orthogonality sums, one triple loop per relation (the
    route ``gram_residuals`` replaced in the library's three checks)."""
    n = len(rows)
    failures = []
    for i in range(n):
        for j in range(i, n):
            total = sum(weights[x] * rows[i][x] * rows[j][x] for x in range(n))
            expect = norms[i] if i == j else 0
            if total != expect:
                failures.append((i, j, total - expect))
    return failures


def _gauss_jordan(rows, rhs):
    """Row reduction over the rationals; None if not uniquely solvable."""
    m, ncols = len(rows), len(rows[0])
    aug = [[rat(v) for v in rows[i]] + [rat(rhs[i])] for i in range(m)]
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        r += 1
    if any(aug[i][ncols] != 0 for i in range(r, m)):
        return None
    return [aug[i][ncols] for i in range(ncols)]


@st.composite
def square(draw, max_n=4):
    """A square matrix of small rationals; one draw in three copies a scaled
    row into another to force singularity."""
    n = draw(st.integers(1, max_n))
    rows = [[rat(draw(small)) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 2)) == 0 and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = [rat(draw(small)) * v for v in rows[j]]
    return SquareMatrix(rows)


def _rand_matrix(vals, n):
    rows = [[rat(v.numerator, v.denominator) for v in vals[i * n:(i + 1) * n]] for i in range(n)]
    return SquareMatrix(rows)


def _leibniz_det(m: SquareMatrix):
    """Permutation-expansion oracle (fine up to 4x4)."""
    n = m.n
    total = rat(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = rat(sign)
        for i in range(n):
            term = term * m.rows[i][perm[i]]
        total += term
    return total


def test_det_hand_2x2():
    m = SquareMatrix([[rat(1, 2), rat(3)], [rat(-1), rat(4)]])
    assert exact_det(m) == rat(1, 2) * 4 - 3 * rat(-1)


def test_det_singular():
    m = SquareMatrix([[rat(1), rat(2)], [rat(2), rat(4)]])
    assert exact_det(m) == 0


@settings(max_examples=40)
@given(st.lists(entry, min_size=9, max_size=9))
def test_det_matches_leibniz_3x3(vals):
    m = _rand_matrix(vals, 3)
    assert exact_det(m) == _leibniz_det(m)


@settings(max_examples=15)
@given(st.lists(entry, min_size=16, max_size=16))
def test_det_matches_leibniz_4x4(vals):
    m = _rand_matrix(vals, 4)
    assert exact_det(m) == _leibniz_det(m)


def test_generic_det_agrees_with_exact():
    rows = [[rat(i * 3 + j + 1) ** 2 + rat(1, i + 1) for j in range(3)] for i in range(3)]
    m = SquareMatrix(rows)
    assert generic_det([row[:] for row in rows]) == exact_det(m)


def test_solve_hand_2x2():
    # x + 2y = 5, 3x + 4y = 6  =>  x = -4, y = 9/2
    m = SquareMatrix([[rat(1), rat(2)], [rat(3), rat(4)]])
    assert solve_overdetermined(m.rows, [rat(5), rat(6)]) == [rat(-4), rat(9, 2)]


def test_solve_singular_raises():
    m = SquareMatrix([[rat(1), rat(2)], [rat(2), rat(4)]])
    with pytest.raises(SingularMatrix):
        solve_overdetermined(m.rows, [rat(1), rat(1)])


@settings(max_examples=30)
@given(st.lists(entry, min_size=9, max_size=9), st.lists(entry, min_size=3, max_size=3))
def test_solve_then_multiply(vals, rhs_f):
    m = _rand_matrix(vals, 3)
    rhs = [rat(v.numerator, v.denominator) for v in rhs_f]
    if exact_det(m) == 0:
        with pytest.raises(SingularMatrix):
            solve_overdetermined(m.rows, rhs)
    else:
        x = solve_overdetermined(m.rows, rhs)
        assert _naive_matvec(m, x) == rhs


def test_inverse_round_trip():
    m = SquareMatrix([[rat(2), rat(1), rat(0)], [rat(0), rat(1), rat(3)], [rat(1), rat(0), rat(1)]])
    assert (m @ exact_inverse(m) - SquareMatrix.identity(3)).is_zero()


def test_overdetermined_consistent():
    # y = 2x + 1 sampled at four points, fit [intercept, slope]
    rows = [[rat(1), rat(x)] for x in range(4)]
    rhs = [rat(2 * x + 1) for x in range(4)]
    assert solve_overdetermined(rows, rhs) == [rat(1), rat(2)]


def test_overdetermined_inconsistent_raises():
    rows = [[rat(1), rat(x)] for x in range(3)]
    rhs = [rat(1), rat(3), rat(6)]  # not affine
    with pytest.raises(SingularMatrix):
        solve_overdetermined(rows, rhs)


def test_matrix_poly_horner():
    m = SquareMatrix([[rat(0), rat(1)], [rat(0), rat(0)]])
    # p(M) = 2I + 3M + 5M^2, and M^2 = 0
    p = matrix_poly([rat(2), rat(3), rat(5)], m)
    expect = SquareMatrix([[rat(2), rat(3)], [rat(0), rat(2)]])
    assert (p - expect).is_zero()


def test_commutator_antisymmetric():
    a = SquareMatrix([[rat(1), rat(2)], [rat(3), rat(4)]])
    b = SquareMatrix([[rat(0), rat(1)], [rat(1), rat(0)]])
    c = commutator(a, b)
    assert (c + commutator(b, a)).is_zero()
    assert commutator(a, a).is_zero()


def test_diagonal_and_identity():
    d = SquareMatrix.diagonal([rat(1), rat(2)])
    assert d[0, 0] == 1 and d[1, 1] == 2 and d[0, 1] == 0
    assert SquareMatrix.identity(3)[2, 2] == 1


def test_matmul_column_transpose():
    a = SquareMatrix([[rat(1), rat(2)], [rat(3), rat(4)]])
    assert a.column(1) == [rat(2), rat(4)]
    at = a.transpose()
    assert at[0, 1] == 3
    assert (a @ SquareMatrix.identity(2) - a).is_zero()


@settings(max_examples=60)
@given(square(), st.data())
def test_products_equal_rational_route(a, data):
    b = SquareMatrix([[rat(data.draw(small)) for _ in range(a.n)] for _ in range(a.n)])
    assert (a @ b).rows == _naive_matmul(a, b)


@settings(max_examples=60)
@given(square(max_n=5))
def test_det_equals_leibniz(a):
    assert exact_det(a) == _leibniz_det(a)


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_overdetermined_solve_equals_gauss_jordan(ncols, extra, data):
    """Consistent, inconsistent and rank-deficient tall systems."""
    rows = [[rat(data.draw(small)) for _ in range(ncols)] for _ in range(ncols + extra)]
    if data.draw(st.booleans()):
        x = [rat(data.draw(small)) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), rat(0)) for row in rows]
    else:
        rhs = [rat(data.draw(small)) for _ in rows]
    want = _gauss_jordan(rows, rhs)
    if want is None:
        with pytest.raises(SingularMatrix):
            solve_overdetermined(rows, rhs)
    else:
        assert solve_overdetermined(rows, rhs) == want


def test_overdetermined_rank_deficient_raises():
    rows = [[rat(1), rat(2)], [rat(2), rat(4)], [rat(-1), rat(-2)]]
    with pytest.raises(SingularMatrix):
        solve_overdetermined(rows, [rat(1), rat(2), rat(-1)])


def test_overdetermined_inconsistent_extra_row_raises():
    # the square part is solvable; only the surplus row disagrees
    rows = [[rat(1), rat(0)], [rat(0), rat(1)], [rat(1), rat(1)]]
    assert solve_overdetermined(rows, [rat(1), rat(2), rat(3)]) == [rat(1), rat(2)]
    with pytest.raises(SingularMatrix):
        solve_overdetermined(rows, [rat(1), rat(2), rat(4)])


@settings(max_examples=30)
@given(st.integers(1, 4), st.data())
def test_real_product_is_bit_identical(n, data):
    floats = st.floats(-1e6, 1e6, allow_nan=False)
    with mpmath.workprec(200):
        rows_a = [[mpmath.mpf(data.draw(floats)) / 3 for _ in range(n)] for _ in range(n)]
        rows_b = [[mpmath.mpf(data.draw(floats)) / 7 for _ in range(n)] for _ in range(n)]
        a = SquareMatrix(rows_a, kind="real", prec=200)
        b = SquareMatrix(rows_b, kind="real", prec=200)
        prod = a @ b
        want = _naive_matmul(a, b)
    assert prod.kind == "real" and prod.prec == 200
    assert prod.rows == want


@settings(max_examples=80)
@given(st.integers(1, 5), st.data())
def test_gram_residuals_equal_triple_loop(n, data):
    """Same residual values in the same order as the loop sums.  One draw in
    two takes permuted unit rows, which are orthogonal under any weights,
    and keeps or misses each squared norm, so empty and partial residual
    lists both occur."""
    weights = [rat(data.draw(small)) for _ in range(n)]
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(n)))
        rows = [[rat(1) if x == perm[i] else rat(0) for x in range(n)] for i in range(n)]
        norms = [weights[perm[i]] + data.draw(st.sampled_from([0, 0, 1])) for i in range(n)]
    else:
        rows = [[rat(data.draw(small)) for _ in range(n)] for _ in range(n)]
        norms = [rat(data.draw(small)) for _ in range(n)]
    assert gram_residuals(rows, weights, norms) == _ortho_loop(rows, weights, norms)
