"""Exact linear algebra: cleared-integer products and Gram residuals,
checked against the rational-arithmetic routes they replaced, and the
fraction-free echelon kernel kept as a test oracle in conftest (its
determinant, square and overdetermined solves).  The float Casoratian
kernel, ``LeadingElimination``, is checked against ``comparators.naive_det``,
exactly and bit for bit in floats; the exact one, ``bordered_dets``, against
the rational eliminations it replaced."""

import math
from itertools import permutations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualracah import linalg
from dualracah.backend import rat
from dualracah.errors import SingularMatrix
from dualracah.linalg import (
    LeadingElimination,
    SquareMatrix,
    _cleared_int_rows,
    bordered_dets,
    gram_band,
    gram_residuals,
)
from dualracah.multiindexed import GridTable
from dualracah.params import QR, R
from dualracah.pipeline import Pipeline
from dualracah.qlimit import QSumColumns, matched_q_params
from comparators import (
    commutator,
    elimination_cofactors,
    exact_inverse,
    generic_det,
    identity_matrix,
    matrix_add,
    matrix_is_zero,
    matrix_sub,
    naive_det,
    scale_cols,
    transpose,
)
from conftest import _bareiss, solve_overdetermined, std_params
from test_closure import matrix_poly

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


# Leading columns (3 rows of 2) that force each branch of the elimination:
# a row swap at step 0 and at step 1 (pivot != k), and no pivot in some
# column (zero determinant for every last column).
LEADING = {
    "swap_first": [[0, 2], [3, 1], [5, 7]],
    "swap_second": [[1, 2], [2, 4], [3, 7]],
    "no_pivot_second": [[1, 2], [2, 4], [3, 6]],
    "no_pivot_first": [[0, 1], [0, 2], [0, 3]],
    "no_swap": [[2, 1], [1, 3], [4, 1]],
}
LAST_COLUMNS = ([1, 1, 1], [rat(1, 3), rat(-2, 7), rat(5, 11)], [0, 0, rat(9, 13)])


def _floats(rows, prec):
    with mpmath.workprec(prec):
        return [[mpmath.mpf(v.numerator) / v.denominator for v in map(rat, row)] for row in rows]


@pytest.mark.parametrize("case", sorted(LEADING))
def test_leading_elimination_equals_naive_det(case):
    lead = [[rat(v) for v in row] for row in LEADING[case]]
    elim = LeadingElimination(lead)
    for col in LAST_COLUMNS:
        rows = [row + [rat(c)] for row, c in zip(lead, col)]
        assert elim.det([rat(c) for c in col]) == naive_det(rows) == generic_det(rows)
        if case.startswith("no_pivot"):
            assert naive_det(rows) == 0
    assert (elim.zero is not None) == case.startswith("no_pivot")
    assert (elim.sign == -1) == case.startswith("swap")


@pytest.mark.parametrize("prec", [53, 256])
@pytest.mark.parametrize("case", sorted(LEADING))
def test_leading_elimination_is_bit_identical_in_floats(case, prec):
    """Same operations in the same order as one whole elimination, so the
    float determinants agree to the last bit (the q->1 tables rely on it)."""
    for col in LAST_COLUMNS:
        rows = _floats([row + [c] for row, c in zip(LEADING[case], col)], prec)
        with mpmath.workprec(prec):
            got = LeadingElimination([r[:-1] for r in rows]).det([r[-1] for r in rows])
            want = naive_det(rows)
        assert type(got) is type(want) and got == want
        assert repr(got) == repr(want)


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_leading_elimination_random(rows):
    rows = [[rat(v) for v in row] for row in rows]
    assert generic_det(rows) == naive_det(rows)
    frows = _floats(rows, 53)
    with mpmath.workprec(53):
        got, want = generic_det(frows), naive_det(frows)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("case", sorted(LEADING))
def test_bordered_dets_equal_the_rational_eliminations(case):
    """On integer rows one fraction-free elimination gives every bordered
    determinant: bordered by the unit columns, the cofactors that one
    recorded rational elimination reduces column by column; bordered by a
    last column, the whole elimination's determinant.  The cases reach
    every branch: a swap at either step and no pivot in either column."""
    lead = LEADING[case]
    units = [row + [int(i == j) for j in range(3)] for i, row in enumerate(lead)]
    assert bordered_dets(units) == elimination_cofactors([list(map(rat, r)) for r in lead])
    for col in ([1, 1, 1], [3, -2, 5], [0, 0, 9]):
        rows = [row + [c] for row, c in zip(lead, col)]
        assert bordered_dets(rows) == [generic_det([list(map(rat, r)) for r in rows])]
    assert bordered_dets([[7]]) == [7] and bordered_dets([[2, 3, 0]]) == [2, 3, 0]


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 3))).flatmap(
    lambda nk: st.lists(st.lists(st.integers(-4, 4), min_size=sum(nk) - 1, max_size=sum(nk) - 1),
                        min_size=nk[0], max_size=nk[0])))
def test_bordered_dets_random(rows):
    """Each bordered determinant equals the naive rational elimination of
    the leading columns and that column."""
    n = len(rows)
    want = [naive_det([[rat(v) for v in r[:n - 1] + [r[t]]] for r in rows])
            for t in range(n - 1, len(rows[0]))]
    assert bordered_dets(rows) == want
    assert all(type(v) is int for v in bordered_dets(rows))


@pytest.mark.parametrize("prec", [None, 53, 256])
@pytest.mark.parametrize("case", sorted(LEADING))
def test_grid_table_reaches_every_elimination_branch(case, prec):
    """GridTable.pdn over hand-made virtual-state rows equals the bordered
    determinant by one whole elimination, exactly and in floats (the float
    columns from the q->1 check's q-sum)."""
    p = std_params(R, 4) if prec is None else matched_q_params(std_params(R, 4), 3, prec)
    with mpmath.workprec(prec or 53):
        tab = GridTable((1, 2), p) if prec is None else GridTable((1, 2), p, QSumColumns)
        lead = _floats(LEADING[case], prec) if prec else [list(map(rat, r)) for r in LEADING[case]]
        tab.xi_row = lambda y: list(lead[y - 1])
        for n in range(p.N + 1):
            rows = [lead[j] + [tab.rj(j + 1, 1) * tab.base_column(1 + j)[n]] for j in range(3)]
            want = naive_det(rows) / (tab.cdn(n) * tab.varphi(1, 3))
            got = tab.pdn(n, 1)
            assert type(got) is type(want) and repr(got) == repr(want)


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
    assert matrix_is_zero(matrix_sub(m @ exact_inverse(m), identity_matrix(3)))


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
    assert matrix_is_zero(matrix_sub(p, expect))


def test_commutator_antisymmetric():
    a = SquareMatrix([[rat(1), rat(2)], [rat(3), rat(4)]])
    b = SquareMatrix([[rat(0), rat(1)], [rat(1), rat(0)]])
    c = commutator(a, b)
    assert matrix_is_zero(matrix_add(c, commutator(b, a)))
    assert matrix_is_zero(commutator(a, a))


def test_diagonal_and_identity():
    d = scale_cols(identity_matrix(2), [rat(1), rat(2)])
    assert d[0, 0] == 1 and d[1, 1] == 2 and d[0, 1] == 0
    assert identity_matrix(3)[2, 2] == 1


def test_rational_entries_are_kept_and_others_converted():
    """An entry that is already a Fraction is stored as the same object;
    an int becomes a rational and a float is refused."""
    r = rat(3, 7)
    m = SquareMatrix([[r, 2], [rat(0), r]])
    assert m[0, 0] is r and m[1, 1] is r
    assert m[0, 1] == 2 and type(m[0, 1]) is type(r)
    with pytest.raises(TypeError):
        SquareMatrix([[0.5]])


def test_matmul_column_transpose():
    a = SquareMatrix([[rat(1), rat(2)], [rat(3), rat(4)]])
    assert a.column(1) == [rat(2), rat(4)]
    at = transpose(a)
    assert at[0, 1] == 3
    assert matrix_is_zero(matrix_sub(a @ identity_matrix(2), a))


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
    # one weight, one norm and one row entry moved, each on its own
    i, x, bump = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)), rat(1, 3)
    moved_rows = [list(row) for row in rows]
    moved_rows[i][x] += bump
    for args in (
        (rows, weights[:x] + [weights[x] + bump] + weights[x + 1:], norms),
        (rows, weights, norms[:i] + [norms[i] + bump] + norms[i + 1:]),
        (moved_rows, weights, norms),
    ):
        assert gram_residuals(*args) == _ortho_loop(*args)


@pytest.mark.parametrize("family", [R, QR])
def test_passing_gram_residuals_form_no_rational(family, monkeypatch):
    """A cost guard made of counts: on tables that pass, the mi and the dual
    orthogonality compare on integers only and call ``rat`` zero times."""
    pipe = Pipeline(std_params(family, 6), (1, 2))
    s, t = pipe.system(), pipe.dual()
    cases = [
        (s.pdn_grid, s.weights, [1 / v for v in s.dDn_sq]),
        (list(zip(*t.V.rows)), t.weights, t.norms),
    ]
    calls = []
    monkeypatch.setattr(linalg, "rat", lambda *args: calls.append(args) or rat(*args))
    assert [gram_residuals(*case) for case in cases] == [[], []]
    assert calls == []


@settings(max_examples=60)
@given(st.integers(1, 6), st.data())
def test_gram_band_equals_dense_product(n, data):
    """Exactly the entries i <= j <= i + w of the dense weighted Gram
    product, for every band width from the diagonal to the full matrix, in
    row-major order; the dense product is symmetric, so they are its whole
    band."""
    w = data.draw(st.integers(0, n - 1))
    rows = [[rat(data.draw(entry)) for _ in range(n)] for _ in range(n)]
    weights = [rat(data.draw(small)) for _ in range(n)]
    a = SquareMatrix(rows)
    dense = scale_cols(a, weights) @ transpose(a)
    band = gram_band(rows, weights, w)
    upper = [(i, j) for i in range(n) for j in range(i, n) if j - i <= w]
    assert list(band.items()) == [((i, j), dense[i, j]) for i, j in upper]
    assert all(dense[i, j] == dense[j, i] for i, j in upper)


@pytest.mark.parametrize("case", sorted(LEADING))
def test_grid_table_cofactors_reach_every_branch(case):
    """GridTable.cofactors over hand-made virtual-state rows, each row with
    its own denominators, are the cofactors of the recorded rational
    elimination."""
    tab = GridTable((1, 2), std_params(R, 4))
    lead = [[rat(v, (i + 2) * (k + 1)) for k, v in enumerate(row)]
            for i, row in enumerate(LEADING[case])]
    tab.xi_row = lambda y: list(lead[y - 1])
    cs, F = tab.cofactors(1)
    assert [rat(c, F) for c in cs] == elimination_cofactors(lead)
