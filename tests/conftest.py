"""Shared fixtures: standard parameter tuples and a cached pipeline builder.

Exact constructions are cheap at desk scale but not free; caching the built
systems per (family, N, D, Y) keeps the whole suite fast while letting
every test module ask for exactly the configurations it needs.
"""

import functools
from operator import mul

import pytest

from dualracah import multiindexed
from dualracah.backend import rat
from dualracah.basefamily import racah_value, xi_v
from dualracah.errors import SingularMatrix
from dualracah.linalg import _cleared_int_rows, generic_det
from dualracah.params import QR, R, make_params
from dualracah.pipeline import Pipeline
from dualracah.poly import Poly

Y_ONE = Poly([rat(1)])
Y_ETA = Poly([rat(0), rat(1)])
SEEDS = {"1": Y_ONE, "eta": Y_ETA}


def std_params(family: str, N: int):
    """An admissible tuple for either family, valid for max(D) <= 2."""
    if family == R:
        return make_params(R, N, b=N + 5, c=rat(1, 2), d=rat(2, 5))
    q = rat(1, 2)
    return make_params(QR, N, b=q ** (N + 5), c=rat(1, 2), d=rat(2, 5), q=q)


def per_entry_xi(x, D, p):
    """Denominator grid value, every factor evaluated afresh (the route
    ``multiindexed.GridTable`` replaced, kept as an oracle)."""
    M = len(D)
    if M == 0:
        return rat(1) if p.is_exact() else p.b * 0 + 1
    det = generic_det([[xi_v(dk, x + j, p) for dk in D] for j in range(M)])
    return det / (multiindexed.norm_const_cd(D, p) * multiindexed.varphi_m(x, M, p))


def per_entry_pdn(n, x, D, p):
    """Deformed polynomial grid value by the bordered determinant, every
    factor evaluated afresh (oracle, like ``per_entry_xi``)."""
    M = len(D)
    rows = []
    for j in range(1, M + 2):
        row = [xi_v(dk, x + j - 1, p) for dk in D]
        row.append(multiindexed.rj_factor(j, x, M, p) * racah_value(n, x + j - 1, p))
        rows.append(row)
    det = generic_det(rows)
    cdn = (-1) ** M * multiindexed.norm_const_cd(D, p) * multiindexed.dtn_sq_value(n, D, p)
    return det / (cdn * multiindexed.varphi_m(x, M + 1, p))


def _bareiss(m, ncols: int) -> int:
    """Fraction-free echelon form of the integer rows m, in place (Bareiss,
    Math. Comp. 22, 1968).

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


def solve_overdetermined(rows, rhs) -> list:
    """Exact solution of a consistent (possibly overdetermined) system, on
    cleared integers by ``_bareiss`` and integer back-substitution (the
    elimination route the library's products and projections replaced,
    kept as an oracle).

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


def r_by_solve(s, xp) -> dict:
    """r[(n,k)] by one overdetermined solve per label n of the band
    recurrence on the grid, X(x) P_n(x) = sum_k r[(n,k)] P_{n+k}(x): the
    route ``recurrence.extract_r`` used to cross-check its projections."""
    N, L = s.params.N, xp.L
    r = {}
    for n in range(N + 1):
        ks = list(range(-min(L, n), min(L, N - n) + 1))
        rows = [[s.pdn_grid[n + k][x] for k in ks] for x in range(N + 1)]
        rhs = [xp.grid[x] * s.pdn_grid[n][x] for x in range(N + 1)]
        r.update({(n, k): v for k, v in zip(ks, solve_overdetermined(rows, rhs))})
    return r


@pytest.fixture(scope="session")
def pipe():
    """Session map from (family, N, D) to the library ``Pipeline`` of the
    standard tuple; each stage is built once per session."""
    return functools.cache(lambda family, N, D: Pipeline(std_params(family, N), D))


#: (criterion number, verdict line) pairs filled in by the acceptance tests
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
