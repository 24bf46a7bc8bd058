"""Shared fixtures: standard parameter tuples and a cached pipeline builder.

Exact constructions are cheap at desk scale but not free; caching the built
systems per (family, N, D, Y) keeps the whole suite fast while letting
every test module ask for exactly the configurations it needs.
"""

import functools
from operator import mul

import pytest

from dualracah.backend import rat
from dualracah.basefamily import racah_value
from dualracah.errors import NonPositiveWeight, SingularMatrix
from dualracah.linalg import _cleared_int_rows
from dualracah.params import QR, R, energy, ipow, make_params, twist
from dualracah.pipeline import Pipeline
from dualracah.poly import Poly
from comparators import (
    dtn_sq_value,
    multi_poch,
    multi_qpoch,
    naive_det,
    norm_const_cd,
    poch,
    qpoch,
    rj_factor,
    varphi_m,
)

Y_ONE = Poly([rat(1)])
Y_ETA = Poly([rat(0), rat(1)])
SEEDS = {"1": Y_ONE, "eta": Y_ETA}
#: the index sets and seeds that every family is tested over
MATRIX = [(D, y) for D in ((1,), (2,), (1, 2)) for y in ("1", "eta")]


def std_params(family: str, N: int):
    """An admissible tuple for either family, valid for max(D) <= 2."""
    if family == R:
        return make_params(R, N, b=N + 5, c=rat(1, 2), d=rat(2, 5))
    q = rat(1, 2)
    return make_params(QR, N, b=q ** (N + 5), c=rat(1, 2), d=rat(2, 5), q=q)


def dn_sq(n: int, p):
    """Squared norm d_n^2 of one n, its n-independent factor formed afresh
    (the route ``basefamily.dn_sq_table`` replaced, kept as an oracle)."""
    a, b, c, d, N = p.a, p.b, p.c, p.d, p.N
    dt = p.dtilde
    if p.family == R:
        v = (
            multi_poch((a, b, c, dt), n)
            / multi_poch((dt - a + 1, dt - b + 1, dt - c + 1, rat(1)), n)
            * (2 * n + dt)
            / dt
        )
        v = v * (
            (-1) ** N
            * multi_poch((d - a + 1, d - b + 1, d - c + 1), N)
            / (poch(dt + 1, N) * poch(d + 1, 2 * N))
        )
    else:
        q = p.q
        v = (
            multi_qpoch((a, b, c, dt), n, q)
            / (multi_qpoch((dt * q / a, dt * q / b, dt * q / c, q), n, q) * ipow(d, n))
            * (1 - dt * ipow(q, 2 * n))
            / (1 - dt)
        )
        v = v * (
            (-1) ** N
            * multi_qpoch((d * q / a, d * q / b, d * q / c), N, q)
            * ipow(dt, N)
            * ipow(q, N * (N + 1) // 2)
            / (qpoch(dt * q, N, q) * qpoch(d * q, 2 * N, q))
        )
    if p.is_exact() and not v > 0:
        raise NonPositiveWeight(f"d_{n}^2 = {v}")
    return v


def phi0_sq(x: int, p):
    """Squared ground state at one x, its Pochhammer products formed afresh
    (the route ``basefamily.phi0_sq_table`` replaced, kept as an oracle)."""
    a, b, c, d = p.a, p.b, p.c, p.d
    if p.family == R:
        v = multi_poch((a, b, c, d), x) / multi_poch(
            (d - a + 1, d - b + 1, d - c + 1, rat(1)), x
        ) * (2 * x + d) / d
    else:
        q = p.q
        v = multi_qpoch((a, b, c, d), x, q) / (
            multi_qpoch((d * q / a, d * q / b, d * q / c, q), x, q) * ipow(p.dtilde, x)
        ) * (1 - d * ipow(q, 2 * x)) / (1 - d)
    if p.is_exact() and not v > 0:
        raise NonPositiveWeight(f"phi0^2({x}) = {v}")
    return v


def rec_coeffs_closed_form(n: int, p):
    """(A_n, B_n, C_n) by their own closed form (the route
    ``basefamily.rec_coeffs`` replaced by the potentials at the dual tuple,
    kept as an oracle)."""
    a, b, c = p.a, p.b, p.c
    dt = p.dtilde
    if p.family == R:
        A = (n + a) * (n + b) * (n + c) * (n + dt) / ((2 * n + dt) * (2 * n + 1 + dt))
        C = (n + dt - a) * (n + dt - b) * (n + dt - c) * n / ((2 * n - 1 + dt) * (2 * n + dt))
    else:
        q = p.q
        qn = ipow(q, n)
        A = (1 - a * qn) * (1 - b * qn) * (1 - c * qn) * (1 - dt * qn) / (
            (1 - dt * ipow(q, 2 * n)) * (1 - dt * ipow(q, 2 * n + 1))
        )
        C = p.d * (1 - dt * qn / a) * (1 - dt * qn / b) * (1 - dt * qn / c) * (1 - qn) / (
            (1 - dt * ipow(q, 2 * n - 1)) * (1 - dt * ipow(q, 2 * n))
        )
    return A, -A - C, C


def energy_closed_form(n: int, p):
    """The energy by its own closed form (the route ``params.energy``
    replaced by the sinusoidal coordinate at the dual tuple, kept as an
    oracle)."""
    dt = p.dtilde
    if p.family == R:
        return n * (n + dt)
    return (ipow(p.q, -n) - 1) * (1 - dt * ipow(p.q, n))


def ctilde_closed_form(v: int, p):
    """Leading coefficient of the degree-v virtual-state polynomial by its
    own closed form (the route ``basefamily.c_n`` at the twisted tuple
    replaced, kept as an oracle)."""
    a, b, c, d = p.a, p.b, p.c, p.d
    if p.family == R:
        return poch(c + d - a - b + v + 1, v) / multi_poch((d - a + 1, d - b + 1, c), v)
    q = p.q
    return qpoch(c * d * ipow(q, v + 1) / (a * b), v, q) / multi_qpoch(
        (d * q / a, d * q / b, c), v, q
    )


def per_entry_xi(x, D, p):
    """Denominator grid value, every factor evaluated afresh (the route
    ``multiindexed.GridTable`` replaced, kept as an oracle)."""
    M = len(D)
    if M == 0:
        return rat(1) if p.is_exact() else p.b * 0 + 1
    det = naive_det([[racah_value(dk, x + j, twist(p)) for dk in D] for j in range(M)])
    return det / (norm_const_cd(D, p) * varphi_m(x, M, p))


def per_entry_pdn(n, x, D, p):
    """Deformed polynomial grid value by the bordered determinant, every
    factor evaluated afresh (oracle, like ``per_entry_xi``)."""
    M = len(D)
    rows = []
    for j in range(1, M + 2):
        row = [racah_value(dk, x + j - 1, twist(p)) for dk in D]
        row.append(rj_factor(j, x, M, p) * racah_value(n, x + j - 1, p))
        rows.append(row)
    det = naive_det(rows)
    cdn = (-1) ** M * norm_const_cd(D, p) * dtn_sq_value(n, D, p)
    return det / (cdn * varphi_m(x, M + 1, p))


def verify_difference_eq(s) -> list:
    """Residuals (n, x, r) of the second-order difference equations of the
    deformed polynomials, in rational arithmetic on the grid table (the
    route ``dualsystem.DualTable.recurrence_residual`` replaced, kept as an
    oracle); empty = pass."""
    p, N = s.params, s.params.N
    ground = s.pdn_grid[0]  # the shifted denominator Xi_D(x; lambda+delta)
    failures = []
    for n in range(N + 1):
        en = energy(n, p)
        for x in range(N + 1):
            acc = 0
            bc = s.bd(x)
            if bc != 0:
                acc = acc + bc * (
                    s.pdn_grid[n][x] - ground[x] / ground[x + 1] * s.pdn_grid[n][x + 1]
                )
            dc = s.dd(x)
            if dc != 0:
                acc = acc + dc * (
                    s.pdn_grid[n][x] - ground[x] / ground[x - 1] * s.pdn_grid[n][x - 1]
                )
            if acc != en * s.pdn_grid[n][x]:
                failures.append((n, x, acc - en * s.pdn_grid[n][x]))
    return failures


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
