"""Base Racah / q-Racah data: potentials, polynomials, weights, norms,
and the virtual-state energies and leading coefficients.

All functions are duck-typed over the scalar field: exact rationals give
exact results, high-precision floats give the float path used by the
q->1 limit checks.

Base values P_n(y) are filled a column (all n at one y) at a time by
``RacahColumns``: exact parameters by the three-term recurrence of
``rec_coeffs``, float ones by the terminating q-sum with its factors shared
across the table.  ``racah_value``, the sum for a single value, serves the
virtual-state values (base values at the twisted parameters of
``params.twist``, formed once per ``multiindexed.GridTable``) and the base
suite's spot row.

The squared ground state phi0^2(0..N) and the squared norms d_0^2..d_N^2
are tables (``phi0_sq_table``, ``dn_sq_table``): each (q-)Pochhammer symbol
is run once along x or n, in the order of its direct product, so every
entry equals the per-point formula (kept in the tests as an oracle), bit
for bit in floats.
"""

from __future__ import annotations

from .backend import rat
from .errors import IndexOutOfRange, InadmissibleParams, NonPositiveWeight, ZeroDenominator
from .params import R, ParamSet, eta, ipow


def poch(u, n: int):
    """Pochhammer symbol (u)_n = u(u+1)...(u+n-1)."""
    acc = u * 0 + 1
    for i in range(n):
        acc = acc * (u + i)
    return acc


def qpoch(u, n: int, q):
    """q-Pochhammer symbol (u;q)_n = (1-u)(1-uq)...(1-uq^(n-1))."""
    acc = u * 0 + 1
    for i in range(n):
        acc = acc * (1 - u * ipow(q, i))
    return acc


def multi_poch(us, n: int):
    acc = 1
    for u in us:
        acc = acc * poch(u, n)
    return acc


def multi_qpoch(us, n: int, q):
    acc = 1
    for u in us:
        acc = acc * qpoch(u, n, q)
    return acc


def potential(x: int, p: ParamSet, which: str = "B"):
    a, b, c, d = p.a, p.b, p.c, p.d
    if p.family == R:
        if which == "B":
            num = -(x + a) * (x + b) * (x + c) * (x + d)
            den = (2 * x + d) * (2 * x + 1 + d)
        elif which == "D":
            num = -(x + d - a) * (x + d - b) * (x + d - c) * x
            den = (2 * x - 1 + d) * (2 * x + d)
        elif which == "Bprime":
            num = -(x + d - a + 1) * (x + d - b + 1) * (x + c) * (x + d)
            den = (2 * x + d) * (2 * x + 1 + d)
        else:
            raise ValueError(f"unknown potential {which!r}")
    else:
        q = p.q
        qx = ipow(q, x)
        if which == "B":
            num = -(1 - a * qx) * (1 - b * qx) * (1 - c * qx) * (1 - d * qx)
            den = (1 - d * ipow(q, 2 * x)) * (1 - d * ipow(q, 2 * x + 1))
        elif which == "D":
            num = -p.dtilde * (1 - d * qx / a) * (1 - d * qx / b) * (1 - d * qx / c) * (1 - qx)
            den = (1 - d * ipow(q, 2 * x - 1)) * (1 - d * ipow(q, 2 * x))
        elif which == "Bprime":
            num = -(1 - d * qx * q / a) * (1 - d * qx * q / b) * (1 - c * qx) * (1 - d * qx)
            den = (1 - d * ipow(q, 2 * x)) * (1 - d * ipow(q, 2 * x + 1))
        else:
            raise ValueError(f"unknown potential {which!r}")
    if den == 0:
        raise ZeroDenominator(f"potential {which} denominator vanishes at x={x}")
    return num / den


def racah_value(n: int, x: int, p: ParamSet):
    """Terminating hypergeometric sum for the normalized grid value."""
    if n < 0:
        raise IndexOutOfRange(f"n must be >= 0, got {n}")
    a, b, c, d = p.a, p.b, p.c, p.d
    dt = p.dtilde
    one = a * 0 + 1
    term = one
    total = term
    if p.family == R:
        for k in range(n):
            num = (-n + k) * (n + dt + k) * (-x + k) * (x + d + k)
            den = (a + k) * (b + k) * (c + k) * (1 + k)
            term = term * num / den
            total = total + term
    else:
        q = p.q
        qmx = ipow(q, -x)
        qx = ipow(q, x)
        qmn = ipow(q, -n)
        qn = ipow(q, n)
        qk = one
        for k in range(n):
            num = (1 - qmn * qk) * (1 - dt * qn * qk) * (1 - qmx * qk) * (1 - d * qx * qk)
            den = (1 - a * qk) * (1 - b * qk) * (1 - c * qk) * (1 - qk * q)
            term = term * num / den * q
            total = total + term
            qk = qk * q
    return total


def rec_coeffs(n: int, p: ParamSet):
    """Three-term recurrence coefficients (A_n, B_n, C_n)."""
    if not 0 <= n <= p.N:
        raise IndexOutOfRange(f"n={n} outside 0..{p.N}")
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


class RacahColumns:
    """Base values P_0(y)..P_N(y) at one parameter set, filled one column
    (one y, on or off the grid) at a time.

    Exact parameters run the three-term recurrence in n,
    P_{n+1} = ((eta(y) - B_n) P_n - C_n P_{n-1}) / A_n, with the coefficients
    of ``rec_coeffs``: O(N) per column.  Float parameters (the q-family
    tuples of the q->1 check) keep the terminating q-sum of ``racah_value``,
    with its k, (n, k) and (y, k) factors each formed once and combined in
    the sum's own operation order, so every value equals ``racah_value``'s
    bit for bit.  The factors are rounded at the working precision in force
    when the instance is made; use it only inside that precision.
    """

    def __init__(self, p: ParamSet):
        self.p, N = p, p.N
        if p.is_exact():
            self._rec = [rec_coeffs(n, p) for n in range(N)]
            return
        if p.family == R:
            raise InadmissibleParams("float base columns are filled for the q-family only")
        q, dt = p.q, p.dtilde
        self._qk = [p.a * 0 + 1]  # q^k, k < N, by repeated products as in the sum
        while len(self._qk) < N:
            self._qk.append(self._qk[-1] * q)
        self._den = [
            (1 - p.a * u) * (1 - p.b * u) * (1 - p.c * u) * (1 - u * q) for u in self._qk
        ]
        self._nk = []
        for n in range(N + 1):
            qmn, qn = ipow(q, -n), ipow(q, n)
            self._nk.append([(1 - qmn * u) * (1 - dt * qn * u) for u in self._qk[:n]])

    def column(self, y: int) -> tuple:
        """(P_0(y), ..., P_N(y))."""
        p = self.p
        one = p.a * 0 + 1
        if p.is_exact():
            e = eta(y, p)
            col, prev = [one], 0
            for n, (A, B, C) in enumerate(self._rec):
                col.append(((e - B) * col[n] - C * prev) / A)
                prev = col[n]
            return tuple(col)
        q, d = p.q, p.d
        qmx, qx = ipow(q, -y), ipow(q, y)
        yk = [(1 - qmx * u, 1 - d * qx * u) for u in self._qk]
        col = []
        for nk in self._nk:
            term = total = one
            for k, f in enumerate(nk):
                term = term * (f * yk[k][0] * yk[k][1]) / self._den[k] * q
                total = total + term
            col.append(total)
        return tuple(col)


def _pochhammer_rows(us, N: int, q=None) -> list:
    """Row n = 0..N is ``multi_poch(us, n)`` (``multi_qpoch(us, n, q)`` when
    q is given).  Each (u)_n is the running product of ``poch``'s (or
    ``qpoch``'s) factors, in their order, so every row equals the direct
    product, bit for bit in floats, at O(N) cost for the table."""
    runs = []
    for u in us:
        acc = u * 0 + 1
        run = [acc]
        for i in range(N):
            acc = acc * (u + i if q is None else 1 - u * ipow(q, i))
            run.append(acc)
        runs.append(run)
    rows = []
    for n in range(N + 1):
        acc = 1
        for run in runs:
            acc = acc * run[n]
        rows.append(acc)
    return rows


def phi0_sq_table(p: ParamSet) -> tuple:
    """(phi0^2(0), ..., phi0^2(N)), the squared ground state, its
    Pochhammer products run once along x."""
    a, b, c, d, N = p.a, p.b, p.c, p.d, p.N
    if p.family == R:
        num = _pochhammer_rows((a, b, c, d), N)
        den = _pochhammer_rows((d - a + 1, d - b + 1, d - c + 1, rat(1)), N)

        def value(x):
            return num[x] / den[x] * (2 * x + d) / d
    else:
        q, dt = p.q, p.dtilde
        num = _pochhammer_rows((a, b, c, d), N, q)
        den = _pochhammer_rows((d * q / a, d * q / b, d * q / c, q), N, q)

        def value(x):
            return num[x] / (den[x] * ipow(dt, x)) * (1 - d * ipow(q, 2 * x)) / (1 - d)

    table = []
    for x in range(N + 1):
        v = value(x)
        if not v > 0:
            raise NonPositiveWeight(f"phi0^2({x}) = {v}")
        table.append(v)
    return tuple(table)


def dn_sq_table(p: ParamSet) -> tuple:
    """(d_0^2, ..., d_N^2), the squared norms: an n-dependent ratio, its
    Pochhammer products run once along n, times a factor that depends on
    the tuple only, formed once for the table."""
    a, b, c, d, N = p.a, p.b, p.c, p.d, p.N
    dt = p.dtilde
    if p.family == R:
        num = _pochhammer_rows((a, b, c, dt), N)
        den = _pochhammer_rows((dt - a + 1, dt - b + 1, dt - c + 1, rat(1)), N)

        def ratio(n):
            return num[n] / den[n] * (2 * n + dt) / dt

        factor = (
            (-1) ** N
            * multi_poch((d - a + 1, d - b + 1, d - c + 1), N)
            / (poch(dt + 1, N) * poch(d + 1, 2 * N))
        )
    else:
        q = p.q
        num = _pochhammer_rows((a, b, c, dt), N, q)
        den = _pochhammer_rows((dt * q / a, dt * q / b, dt * q / c, q), N, q)

        def ratio(n):
            return num[n] / (den[n] * ipow(d, n)) * (1 - dt * ipow(q, 2 * n)) / (1 - dt)

        factor = (
            (-1) ** N
            * multi_qpoch((d * q / a, d * q / b, d * q / c), N, q)
            * ipow(dt, N)
            * ipow(q, N * (N + 1) // 2)
            / (qpoch(dt * q, N, q) * qpoch(d * q, 2 * N, q))
        )
    table = []
    for n in range(N + 1):
        v = ratio(n) * factor
        if not v > 0:
            raise NonPositiveWeight(f"d_{n}^2 = {v}")
        table.append(v)
    return tuple(table)


def etilde_v(v: int, p: ParamSet):
    """Virtual state energy (negative under admissible parameters)."""
    c, dt = p.c, p.dtilde
    if p.family == R:
        return -(c + v) * (dt - c - v)
    return -(1 - c * ipow(p.q, v)) * (1 - dt * ipow(p.q, -v) / c)


def alpha_const(p: ParamSet):
    if p.family == R:
        return rat(1)
    return p.a * p.b / (p.d * p.q)


def varphi(x: int, p: ParamSet):
    if p.family == R:
        return (2 * x + p.d + 1) / (p.d + 1)
    return (ipow(p.q, -x) - p.d * ipow(p.q, x + 1)) / (1 - p.d * p.q)


def c_n(n: int, p: ParamSet):
    """Leading coefficient of the degree-n base polynomial."""
    a, b, c = p.a, p.b, p.c
    dt = p.dtilde
    if p.family == R:
        return poch(dt + n, n) / multi_poch((a, b, c), n)
    return qpoch(dt * ipow(p.q, n), n, p.q) / multi_qpoch((a, b, c), n, p.q)


def ctilde_v(v: int, p: ParamSet):
    """Leading coefficient of the virtual state polynomial."""
    a, b, c, d = p.a, p.b, p.c, p.d
    if p.family == R:
        return poch(c + d - a - b + v + 1, v) / multi_poch(
            (d - a + 1, d - b + 1, c), v
        )
    q = p.q
    return qpoch(c * d * ipow(q, v + 1) / (a * b), v, q) / multi_qpoch(
        (d * q / a, d * q / b, c), v, q
    )
