"""Base Racah / q-Racah data: potentials, polynomials, weights, norms,
and the virtual-state energies and leading coefficients.

The families are self-dual: swapping x with n and d with dtilde
(``ParamSet.dual``) maps one onto the other.  So each dual formula is the
primal one at the dual parameters: the recurrence coefficients are the
potentials (``rec_coeffs``), the energy is the sinusoidal coordinate
(``params.energy``) and the squared norms are the squared ground state
(``dn_sq_table``).  Likewise the virtual-state data are the base data at
the twisted parameters of ``params.twist``.

The library calls these functions on exact tuples only.  The q->1 check
runs its float tables on the float side (``qlimit``: the terminating
q-sum of ``racah_value`` in ``QSumColumns`` and the Casoratian pieces, on
raw mpmath tuples), so this module stays float-free; ``racah_value``,
``etilde_v`` and ``alpha_const`` are still written over any scalar field,
and the tests check the float side against them.

Base values P_n(y) are filled a column (all n at one y) at a time by
``RacahColumns``, by the three-term recurrence of ``rec_coeffs``.
``racah_value``, the sum for a single value, serves the virtual states
(base values at the twisted parameters: the d_k+1 nodes of each
polynomial of a ``multiindexed.GridTable``) and the base suite's spot
row.

The squared ground state phi0^2(0..N) is a table (``phi0_sq_table``) run by
detailed balance, B(x) phi0^2(x) = D(x+1) phi0^2(x+1), from phi0^2(0) = 1;
the squared norms (``dn_sq_table``) are the closed-form d_0^2 times that
table at the dual parameters.  The per-point Pochhammer formulas are kept
in the tests as oracles.

Each q-Racah closed form is its Racah form with every (u)_n read as
(u;q)_n, so one product, ``poch`` over ``params.factor``, writes ``c_n``
and d_0^2 for both families; it multiplies integer pairs (``poch_pair``),
as do the potentials B and D and ``varphi``.  The per-family formulas
of the float route (B', r_j, ``varphi``, the q-Pochhammer symbol) live
in the tests as oracles of ``qlimit``.
"""

from __future__ import annotations

from math import prod

from .backend import rat
from .errors import IndexOutOfRange, InadmissibleParams, NonPositiveWeight, ZeroDenominator
from .params import R, ParamSet, eta, factor_pair, ipow


def poch_pair(p: ParamSet, u: tuple, n: int, k: int = 0) -> tuple:
    """``poch`` of the integer pair u = (num, den) of an exact value, k of
    either sign: the products of the numerators and of the denominators of
    ``params.factor_pair``, unreduced."""
    fs = [factor_pair(p, u, i) for i in range(k, k + n)]
    return prod(f[0] for f in fs), prod(f[1] for f in fs)


def poch(p: ParamSet, u, n: int, k: int = 0):
    """(u+k)_n (R) or (u*q^k; q)_n (qR) of an exact u: the product of
    ``params.factor(p, u, i)`` for i = k..k+n-1, as the one rational of
    ``poch_pair``."""
    return rat(*poch_pair(p, (u.numerator, u.denominator), n, k))


def potential(x: int, p: ParamSet, which: str = "B"):
    """B(x) = -prod_(u = a,b,c,d) f(u, x) / (f(d, 2x) f(d, 2x+1)) and
    D(x) = -t prod_(u = d-a, d-b, d-c, d-d) f(u, x) / (f(d, 2x-1) f(d, 2x)),
    f = ``params.factor``, for qR with d-u read as d/u and t = dtilde (else
    1): exact tuples only, one rational of ``params.factor_pair``s; 0 where
    the numerator vanishes, also where the denominator does (D(0) at d=1,
    d=q)."""
    if which not in ("B", "D"):
        raise ValueError(f"unknown potential {which!r}")
    a, b, c, d = ((v.numerator, v.denominator) for v in (p.a, p.b, p.c, p.d))
    fs, us, k = [(-1, 1)], (a, b, c, d), 2 * x
    if which == "D" and p.family == R:
        us, k = [(d[0] * u[1] - u[0] * d[1], d[1] * u[1]) for u in us], k - 1
    elif which == "D":
        qn, qd = p.q.numerator, p.q.denominator
        fs = [(-a[0] * b[0] * c[0] * d[1] * qd, a[1] * b[1] * c[1] * d[0] * qn)]
        us, k = [(d[0] * u[1], d[1] * u[0]) for u in us], k - 1
    fs += [factor_pair(p, u, x) for u in us]
    num = prod(f[0] for f in fs)
    if num == 0:
        return rat(0)
    (d0, e0), (d1, e1) = factor_pair(p, d, k), factor_pair(p, d, k + 1)
    if d0 * d1 == 0:
        raise ZeroDenominator(f"potential {which} denominator vanishes at x={x}")
    return rat(num * e0 * e1, prod(f[1] for f in fs) * d0 * d1)


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
    """Three-term recurrence coefficients (A_n, B_n, C_n): by duality,
    A_n = -B(n) and C_n = -D(n), the potentials at the dual parameters."""
    if not 0 <= n <= p.N:
        raise IndexOutOfRange(f"n={n} outside 0..{p.N}")
    pd = p.dual()
    A, C = -potential(n, pd, "B"), -potential(n, pd, "D")
    return A, -A - C, C


class RacahColumns:
    """Base values P_0(y)..P_N(y) at one exact parameter set, filled one
    column (one y, on or off the grid) at a time.

    The three-term recurrence in n,
    P_{n+1} = ((eta(y) - B_n) P_n - C_n P_{n-1}) / A_n, with the coefficients
    of ``rec_coeffs``: O(N) per column.  Each step runs on the integer
    numerators and denominators over one common denominator and is reduced
    once, to the same rational.  Float tuples (the q-family tuples of the
    q->1 check) are filled by ``qlimit.QSumColumns`` and refused here.
    """

    def __init__(self, p: ParamSet):
        if not p.is_exact():
            raise InadmissibleParams("float base columns are filled by the q->1 check's q-sum")
        self.p, N = p, p.N
        self._rec = [[(v.numerator, v.denominator) for v in rec_coeffs(n, p)] for n in range(N)]

    def column(self, y: int) -> tuple:
        """(P_0(y), ..., P_N(y))."""
        e = eta(y, self.p)
        en, ed = e.numerator, e.denominator
        col = [rat(1)]
        pn, pd, qn, qd = 1, 1, 0, 1  # P_n = pn/pd, P_{n-1} = qn/qd
        for (an, ad), (bn, bd), (cn, cd) in self._rec:
            num = (en * bd - bn * ed) * pn * cd * qd - cn * qn * ed * bd * pd
            v = rat(num * ad, ed * bd * pd * cd * qd * an)
            col.append(v)
            pn, pd, qn, qd = v.numerator, v.denominator, pn, pd
        return tuple(col)


def _balanced_table(p: ParamSet, first, label: str) -> tuple:
    """first * phi0^2(x), x = 0..N, by detailed balance: phi0^2(0) = 1 and
    B(x) phi0^2(x) = D(x+1) phi0^2(x+1).  Each entry must be positive;
    ``label`` names entry x in the error."""
    table, v = [], first
    for x in range(p.N + 1):
        if x:
            v = v * potential(x - 1, p, "B") / potential(x, p, "D")
        if not v > 0:
            raise NonPositiveWeight(f"{label.format(x)} = {v}")
        table.append(v)
    return tuple(table)


def phi0_sq_table(p: ParamSet) -> tuple:
    """(phi0^2(0), ..., phi0^2(N)), the squared ground state, for an exact
    tuple."""
    return _balanced_table(p, rat(1), "phi0^2({})")


def dn_sq_table(p: ParamSet) -> tuple:
    """(d_0^2, ..., d_N^2), the squared norms, for an exact tuple: by
    duality d_n^2 = d_0^2 * phi0^2(n) at the dual parameters, with d_0^2 in
    closed form."""
    a, b, c, d, dt, N = p.a, p.b, p.c, p.d, p.dtilde, p.N
    if p.family == R:
        us, scale = (d - a + 1, d - b + 1, d - c + 1), 1
    else:
        q = p.q
        us, scale = (d * q / a, d * q / b, d * q / c), ipow(dt, N) * ipow(q, N * (N + 1) // 2)
    den = poch(p, dt, N, 1) * poch(p, d, 2 * N, 1)
    d0 = (-1) ** N * scale * prod(poch(p, u, N) for u in us) / den
    return _balanced_table(p.dual(), d0, "d_{}^2")


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
    """(2x+d+1)/(d+1) (R) or (q^-x - d*q^(x+1))/(1-dq) (qR), that is
    q^-x f(d, 2x+1) / f(d, 1) with f = ``params.factor``, for an exact
    tuple: one rational of integer pairs."""
    d = (p.d.numerator, p.d.denominator)
    (n1, d1), (n2, d2) = factor_pair(p, d, 2 * x + 1), factor_pair(p, d, 1)
    q = (1, 1) if p.family == R else (p.q.denominator, p.q.numerator)
    qn, qd = q if x >= 0 else q[::-1]
    return rat(n1 * d2 * qn ** abs(x), d1 * n2 * qd ** abs(x))


def c_n(n: int, p: ParamSet):
    """Leading coefficient of the degree-n base polynomial."""
    return poch(p, p.dtilde, n, n) / prod(poch(p, u, n) for u in (p.a, p.b, p.c))
