"""Base Racah / q-Racah data: potentials, polynomials, weights, norms,
and the virtual-state energies and leading coefficients.

The families are self-dual: swapping x with n and d with dtilde
(``ParamSet.dual``) maps one onto the other.  So each dual formula is the
primal one at the dual parameters: the recurrence coefficients are the
potentials (``rec_coeffs``), the energy is the sinusoidal coordinate
(``params.energy``) and the squared norms are the squared ground state
(``dn_sq_table``).  Likewise the virtual-state data are the base data at
the twisted parameters of ``params.twist``.

The functions are duck-typed over the scalar field: exact rationals give
exact results, high-precision floats give the float path used by the
q->1 limit checks (base values and energies; the weight and norm tables
take exact tuples only).

Base values P_n(y) of an exact tuple are filled a column (all n at one y)
at a time by ``RacahColumns``, by the three-term recurrence of
``rec_coeffs``.  The float columns of the q->1 check are the float side's
(``qlimit.QSumColumns``: the terminating q-sum of ``racah_value`` with its
factors shared across the table, on raw mpmath tuples), so this module
stays float-free.  ``racah_value``, the sum for a single value, serves the
virtual states (base values at the twisted parameters: the d_k+1 nodes of
each polynomial of an exact ``multiindexed.GridTable``, every value of a
float one) and the base suite's spot row.

The squared ground state phi0^2(0..N) is a table (``phi0_sq_table``) run by
detailed balance, B(x) phi0^2(x) = D(x+1) phi0^2(x+1), from phi0^2(0) = 1;
the squared norms (``dn_sq_table``) are the closed-form d_0^2 times that
table at the dual parameters.  The per-point Pochhammer formulas are kept
in the tests as oracles.

Each q-Racah closed form is its Racah form with every (u)_n read as
(u;q)_n, so one product, ``poch`` over ``params.factor``, writes ``c_n``
and d_0^2 for both families.  The formulas on the q->1 float route (the
potentials, ``racah_value``, ``etilde_v``, ``varphi``) stay per family:
the printed gaps pin their rounding order.
"""

from __future__ import annotations

from math import prod

from .backend import is_rational, rat
from .errors import IndexOutOfRange, InadmissibleParams, NonPositiveWeight, ZeroDenominator
from .params import R, ParamSet, eta, factor, ipow


def poch(p: ParamSet, u, n: int, k: int = 0):
    """(u+k)_n (R) or (u*q^k; q)_n (qR): ``params.factor(p, u, i)``
    multiplied for i = k..k+n-1 in turn.  On an exact u the numerators and
    the denominators are multiplied as integers, into one rational."""
    if is_rational(u):
        fs = [factor(p, u, i) for i in range(k, k + n)]
        return rat(prod(f.numerator for f in fs), prod(f.denominator for f in fs))
    acc = u * 0 + 1
    for i in range(k, k + n):
        acc = acc * factor(p, u, i)
    return acc


def potential(x: int, p: ParamSet, which: str = "B"):
    # "Bprime" is "B" at twist(p), exactly; it is written out because the
    # q->1 floats pin its operation order, which the twisted tuple rounds
    # differently in the last bit.
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
    if num == 0:  # B(N), D(0): also where den vanishes (D(0) at d=1; d=q for qR)
        return num
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
    if p.family == R:
        return (2 * x + p.d + 1) / (p.d + 1)
    return (ipow(p.q, -x) - p.d * ipow(p.q, x + 1)) / (1 - p.d * p.q)


def c_n(n: int, p: ParamSet):
    """Leading coefficient of the degree-n base polynomial."""
    return poch(p, p.dtilde, n, n) / prod(poch(p, u, n) for u in (p.a, p.b, p.c))
