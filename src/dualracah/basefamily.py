"""Base Racah / q-Racah data: potentials, polynomials, weights, norms,
and the virtual-state objects obtained through the parameter twist.

All functions are duck-typed over the scalar field: exact rationals give
exact results, high-precision floats give the float path used by the
q->1 limit checks.
"""

from __future__ import annotations

from functools import lru_cache

from .backend import rat
from .errors import IndexOutOfRange, NonPositiveWeight, ZeroDenominator
from .params import R, ParamSet, ipow, twist
from .poly import Poly


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


@lru_cache(maxsize=None)
def twisted(p: ParamSet) -> ParamSet:
    return twist(p)


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


@lru_cache(maxsize=None)
def _racah_polys(p: ParamSet):
    """All base polynomials P_0..P_N in eta, via the three-term recurrence."""
    polys = [Poly.one()]
    prev = Poly.zero()
    for n in range(p.N):
        A, B, C = rec_coeffs(n, p)
        nxt = (Poly.x() * polys[n] - polys[n].scale(B) - prev.scale(C)).scale(1 / A)
        prev = polys[n]
        polys.append(nxt)
    return tuple(polys)


def racah_poly(n: int, p: ParamSet) -> Poly:
    if not 0 <= n <= p.N:
        raise IndexOutOfRange(f"n={n} outside 0..{p.N}")
    return _racah_polys(p)[n]


def phi0_sq(x: int, p: ParamSet):
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


def dn_sq(n: int, p: ParamSet):
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


def xi_v(v: int, x: int, p: ParamSet):
    """Virtual state polynomial grid value: the base value at the twisted set."""
    if v < 1:
        raise IndexOutOfRange(f"virtual degree must be >= 1, got {v}")
    return racah_value(v, x, twisted(p))


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
