"""Discrete antiderivative map and the band recurrence it generates.

Applying the antiderivative to (denominator polynomial) x (seed polynomial Y)
yields a polynomial X whose grid values drive recurrence relations with
constant coefficients for the deformed polynomials.  Coefficients are
extracted by exact orthogonality projection and independently cross-checked
by an exact linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Dict, Tuple

from .backend import rat
from .errors import (
    CrossCheckMismatch,
    IndexOutOfRange,
    NegativeYCoefficient,
    NonMonotone,
    ZeroPolynomial,
)
from .linalg import solve_overdetermined
from .multiindexed import MISystem
from .params import R, ParamSet, eta, ipow, shift
from .poly import Poly


def _comb0(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def gprime(n: int, k: int, p: ParamSet):
    """Coefficients expanding a divided power difference of eta over the
    back-shifted parameter set; the engine of the antiderivative map."""
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"need 0 <= k <= n, got k={k}, n={n}")
    d = p.d
    total = d * 0
    if p.family == R:
        half_d_sq = d * d / 4
        half_dm1_sq = (d - 1) * (d - 1) / 4
        for r in range(k + 1):
            for l in range(k - r + 1):
                outer = _comb0(n + 1, r) * _comb0(n - r - l, n - k)
                if outer == 0:
                    continue
                gw = rat((-1) ** l * comb(2 * (n - r) + 2, 2 * l + 1), 2 ** (2 * l + 1))
                total = total + (
                    outer
                    * (-1) ** (r + l)
                    * half_d_sq ** r
                    * half_dm1_sq ** (k - r - l)
                    * gw
                )
        return total
    q = p.q
    for r in range(k + 1):
        for l in range(0, k - r + 1, 2):
            outer = _comb0(n + 1, r) * _comb0(n - r - l, n - k)
            if outer == 0:
                continue
            m = n - r
            # inner sum with the half-powers of q already cancelled against
            # the outer factor (l is even, so d**(l//2) is exact)
            inner = q * 0
            for s in range(l // 2 + 1):
                cb = _comb0(m - l + s, s)
                if cb == 0:
                    continue
                inner = inner + (
                    cb
                    * (-1) ** s
                    * ipow(q, -s)
                    / (factorial(l // 2 - s) * factorial(m - l // 2 + 1 + s))
                    * (1 - ipow(q, m - l + 1 + 2 * s))
                    / (1 - q)
                )
            total = total + (
                outer
                * (-1) ** r
                * ipow(d, l // 2)
                * (1 + d) ** r
                * (1 + d / q) ** (k - r - l)
                * factorial(m + 1)
                * inner
            )
    return total


def map_I(pol: Poly, p: ParamSet) -> Poly:
    """Discrete antiderivative: raises degree by one, constant term zero."""
    if pol.is_zero():
        raise ZeroPolynomial("antiderivative of the zero polynomial")
    n = pol.degree
    b = [rat(0)] * (n + 2)
    for k in range(n, -1, -1):
        acc = pol[k]
        for j in range(k + 1, n + 1):
            acc = acc - gprime(j, j - k, p) * b[j + 1]
        b[k + 1] = acc / gprime(k, 0, p)
    out = Poly(b)
    if out.degree != n + 1:
        raise CrossCheckMismatch(f"antiderivative has degree {out.degree}, expected {n + 1}")
    return out


@dataclass
class XPoly:
    """X(eta) together with its certified grid values and bandwidth."""

    poly: Poly
    L: int
    grid: Dict[int, object]   # x -> X(eta(x)), x = -1..N+1
    Y: Poly
    monotone: bool


def build_X(s: MISystem, Y: Poly, for_hamiltonian: bool = False) -> XPoly:
    if Y.is_zero():
        raise ZeroPolynomial("seed polynomial Y must be nonzero")
    nonneg = all(c >= 0 for c in Y.coeffs)
    if for_hamiltonian and not nonneg:
        raise NegativeYCoefficient("Hamiltonian-bound Y must have non-negative coefficients")
    p, M, N = s.params, s.M, s.params.N
    p_m = shift(p, M, "delta")
    p_prev = shift(p, M - 1, "delta")
    x_poly = map_I(s.xi_poly * Y, p_m)
    if x_poly[0] != 0:
        raise CrossCheckMismatch(f"X has constant term {x_poly[0]}, expected 0")
    L = s.ellD + Y.degree + 1
    if x_poly.degree != L:
        raise CrossCheckMismatch(f"X has degree {x_poly.degree}, expected L={L}")
    grid = {x: x_poly(eta(x, p_m)) for x in range(-1, N + 2)}

    # telescoping consistency with the sum form of the recurrence theorem
    acc = grid[0] * 0
    if grid[0] != 0:
        raise CrossCheckMismatch(f"X(0) = {grid[0]}, expected 0")
    for x in range(1, N + 1):
        acc = acc + (eta(x, p_m) - eta(x - 1, p_m)) * s.xi_grid[x] * Y(eta(x, p_prev))
        if acc != grid[x]:
            raise CrossCheckMismatch(f"telescoping sum differs from X at x={x}")

    monotone = all(grid[x] < grid[x + 1] for x in range(N))
    if not monotone and (for_hamiltonian or nonneg):
        raise NonMonotone("X grid values are not strictly increasing")
    return XPoly(poly=x_poly, L=L, grid=grid, Y=Y, monotone=monotone)


def xhat_minus1(xp: XPoly, s: MISystem):
    """Off-grid value at x=-1, cross-checked against its closed form."""
    p, M = s.params, s.M
    y0 = xp.Y[0]
    if p.family == R:
        closed = -(p.d + M - 1) * y0
    else:
        closed = -(1 - p.q) * (1 - p.d * ipow(p.q, M - 1)) * y0
    if xp.grid[-1] != closed:
        raise CrossCheckMismatch(
            f"X(-1) = {xp.grid[-1]} differs from closed form {closed}"
        )
    return xp.grid[-1]


@dataclass
class RecTable:
    """Constant recurrence coefficients r[(n,k)] for the band |k| <= L."""

    r: Dict[Tuple[int, int], object]
    L: int
    N: int

    def band(self, n: int):
        return range(-min(self.L, n), min(self.L, self.N - n) + 1)


def extract_r(s: MISystem, xp: XPoly) -> RecTable:
    N, L = s.params.N, xp.L
    r = {}
    for n in range(N + 1):
        for k in range(-min(L, n), min(L, N - n) + 1):
            val = s.dDn_sq[n + k] * sum(
                s.weights[x] * xp.grid[x] * s.pdn_grid[n][x] * s.pdn_grid[n + k][x]
                for x in range(N + 1)
            )
            r[(n, k)] = val

    # independent route: exact least-structure solve of the defining relations
    for n in range(N + 1):
        ks = list(range(-min(L, n), min(L, N - n) + 1))
        rows = [[s.pdn_grid[n + k][x] for k in ks] for x in range(N + 1)]
        rhs = [xp.grid[x] * s.pdn_grid[n][x] for x in range(N + 1)]
        sol = solve_overdetermined(rows, rhs)
        for k, v in zip(ks, sol):
            if v != r[(n, k)]:
                raise CrossCheckMismatch(f"projection vs solve differ at (n,k)=({n},{k})")

    table = RecTable(r=r, L=L, N=N)
    _check_band_identities(s, table)
    return table


def _check_band_identities(s: MISystem, t: RecTable) -> None:
    """Mirror symmetry r[n+k,-k] = dDn_sq[n]/dDn_sq[n+k] * r[n,k] and zero
    row sums; CrossCheckMismatch on the first violation."""
    for n in range(t.N + 1):
        for k in range(1, t.L + 1):
            if n + k <= t.N and t.r[(n + k, -k)] != s.dDn_sq[n] / s.dDn_sq[n + k] * t.r[(n, k)]:
                raise CrossCheckMismatch(f"mirror symmetry fails at (n,k)=({n},{k})")
        if sum(t.r[(n, k)] for k in t.band(n)) != 0:
            raise CrossCheckMismatch(f"row {n} of the band does not sum to zero")


def verify_recurrence(s: MISystem, xp: XPoly, t: RecTable) -> list:
    """Exact residuals of the band recurrence.

    For n small enough that the full band fits, the identity is checked
    coefficientwise as polynomials; otherwise only on the grid, where it is
    stated to hold.
    """
    N, L = s.params.N, xp.L
    failures = []
    for n in range(N + 1):
        if n <= N - L:
            lhs = xp.poly * s.pdn_polys[n]
            rhs = Poly.zero()
            for k in t.band(n):
                rhs = rhs + s.pdn_polys[n + k].scale(t.r[(n, k)])
            if lhs != rhs:
                failures.append(("poly", n))
        else:
            for x in range(N + 1):
                lhs = xp.grid[x] * s.pdn_grid[n][x]
                rhs = sum(t.r[(n, k)] * s.pdn_grid[n + k][x] for k in t.band(n))
                if lhs != rhs:
                    failures.append(("grid", n, x))
    return failures
