"""Discrete antiderivative map and the band recurrence it generates.

The antiderivative X = I[Xi_D * Y] of (denominator polynomial) x (seed
polynomial Y) is defined by its steps on the lattice, so X is built as the
interpolant of their telescoping sums, certified against the sums on the
whole grid.  Its grid values drive recurrence relations with constant
coefficients for the deformed polynomials.  Coefficients are extracted by
exact orthogonality projection and independently cross-checked by an exact
linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .backend import rat
from .errors import (
    CrossCheckMismatch,
    NegativeYCoefficient,
    NonMonotone,
    ZeroPolynomial,
)
from .linalg import solve_overdetermined
from .multiindexed import MISystem
from .params import R, eta, ipow, shift
from .poly import Poly, interpolate


@dataclass
class XPoly:
    """X(eta) together with its certified grid values and bandwidth."""

    poly: Poly
    L: int
    grid: Dict[int, object]   # x -> X(eta(x)), x = -1..N+1
    Y: Poly
    monotone: bool


def build_X(s: MISystem, Y: Poly, for_hamiltonian: bool = False) -> XPoly:
    """X = I[Xi_D * Y], the discrete antiderivative: the polynomial of degree
    L = ell_D + deg Y + 1 with X(eta(0)) = 0 and steps
    X(eta(x)) - X(eta(x-1)) = (eta(x) - eta(x-1)) * Xi_D(eta'(x)) * Y(eta'(x)),
    eta taken at lambda + M*delta and eta' at lambda + (M-1)*delta.

    X interpolates the telescoping sums S(x) of those steps at x = 0..L and
    is certified against S on the whole grid x = 0..N+1.
    """
    if Y.is_zero():
        raise ZeroPolynomial("seed polynomial Y must be nonzero")
    nonneg = all(c >= 0 for c in Y.coeffs)
    if for_hamiltonian and not nonneg:
        raise NegativeYCoefficient("Hamiltonian-bound Y must have non-negative coefficients")
    p, M, N = s.params, s.M, s.params.N
    p_m = shift(p, M, "delta")
    p_prev = shift(p, M - 1, "delta")
    L = s.ellD + Y.degree + 1
    etas = [eta(x, p_m) for x in range(max(L, N + 1) + 1)]
    sums = [rat(0)]
    for x in range(1, len(etas)):
        e_prev = eta(x, p_prev)
        sums.append(sums[-1] + (etas[x] - etas[x - 1]) * s.xi_poly(e_prev) * Y(e_prev))
    x_poly = interpolate(etas[: L + 1], sums[: L + 1])
    if x_poly[0] != 0:
        raise CrossCheckMismatch(f"X has constant term {x_poly[0]}, expected 0")
    if x_poly.degree != L:
        raise CrossCheckMismatch(f"X has degree {x_poly.degree}, expected L={L}")
    grid = {x: x_poly(eta(x, p_m)) for x in range(-1, N + 2)}
    for x in range(N + 2):
        if grid[x] != sums[x]:
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
