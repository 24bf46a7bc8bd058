"""Discrete antiderivative map and the band recurrence it generates.

The antiderivative X = I[Xi_D * Y] of (denominator polynomial) x (seed
polynomial Y) is defined by its steps on the lattice, so X is built as the
interpolant of their telescoping sums, certified at its nodes by
``poly.interpolate`` and against the sums on the rest of the grid.  Its
grid values drive recurrence relations with constant coefficients for the deformed polynomials.  Coefficients are extracted by
exact orthogonality projection, the 1+2L band of the weighted Gram
matrix of the grid table (``linalg.gram_band``, which forms its L+1 upper
diagonals: the matrix is symmetric), and certified by the relation that defines
them: read on the grid, the band recurrence is R*P = P*diag(X).  That
check, and the recurrence as a polynomial identity at the nodes past the
grid (``verify_recurrence``), are one kernel, ``linalg.eigen_misses``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, NamedTuple, Tuple

from .backend import rat
from .errors import (
    CrossCheckMismatch,
    NegativeYCoefficient,
    NonMonotone,
    ZeroPolynomial,
)
from .linalg import eigen_misses, gram_band
from .multiindexed import MISystem
from .params import R, eta, ipow, shift
from .poly import Poly, interpolate


class XPoly(NamedTuple):
    """X(eta) together with its certified grid values and bandwidth."""

    poly: Poly
    L: int
    grid: Dict[int, object]   # x -> X(eta(x)), x = -1..N+1, increasing on 0..N
    Y: Poly


def build_X(s: MISystem, Y: Poly) -> XPoly:
    """X = I[Xi_D * Y], the discrete antiderivative: the polynomial of degree
    L = ell_D + deg Y + 1 with X(eta(0)) = 0 and steps
    X(eta(x)) - X(eta(x-1)) = (eta(x) - eta(x-1)) * Xi_D(eta'(x)) * Y(eta'(x)),
    eta taken at lambda + M*delta and eta' at lambda + (M-1)*delta.

    X interpolates the telescoping sums S(x) of those steps at x = 0..L (so
    X(eta(0)) = S(0) = 0 is certified at a node) and is certified against S
    at x = L+1..N+1; the grid holds S.  X is the Hamiltonian's spectrum:
    Y >= 0 coefficientwise, X strictly increasing.
    """
    if Y.is_zero():
        raise ZeroPolynomial("seed polynomial Y must be nonzero")
    if any(c < 0 for c in Y.coeffs):
        raise NegativeYCoefficient("Hamiltonian-bound Y must have non-negative coefficients")
    p, M, N = s.params, s.M, s.params.N
    p_m = shift(p, M, "delta")
    p_prev = shift(p, M - 1, "delta")
    L = s.ellD + Y.degree + 1
    etas = [eta(x, p_m) for x in range(max(L, N + 1) + 1)]
    prevs = [eta(x, p_prev) for x in range(1, len(etas))]
    # Xi_D(eta'(x)) is held on the system's grid x = 0..max(N+1, ell_D)
    xis = [s.xi_grid[x] for x in range(1, len(s.xi_grid))]
    xis += s.xi_poly.values(prevs[len(xis):])
    sums = [rat(0)]
    for e, e_before, xi, y in zip(etas[1:], etas, xis, Y.values(prevs)):
        sums.append(sums[-1] + (e - e_before) * xi * y)
    x_poly = interpolate(etas[: L + 1], sums[: L + 1])
    if x_poly.degree != L:
        raise CrossCheckMismatch(f"X has degree {x_poly.degree}, expected L={L}")
    for x, v in zip(range(L + 1, N + 2), x_poly.values(etas[L + 1 : N + 2])):
        if v != sums[x]:
            raise CrossCheckMismatch(f"telescoping sum differs from X at x={x}")
    grid = {-1: x_poly(eta(-1, p_m)), **{x: sums[x] for x in range(N + 2)}}
    if not all(grid[x] < grid[x + 1] for x in range(N)):
        raise NonMonotone("X grid values are not strictly increasing")
    return XPoly(poly=x_poly, L=L, grid=grid, Y=Y)


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


class RecTable:
    """Constant recurrence coefficients r[(n,k)] for the band |k| <= L."""

    def __init__(self, r: Dict[Tuple[int, int], object], L: int, N: int):
        self.r, self.L, self.N = r, L, N

    def band(self, n: int):
        return range(-min(self.L, n), min(self.L, self.N - n) + 1)

    @cached_property
    def rows(self) -> list:
        """The (N+1)^2 band matrix R, R[n][n+k] = r[(n,k)] and zero off the
        band, built once per table: the grid certificate, the polynomial
        check and the Hamiltonian all read it."""
        n1 = self.N + 1
        return [[self.r.get((n, m - n), 0) for m in range(n1)] for n in range(n1)]


def extract_r(s: MISystem, xp: XPoly) -> RecTable:
    """r[(n,k)] by orthogonality projection, certified by the band
    recurrence on the grid: each grid column (P_0(x)..P_N(x)) must be an
    eigenvector of the band matrix R of r with eigenvalue X(x), exactly.
    r[(n,k)] and r[(n+k,-k)] scale one Gram entry, so the mirror identity
    r[(n+k,-k)] = dDn_sq[n]/dDn_sq[n+k] * r[(n,k)] holds by construction;
    P_n(0) = 1 and X(0) = 0, so grid column 0 reads sum_k r[(n,k)] = 0."""
    N, L = s.params.N, xp.L
    n1 = N + 1
    X = [xp.grid[x] for x in range(n1)]
    gram = gram_band(s.pdn_grid, [w * v for w, v in zip(s.weights, X)], L)
    r = {
        (n, k): s.dDn_sq[n + k] * gram[min(n, n + k), max(n, n + k)]
        for n in range(n1)
        for k in range(-min(L, n), min(L, N - n) + 1)
    }

    table = RecTable(r=r, L=L, N=N)
    miss = eigen_misses(table.rows, list(zip(*s.pdn_grid)), X)
    if miss:
        n, x, _ = miss[0]
        raise CrossCheckMismatch(f"band recurrence misses the grid at (n,x)=({n},{x})")
    return table


def verify_recurrence(s: MISystem, xp: XPoly, t: RecTable) -> list:
    """Exact check of the band recurrence as a polynomial identity,
    X * P_n = sum_k r[(n,k)] * P_(n+k), for every label n <= N - L whose
    full band fits (none when L > N); failures are ("poly", n), empty = pass.

    Both sides have degree at most K = deg X + max_m deg P_m, so the
    identity holds iff it holds at the K+1 distinct nodes eta(0..K), at
    lambda + M*delta.  At the grid nodes x <= N it is row n of the
    certificate R*P = P*diag(X) of ``extract_r``, whose grid values are the
    certified interpolants' values; so only the K - N nodes past the grid
    are evaluated here.  The other rows hold only on the grid.
    """
    K = xp.poly.degree + max(p.degree or 0 for p in s.pdn_polys)
    p_m = shift(s.params, s.M, "delta")
    nodes = [eta(x, p_m) for x in range(K + 1)]
    if len(set(nodes)) != len(nodes):
        raise CrossCheckMismatch("coincident nodes for the polynomial recurrence check")
    past = nodes[s.params.N + 1 :]
    vectors = list(zip(*(p.values(past) for p in s.pdn_polys)))
    misses = eigen_misses(t.rows[: max(0, t.N - t.L + 1)], vectors, xp.poly.values(past))
    return [("poly", n) for n in sorted({n for n, _, _ in misses})]
