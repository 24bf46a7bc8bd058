"""Dual polynomial tables and the band-diagonal dual Hamiltonians.

Duality swaps the grid variable and the polynomial label.  The dual table
V is filled by the ratio definition; the difference equations of the
deformed polynomials, divided by the ground state, are its dual three-term
recurrence diag(Ebar)*V = V*T.  That one identity is computed once per
table (``DualTable.recurrence_residual``): the mi suite reports its
entries, the dual suite and the closure certification raise on the first.
The Hamiltonians are verified against their full polynomial eigenbasis V
with zero tolerance.

Everything here is exact: h_tilde is only checked to be similar to a real
symmetric matrix, by the mirror identity of its band (``recurrence``) and
the positive norms (``multiindexed``); ``shapeinv.symmetric_form`` builds
that matrix in floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .backend import rat
from .errors import CrossCheckMismatch, ShapeMismatch, ZeroDenominator
from .linalg import SquareMatrix, _cleared_int_rows, gram_residuals
from .multiindexed import MISystem
from .params import energy
from .recurrence import RecTable, XPoly


@dataclass
class DualTable:
    """The dual polynomials on the grid and their three-term recurrence.

    V[x][n] = P_x(n)/P_0(n): column n is the dual polynomial of degree n,
    row x its value at the dual grid point with coordinate ebar[x] = E_x,
    the base energy.  T is the dual Jacobi matrix, T[n+1][n] = a_dual[n],
    T[n][n] = b_dual[n], T[n-1][n] = c_dual[n].
    """

    V: SquareMatrix
    a_dual: Tuple      # upper recurrence coefficients, vanish at n=N
    b_dual: Tuple
    c_dual: Tuple      # lower recurrence coefficients, vanish at n=0
    ebar: Tuple        # dual sinusoidal coordinate: base energies E_x
    # the recurrence residual, filled lazily; replace() starts it afresh
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def jacobi(self) -> list:
        """T held as its columns (T[n-1][n], T[n][n], T[n+1][n]); the two
        entries that fall outside the matrix are zero."""
        last = len(self.b_dual) - 1
        return [
            (c if n else 0, b, a if n < last else 0)
            for n, (c, b, a) in enumerate(zip(self.c_dual, self.b_dual, self.a_dual))
        ]

    def recurrence_residual(self) -> list:
        """Nonzero entries (x, n, r) of V*T - diag(Ebar)*V in row-major
        order; empty = pass.  Entry (x, n) is the difference equation of
        P_x at grid point n divided by P_0(n).  Formed once on integers:
        row x of V and column n of T cleared by their lcms."""
        if "residual" not in self.cache:
            v_rows, v_dens = _cleared_int_rows(self.V.rows)
            t_cols, t_dens = _cleared_int_rows(self.jacobi())
            last = self.V.n - 1
            out = []
            for x, (v, v_den, e) in enumerate(zip(v_rows, v_dens, self.ebar)):
                num, den = int(e.numerator), int(e.denominator)
                for n, ((lo, mid, hi), t_den) in enumerate(zip(t_cols, t_dens)):
                    vt = (v[n - 1] * lo if n else 0) + v[n] * mid + (v[n + 1] * hi if n < last else 0)
                    r = vt * den - v[n] * num * t_den
                    if r:
                        out.append((x, n, rat(r, v_den * t_den * den)))
            self.cache["residual"] = out
        return self.cache["residual"]

    def certify_recurrence(self) -> None:
        """CrossCheckMismatch at the first nonzero recurrence residual."""
        miss = self.recurrence_residual()
        if miss:
            x, n, _ = miss[0]
            raise CrossCheckMismatch(f"diag(Ebar)*V differs from V*T at (x,n)=({x},{n})")


def dual_values(s: MISystem) -> DualTable:
    """The dual table by the ratio definition; its recurrence is checked by
    the callers that rest on it."""
    N = s.params.N
    for x in range(N + 1):
        if s.pdn_grid[0][x] == 0:
            raise ZeroDenominator(f"ground-state polynomial vanishes at x={x}")
    V = SquareMatrix([
        [v / ground for v, ground in zip(row, s.pdn_grid[0])] for row in s.pdn_grid
    ])
    a_dual = tuple(-s.bd(x) for x in range(N + 1))
    c_dual = tuple(-s.dd(x) for x in range(N + 1))
    b_dual = tuple(-a - c for a, c in zip(a_dual, c_dual))
    if a_dual[N] != 0 or c_dual[0] != 0:
        raise CrossCheckMismatch("dual recurrence coefficients do not vanish at the edges")
    ebar = tuple(energy(x, s.params) for x in range(N + 1))
    return DualTable(V=V, a_dual=a_dual, b_dual=b_dual, c_dual=c_dual, ebar=ebar)


def dual_ortho(s: MISystem, t: DualTable) -> list:
    """Exact residuals of the dual orthogonality sums over the columns of
    V; empty = pass."""
    N = s.params.N
    xi1 = s.xi_grid[1]
    dual_w = [s.dDn_sq[n] / xi1 for n in range(N + 1)]
    # squared dual norm: (Xi(1) * weight * ground value^2)^(-1)
    norms = [1 / (xi1 * s.weights[x] * s.pdn_grid[0][x] ** 2) for x in range(N + 1)]
    return gram_residuals(t.V.transpose().rows, dual_w, norms)


@dataclass
class DualHamiltonian:
    h_tilde: SquareMatrix
    energies: Tuple          # eigenvalues X(n), strictly increasing
    dDn_sq: Tuple
    ground_weight: Tuple     # w_x * P_0(x)^2: with dDn_sq, the closed-form V^(-1)
    L: int
    x_grid: dict             # X values on the extended range -1..N+1
    dual: DualTable
    # the eigen residual and certified eigenbasis data, filled lazily
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def V(self) -> SquareMatrix:
        """The eigenvector matrix: its columns are the dual polynomials."""
        return self.dual.V

    def eigen_residual(self) -> SquareMatrix:
        """h_tilde*V - V*diag(energies), zero for an eigenbasis: one dense
        product, formed once and shared by every eigen-check."""
        if "eigen" not in self.cache:
            self.cache["eigen"] = self.h_tilde @ self.V - self.V.scale_cols(self.energies)
        return self.cache["eigen"]


def build_hamiltonians(s: MISystem, xp: XPoly, t: RecTable, dual: DualTable) -> DualHamiltonian:
    """h_tilde is the band matrix of the r-table, whose mirror identity
    ``recurrence.extract_r`` certified; V is the dual table's own matrix."""
    n1 = s.params.N + 1
    h_tilde = SquareMatrix([[t.r.get((x, y - x), 0) for y in range(n1)] for x in range(n1)])
    return DualHamiltonian(
        h_tilde=h_tilde,
        energies=tuple(xp.grid[n] for n in range(n1)),
        dDn_sq=s.dDn_sq,
        ground_weight=tuple(s.weights[x] * s.pdn_grid[0][x] ** 2 for x in range(n1)),
        L=xp.L,
        x_grid=dict(xp.grid),
        dual=dual,
    )


def verify_spectrum(h: DualHamiltonian) -> list:
    """Exact eigen-check h_tilde*V = V*diag(energies); empty = pass."""
    n1 = h.h_tilde.n
    failures = [("eigen", i, j) for i, j, _ in h.eigen_residual().nonzero_entries()]
    if h.energies[0] != 0:
        failures.append(("ground", 0))
    for n in range(n1 - 1):
        if not h.energies[n] < h.energies[n + 1]:
            failures.append(("monotone", n))
    for x in range(n1):
        for y in range(n1):
            if abs(x - y) > h.L and h.h_tilde[x, y] != 0:
                failures.append(("band", x, y))
    return failures


def commutator_check(h1: DualHamiltonian, h2: DualHamiltonian) -> list:
    if h1.h_tilde.n != h2.h_tilde.n:
        raise ShapeMismatch("Hamiltonians have different orders")
    diff = h1.h_tilde @ h2.h_tilde - h2.h_tilde @ h1.h_tilde
    return diff.nonzero_entries()
