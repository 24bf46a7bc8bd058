"""Dual polynomial tables and the band-diagonal dual Hamiltonians.

Duality swaps the grid variable and the polynomial label.  The dual table
V is filled by the ratio definition; the difference equations of the
deformed polynomials, divided by the ground state, are its dual three-term
recurrence diag(Ebar)*V = V*T.  That one identity is computed once per
table (``DualTable.recurrence_residual``): the mi suite reports its
entries, the dual suite and the eigenbasis certification raise on the
first.

The Hamiltonian owns its eigenbasis.  Its eigenvalues X(0..N) are read
from the one X grid; where h_tilde*V and V*diag(X) differ is found once
per Hamiltonian, with no dense product (``linalg.eigen_misses``), and
listed by ``verify_spectrum``.  The eigenbasis is
certified once per Hamiltonian (``DualHamiltonian.eigenbasis``): the eigen
residual is zero, X is strictly increasing, the dual recurrence holds on
every entry and row 0 of V has no zero, so V is invertible.  Its inverse
is the closed form from dual orthogonality,
V^(-1) = diag(ground_weight)*V^T*diag(dDn_sq), certified V*V^(-1) = I
(``DualHamiltonian.vinv``).  Each is a cached property, which
``dataclasses.replace()`` starts afresh.  Every certification raises
CrossCheckMismatch, under every interpreter flag.

Everything here is exact: h_tilde is only checked to be similar to a real
symmetric matrix, by the mirror identity of its band (``recurrence``) and
the positive norms (``multiindexed``); ``shapeinv.symmetric_form`` builds
that matrix in floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from .backend import rat
from .errors import CrossCheckMismatch, ShapeMismatch, ZeroDenominator
from .linalg import SquareMatrix, _cleared_int_rows, eigen_misses, gram_residuals
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

    def jacobi(self) -> list:
        """T held as its columns (T[n-1][n], T[n][n], T[n+1][n]); the two
        entries that fall outside the matrix are zero."""
        last = len(self.b_dual) - 1
        return [
            (c if n else 0, b, a if n < last else 0)
            for n, (c, b, a) in enumerate(zip(self.c_dual, self.b_dual, self.a_dual))
        ]

    @cached_property
    def recurrence_residual(self) -> list:
        """Nonzero entries (x, n, r) of V*T - diag(Ebar)*V in row-major
        order; empty = pass.  Entry (x, n) is the difference equation of
        P_x at grid point n divided by P_0(n).  Formed once on integers:
        row x of V and column n of T cleared by their lcms."""
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
        return out

    def certify_recurrence(self) -> None:
        """CrossCheckMismatch at the first nonzero recurrence residual."""
        miss = self.recurrence_residual
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
    dDn_sq: Tuple
    ground_weight: Tuple     # w_x * P_0(x)^2: with dDn_sq, the closed-form V^(-1)
    L: int
    x_grid: dict             # X values on the extended range -1..N+1
    dual: DualTable

    @property
    def V(self) -> SquareMatrix:
        """The eigenvector matrix: its columns are the dual polynomials."""
        return self.dual.V

    @property
    def energies(self) -> tuple:
        """The eigenvalues X(0..N), read from x_grid."""
        return tuple(self.x_grid[n] for n in range(self.h_tilde.n))

    @cached_property
    def eigen_residual(self) -> list:
        """Positions (x, n) where h_tilde*V and V*diag(X) differ, in
        row-major order; empty = an eigenbasis.  Found once on integers
        and shared by the spectrum check and the certification."""
        return eigen_misses(self.h_tilde.rows, list(zip(*self.V.rows)), self.energies)

    @cached_property
    def eigenbasis(self) -> DualTable:
        """The dual table, certified as an invertible eigenbasis of h_tilde.

        h_tilde*V = V*diag(X), X strictly increasing, diag(Ebar)*V = V*T and
        no zero in row 0 of V, in that order; CrossCheckMismatch at the
        first that fails.  With distinct eigenvalues and no vanishing
        column, V is invertible."""
        if self.eigen_residual:
            raise CrossCheckMismatch("h_tilde*V differs from V*diag(X)")
        X = self.energies
        for n in range(len(X) - 1):
            if not X[n] < X[n + 1]:
                raise CrossCheckMismatch(f"eigenvalues X are not strictly increasing at n={n}")
        self.dual.certify_recurrence()
        if any(v == 0 for v in self.V.rows[0]):
            raise CrossCheckMismatch("row 0 of V has a zero: an eigenvector column may vanish")
        return self.dual

    @cached_property
    def vinv(self) -> SquareMatrix:
        """V^(-1) = diag(ground_weight)*V^T*diag(dDn_sq), the dual
        orthogonality relation, certified V*V^(-1) = I."""
        vinv = self.V.transpose().scale_rows(self.ground_weight).scale_cols(self.dDn_sq)
        if self.V @ vinv != SquareMatrix.identity(self.V.n):
            raise CrossCheckMismatch("closed-form inverse fails V*V^(-1) = I")
        return vinv


def build_hamiltonians(s: MISystem, xp: XPoly, t: RecTable, dual: DualTable) -> DualHamiltonian:
    """h_tilde is the band matrix of the r-table, whose mirror identity
    ``recurrence.extract_r`` certified; V is the dual table's own matrix."""
    n1 = s.params.N + 1
    h_tilde = SquareMatrix([[t.r.get((x, y - x), 0) for y in range(n1)] for x in range(n1)])
    return DualHamiltonian(
        h_tilde=h_tilde,
        dDn_sq=s.dDn_sq,
        ground_weight=tuple(s.weights[x] * s.pdn_grid[0][x] ** 2 for x in range(n1)),
        L=xp.L,
        x_grid=dict(xp.grid),
        dual=dual,
    )


def verify_spectrum(h: DualHamiltonian) -> list:
    """Exact eigen-check h_tilde*V = V*diag(X); empty = pass."""
    n1 = h.h_tilde.n
    X = h.energies
    failures = [("eigen", x, n) for x, n in h.eigen_residual]
    if X[0] != 0:
        failures.append(("ground", 0))
    for n in range(n1 - 1):
        if not X[n] < X[n + 1]:
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
