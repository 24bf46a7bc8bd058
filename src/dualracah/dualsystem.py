"""Dual polynomial tables and the band-diagonal dual Hamiltonians.

Duality swaps the grid variable and the polynomial label.  The dual table
V is filled by the ratio definition; the difference equations of the
deformed polynomials, divided by the ground state, are its dual three-term
recurrence diag(Ebar)*V = V*T.  That one identity is computed once per
table (``DualTable.recurrence_residual``): the mi suite reports its
entries, the dual suite and the eigenbasis certification raise on the
first.

The table also owns the dual orthogonality V^T*diag(weights)*V =
diag(norms), computed once (``DualTable.ortho_residual``); it is the dual
suite's check (``dual_ortho``).

The Hamiltonian owns its eigenbasis.  h_tilde is the r-table's band
matrix R, X(0..N) the one X grid and column n of V column n of P over
P_0(n) != 0, so h_tilde*V = V*diag(X) is ``recurrence.extract_r``'s
certificate R*P = P*diag(X); ``verify_spectrum`` only lists its misses.
The eigenbasis is certified once per Hamiltonian by the dual recurrence
(``DualHamiltonian.eigenbasis``).  X is strictly increasing and V[0] is
all ones by construction, so V is invertible.  Each is a cached property,
kept on its object: a record built anew from the same fields starts
without it.  Two Hamiltonians commute when both certify the same V
(``commutator_check``): each is then V*diag(X)*V^(-1).

Every identity here is checked on one of the two integer kernels of
``linalg``: the recurrence and eigen residuals on the band kernel
(``eigen_misses``), the dual orthogonality on the Gram kernel
(``gram_residuals``).  None forms a dense product.  Every certification
raises CrossCheckMismatch, under every interpreter flag.

Everything here is exact: h_tilde is similar to a real symmetric matrix
by the mirror identity of its band, true by construction (``recurrence``),
and the positive norms, certified (``multiindexed``);
``shapeinv.symmetric_form`` builds that matrix in floats.
"""

from __future__ import annotations

from functools import cached_property
from typing import Tuple

from .errors import CrossCheckMismatch, ShapeMismatch, ZeroDenominator
from .linalg import SquareMatrix, eigen_misses, gram_residuals
from .multiindexed import MISystem
from .params import energy
from .recurrence import RecTable, XPoly


class DualTable:
    """The dual polynomials on the grid, their recurrence and orthogonality.

    V[x][n] = P_x(n)/P_0(n): column n is the dual polynomial of degree n,
    row x its value at the dual grid point with coordinate ebar[x] = E_x,
    the base energy.  T is the dual Jacobi matrix, T[n+1][n] = a_dual[n],
    T[n][n] = b_dual[n], T[n-1][n] = c_dual[n].  Tables with equal entries
    are equal, whatever each has cached.
    """

    def __init__(self, V: SquareMatrix, a_dual: Tuple, b_dual: Tuple, c_dual: Tuple,
                 ebar: Tuple, weights: Tuple, norms: Tuple):
        self.V = V
        self.a_dual = a_dual      # upper recurrence coefficients, vanish at n=N
        self.b_dual = b_dual
        self.c_dual = c_dual      # lower recurrence coefficients, vanish at n=0
        self.ebar = ebar          # dual sinusoidal coordinate: base energies E_x
        self.weights = weights    # dual weights dDn_sq[n]/Xi(1), n = 0..N
        self.norms = norms        # squared dual norms 1/(Xi(1)*w_x*P_0(x)^2), x = 0..N

    def _entries(self) -> tuple:
        return self.V, self.a_dual, self.b_dual, self.c_dual, self.ebar, self.weights, self.norms

    def __eq__(self, other):
        if not isinstance(other, DualTable):
            return NotImplemented
        return self._entries() == other._entries()

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
        P_x at grid point n divided by P_0(n).  Row x of V*T is T^T times
        row x of V, so this is the band kernel on the rows of T^T, the rows
        of V and the values Ebar."""
        last = len(self.b_dual) - 1
        # row n of T^T is column n of T, its entries at n-1, n, n+1
        t_rows = [
            ([0] * n + list(col) + [0] * (last - n))[1:-1] for n, col in enumerate(self.jacobi())
        ]
        return sorted((x, n, r) for n, x, r in eigen_misses(t_rows, self.V.rows, self.ebar))

    def certify_recurrence(self) -> None:
        """CrossCheckMismatch at the first nonzero recurrence residual."""
        miss = self.recurrence_residual
        if miss:
            x, n, _ = miss[0]
            raise CrossCheckMismatch(f"diag(Ebar)*V differs from V*T at (x,n)=({x},{n})")

    @cached_property
    def ortho_residual(self) -> list:
        """Residuals (x, y, r) of the dual orthogonality sums over the
        columns of V, x <= y, in row-major order; empty = pass.  Computed
        once, on the Gram kernel."""
        return gram_residuals(list(zip(*self.V.rows)), self.weights, self.norms)


def dual_values(s: MISystem) -> DualTable:
    """The dual table by the ratio definition, with its weights and squared
    norms; its recurrence and orthogonality are checked by the callers that
    rest on them.  V[0] is P_0(n)/P_0(n) = 1.  a_dual[N] and c_dual[0] are
    exact zeros: B(N) has the factor N + a (1 - a*q^N), a = -N (q^(-N)) is
    pinned by the parameters and kept by the tilde shift; D(0) has x."""
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
    ebar = tuple(energy(x, s.params) for x in range(N + 1))
    xi1 = s.xi_grid[1]
    weights = tuple(d / xi1 for d in s.dDn_sq)
    norms = tuple(1 / (xi1 * w * g ** 2) for w, g in zip(s.weights, s.pdn_grid[0]))
    return DualTable(
        V=V, a_dual=a_dual, b_dual=b_dual, c_dual=c_dual, ebar=ebar, weights=weights, norms=norms
    )


def dual_ortho(t: DualTable) -> list:
    """Exact residuals of the dual orthogonality sums over the columns of
    V (``DualTable.ortho_residual``); empty = pass."""
    return t.ortho_residual


class DualHamiltonian:
    def __init__(self, h_tilde: SquareMatrix, x_grid: dict, dual: DualTable):
        self.h_tilde = h_tilde
        self.x_grid = x_grid      # X values on the extended range -1..N+1
        self.dual = dual

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
        """Nonzero entries (x, n, r) of h_tilde*V - V*diag(X), in row-major
        order; empty = an eigenbasis.  Found once by the band kernel, for
        the spectrum listing alone."""
        return eigen_misses(self.h_tilde.rows, list(zip(*self.V.rows)), self.energies)

    @cached_property
    def eigenbasis(self) -> DualTable:
        """The dual table, certified as an invertible eigenbasis of h_tilde.

        diag(Ebar)*V = V*T, or CrossCheckMismatch (h_tilde*V = V*diag(X) is
        the r-table's grid certificate).  V is then invertible: no column
        vanishes (V[0] is all ones, ``dual_values``) and the eigenvalues are
        distinct (``build_X`` raises NonMonotone unless X strictly increases)."""
        self.dual.certify_recurrence()
        return self.dual


def build_hamiltonians(xp: XPoly, t: RecTable, dual: DualTable) -> DualHamiltonian:
    """h_tilde is the band matrix of the r-table (``RecTable.rows``), whose
    mirror identity holds by construction (``recurrence.extract_r``); V is
    the dual table's own matrix."""
    return DualHamiltonian(
        h_tilde=SquareMatrix(t.rows),
        x_grid=dict(xp.grid),
        dual=dual,
    )


def verify_spectrum(h: DualHamiltonian) -> list:
    """Exact eigen-check h_tilde*V = V*diag(X), ("eigen", x, n) per differing
    entry; empty = pass, as ``recurrence.extract_r`` certifies.  X(0) = 0, X
    increasing (``build_X``) and the band of h_tilde hold by construction."""
    return [("eigen", x, n) for x, n, _ in h.eigen_residual]


def commutator_check(h1: DualHamiltonian, h2: DualHamiltonian) -> None:
    """Certify h1*h2 = h2*h1 from their eigenbases.

    Each certificate gives h_i = V*diag(X_i)*V^(-1) with V invertible, so
    two Hamiltonians certified on the same V commute.  A failed
    certificate, or two different V, raises CrossCheckMismatch."""
    if h1.h_tilde.n != h2.h_tilde.n:
        raise ShapeMismatch("Hamiltonians have different orders")
    if h1.eigenbasis.V != h2.eigenbasis.V:
        raise CrossCheckMismatch("the Hamiltonians are not diagonal in one eigenbasis V")
