"""Dual polynomial tables and the band-diagonal dual Hamiltonians.

Duality swaps the grid variable and the polynomial label.  The dual table
is filled by the ratio definition and independently re-derived through the
dual three-term recurrence; the Hamiltonians are verified against their
full polynomial eigenbasis with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import mpmath

from .bigreal import big_sqrt, to_real
from .errors import (
    CrossCheckMismatch,
    ShapeMismatch,
    SymmetryViolation,
    ZeroDenominator,
)
from .linalg import SquareMatrix, gram_residuals
from .multiindexed import MISystem
from .params import energy
from .recurrence import RecTable, XPoly


@dataclass
class DualTable:
    """q_vals[x][n] is the dual value at grid point x, label n."""

    q_vals: Tuple[tuple, ...]
    a_dual: Tuple      # upper recurrence coefficients, vanish at x=N
    b_dual: Tuple
    c_dual: Tuple      # lower recurrence coefficients, vanish at x=0


def dual_values(s: MISystem) -> DualTable:
    N = s.params.N
    for x in range(N + 1):
        if s.pdn_grid[0][x] == 0:
            raise ZeroDenominator(f"ground-state polynomial vanishes at x={x}")
    q_vals = [
        tuple(s.pdn_grid[n][x] / s.pdn_grid[0][x] for n in range(N + 1))
        for x in range(N + 1)
    ]
    a_dual = tuple(-s.bd(x) for x in range(N + 1))
    c_dual = tuple(-s.dd(x) for x in range(N + 1))
    b_dual = tuple(-a - c for a, c in zip(a_dual, c_dual))
    if a_dual[N] != 0 or c_dual[0] != 0:
        raise CrossCheckMismatch("dual recurrence coefficients do not vanish at the edges")

    # independent route: dual three-term recurrence in x
    for n in range(N + 1):
        en = energy(n, s.params)
        prev, cur = 0, q_vals[0][0] * 0 + 1
        for x in range(N + 1):
            if q_vals[x][n] != cur:
                raise CrossCheckMismatch(f"dual recurrence differs at (x,n)=({x},{n})")
            if x < N:
                nxt = (en * cur - b_dual[x] * cur - c_dual[x] * prev) / a_dual[x]
                prev, cur = cur, nxt
    return DualTable(q_vals=tuple(q_vals), a_dual=a_dual, b_dual=b_dual, c_dual=c_dual)


def dual_ortho(s: MISystem, t: DualTable) -> list:
    """Exact residuals of the dual orthogonality sums; empty = pass."""
    N = s.params.N
    xi1 = s.xi_grid[1]
    dual_w = [s.dDn_sq[n] / xi1 for n in range(N + 1)]
    # squared dual norm: (Xi(1) * weight * ground value^2)^(-1)
    norms = [1 / (xi1 * s.weights[x] * s.pdn_grid[0][x] ** 2) for x in range(N + 1)]
    return gram_residuals(t.q_vals, dual_w, norms)


@dataclass
class DualHamiltonian:
    h_tilde: SquareMatrix
    h_sym: SquareMatrix
    energies: Tuple          # eigenvalues X(n), strictly increasing
    V: SquareMatrix          # columns are polynomial eigenvectors
    dDn_sq: Tuple
    ground_weight: Tuple     # w_x * P_0(x)^2: with dDn_sq, the closed-form V^(-1)
    L: int
    ebar: Tuple              # dual sinusoidal coordinate: base energies E_x
    x_grid: dict             # X values on the extended range -1..N+1
    dual: "DualTable"
    # h_tilde*V and certified eigenbasis data, filled lazily
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def hv(self) -> SquareMatrix:
        """h_tilde*V, one dense product shared by every eigen-check."""
        if "hV" not in self.cache:
            self.cache["hV"] = self.h_tilde @ self.V
        return self.cache["hV"]


def build_hamiltonians(
    s: MISystem, xp: XPoly, t: RecTable, dual: DualTable, precision: int = 256
) -> DualHamiltonian:
    N, L = s.params.N, xp.L
    n1 = N + 1
    rows = [[t.r.get((x, y - x), 0) for y in range(n1)] for x in range(n1)]
    h_tilde = SquareMatrix(rows)

    # exact symmetry: the similarity-scaled entries square to the product of
    # the two mirror-image band entries
    sym_rows = [[to_real(0, precision)] * n1 for _ in range(n1)]
    with mpmath.workprec(precision):
        for x in range(n1):
            for y in range(n1):
                r = h_tilde[x, y]
                if x == y or r == 0:
                    sym_rows[x][y] = to_real(r, precision)
                    continue
                mirror = h_tilde[y, x]
                ratio = s.dDn_sq[x] / s.dDn_sq[y]
                if r * r * ratio != r * mirror:
                    raise SymmetryViolation(f"band symmetry broken at ({x},{y})")
                # r*mirror = r^2*ratio, so a negative mirror product is a
                # negative ratio, which big_sqrt rejects (NegativeRadicand)
                sym_rows[x][y] = to_real(r, precision) * big_sqrt(ratio, precision)
    h_sym = SquareMatrix(sym_rows, kind="real", prec=precision)

    energies = tuple(xp.grid[n] for n in range(n1))
    v_rows = [[dual.q_vals[n][x] for n in range(n1)] for x in range(n1)]
    V = SquareMatrix(v_rows)
    return DualHamiltonian(
        h_tilde=h_tilde, h_sym=h_sym, energies=energies, V=V,
        dDn_sq=s.dDn_sq,
        ground_weight=tuple(s.weights[x] * s.pdn_grid[0][x] ** 2 for x in range(n1)),
        L=L,
        ebar=tuple(energy(x, s.params) for x in range(n1)),
        x_grid=dict(xp.grid),
        dual=dual,
    )


def verify_spectrum(h: DualHamiltonian) -> list:
    """Exact eigen-check h_tilde*V = V*diag(energies); empty = pass."""
    n1 = h.h_tilde.n
    failures = []
    diff = h.hv() - h.V.scale_cols(h.energies)
    failures.extend(("eigen", i, j) for i, j, _ in diff.nonzero_entries())
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
