"""Closure relation and ladder operators, checked as tridiagonal identities
in the dual eigenbasis.

The three closure polynomials are the interpolants of degree <= N through
node data built from the X grid, by the library's one interpolation
(``poly.interpolate``, on cleared integers); each node value is then
checked exactly.

Everything else rests on the eigenbasis that the Hamiltonian certifies
(``DualHamiltonian.eigenbasis``): h_tilde*V = V*diag(X), the columns of V
the dual polynomials, and diag(Ebar)*V = V*T with T the dual Jacobi matrix
(T[n+1][n] = a_dual[n], T[n][n] = b_dual[n], T[n-1][n] = c_dual[n]).
Every operator built from h_tilde and diag(Ebar) then acts on V as V
times a tridiagonal matrix, and an identity between two such operators
holds iff the two tridiagonal matrices agree, entry for entry:

* closure: (LHS - RHS)*V = V*M, M tridiagonal in T, X and the closure
  polynomials on the spectrum, so the identity is 3(N+1) scalar
  identities;
* ladder: a+*V and a-*V are V times tridiagonal matrices whose columns
  must be a_dual[n]*e_(n+1) and c_dual[n]*e_(n-1).

A passing run takes no dense product beyond the Hamiltonian's h_tilde*V.
A failing closure residual is mapped back to LHS - RHS = V*M*V^(-1), and
``build_ladder`` returns the explicit operator matrices, both with the
Hamiltonian's certified closed-form inverse (``DualHamiltonian.vinv``).
Every mismatch raises CrossCheckMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import rat
from .dualsystem import DualHamiltonian
from .errors import CrossCheckMismatch, SingularR0
from .linalg import SquareMatrix
from .poly import Poly, interpolate


@dataclass
class ClosureTriple:
    R0: Poly
    R1: Poly
    Rm1: Poly
    r0_vanishes_at_zero: bool


def solve_closure(h: DualHamiltonian) -> ClosureTriple:
    """R0, R1 and Rm1 as the interpolants of degree <= N through their node
    data on the spectrum; each node value and the discriminant identity
    R1^2 + 4*R0 = (X(j+1) - X(j-1))^2 are then checked exactly."""
    X = h.x_grid
    nodes = h.energies
    b_dual = h.dual.b_dual

    beta0 = [(X[j + 1] - X[j]) * (X[j] - X[j - 1]) for j in range(len(nodes))]
    beta1 = [X[j + 1] - 2 * X[j] + X[j - 1] for j in range(len(nodes))]
    betam1 = [-b0 * b_dual[j] for j, b0 in enumerate(beta0)]
    r0, r1, rm1 = (interpolate(nodes, beta) for beta in (beta0, beta1, betam1))

    for j, (v0, v1, vm1) in enumerate(zip(r0.values(nodes), r1.values(nodes), rm1.values(nodes))):
        if not (v0 == beta0[j] and v1 == beta1[j] and vm1 == betam1[j]):
            raise CrossCheckMismatch(f"closure polynomials miss their node data at j={j}")
        if v1 ** 2 + 4 * v0 != (X[j + 1] - X[j - 1]) ** 2:
            raise CrossCheckMismatch(f"R1^2 + 4*R0 is not the squared node gap at j={j}")

    return ClosureTriple(R0=r0, R1=r1, Rm1=rm1, r0_vanishes_at_zero=(r0(rat(0)) == 0))


# A tridiagonal matrix B is held as its columns (B[n-1][n], B[n][n],
# B[n+1][n]); the two entries that fall outside the matrix are zero.


def _clip(cols: list) -> list:
    """Zero the entries of the first and last column outside the matrix."""
    cols[0] = (0,) + tuple(cols[0][1:])
    cols[-1] = tuple(cols[-1][:2]) + (0,)
    return cols


def _v_times(v: SquareMatrix, cols: list) -> SquareMatrix:
    """V*B for B tridiagonal: three terms per entry, no dense product."""
    last = v.n - 1
    return SquareMatrix([
        [
            (row[n - 1] * lo if n else 0) + row[n] * mid + (row[n + 1] * hi if n < last else 0)
            for n, (lo, mid, hi) in enumerate(cols)
        ]
        for row in v.rows
    ])


def verify_closure(h: DualHamiltonian, c: ClosureTriple) -> list:
    """Nonzero entries (i, j, r) of the residual LHS - RHS of the
    double-commutator identity, in row-major order; empty = pass.

    In the certified eigenbasis (LHS - RHS)*V = V*M, with M tridiagonal:

        M[m][n] = T[m][n]*((X_m - X_n)^2 - (X_m - X_n)*R1(X_n) - R0(X_n)), m = n+-1,
        M[n][n] = -b_dual[n]*R0(X_n) - Rm1(X_n).

    The triple's own polynomials are evaluated once on the spectrum.  A
    nonzero M is mapped back to LHS - RHS = V*M*V^(-1).
    """
    d = h.eigenbasis
    X = h.energies
    last = len(X) - 1
    cols = []
    spectrum = zip(d.jacobi(), X, c.R0.values(X), c.R1.values(X), c.Rm1.values(X))
    for n, ((lo, mid, hi), x, r0, r1, rm1) in enumerate(spectrum):
        lo_gap = X[n - 1] - x if n else 0
        hi_gap = X[n + 1] - x if n < last else 0
        cols.append((
            lo * (lo_gap * lo_gap - lo_gap * r1 - r0),
            -mid * r0 - rm1,
            hi * (hi_gap * hi_gap - hi_gap * r1 - r0),
        ))
    if all(v == 0 for col in cols for v in col):
        return []
    return (_v_times(d.V, cols) @ h.vinv).nonzero_entries()


@dataclass
class LadderPair:
    a_plus: SquareMatrix
    a_minus: SquareMatrix


def _ladder_corr(h: DualHamiltonian, c: ClosureTriple) -> list:
    """corr = Rm1/R0 on the spectrum; -corr must reproduce b_dual."""
    X = h.energies
    r0_vals = c.R0.values(X)
    if any(v == 0 for v in r0_vals):
        raise SingularR0("R0 vanishes on the spectrum (degenerate seed with Y(0)=0)")
    corr = [rm1 / r0 for rm1, r0 in zip(c.Rm1.values(X), r0_vals)]
    for n, b in enumerate(h.dual.b_dual):
        if -corr[n] != b:
            raise CrossCheckMismatch(f"-Rm1/R0 differs from dual coefficient at n={n}")
    return corr


def _ladder_columns(h: DualHamiltonian, corr: list, step: int, sign: int) -> list:
    """The tridiagonal B with a*V = V*B for one ladder operator.

    a = ([h,Ebar] - (Ebar + corr(h))*alpha(h)) * sign*gap_inv(h), with
    alpha(n) = X[n+step] - X[n] and gap(n) = X[n+1] - X[n-1].  Since
    [h,Ebar]*V = V*(diag(X)*T - T*diag(X)), column n of B is
    (T[m][n]*(X_m - X[n+step]) - [m=n]*corr_n*alpha_n) * sign/gap_n.
    """
    X = h.x_grid
    last = len(corr) - 1
    cols = []
    for n, (lo, mid, hi) in enumerate(h.dual.jacobi()):
        shifted = X[n + step]
        g = sign / (X[n + 1] - X[n - 1])
        cols.append((
            lo * (X[n - 1] - shifted) * g if n else 0,
            (mid * (X[n] - shifted) - corr[n] * (shifted - X[n])) * g,
            hi * (X[n + 1] - shifted) * g if n < last else 0,
        ))
    return cols


def build_ladder(h: DualHamiltonian, c: ClosureTriple) -> LadderPair:
    """The creation and annihilation operators as explicit matrices,
    a = V*B*V^(-1) with B from ``_ladder_columns``."""
    V = h.eigenbasis.V
    corr = _ladder_corr(h, c)
    vinv = h.vinv
    return LadderPair(
        a_plus=_v_times(V, _ladder_columns(h, corr, -1, 1)) @ vinv,
        a_minus=_v_times(V, _ladder_columns(h, corr, 1, -1)) @ vinv,
    )


def verify_ladder(h: DualHamiltonian, c: ClosureTriple) -> list:
    """Exact check of both ladder actions on every eigenvector column.

    Column n of a+*V must be a_dual[n] times column n+1 of V, and column n
    of a-*V must be c_dual[n] times column n-1; each is zero at the edge.
    With a*V = V*B and V invertible, that is column n of B against
    a_dual[n]*e_(n+1) (plus) or c_dual[n]*e_(n-1) (minus).  Returns the
    failing ("plus", n) / ("minus", n) in column order; empty = pass.
    """
    d = h.eigenbasis
    corr = _ladder_corr(h, c)
    actions = (
        ("plus", _ladder_columns(h, corr, -1, 1), _clip([(0, 0, a) for a in d.a_dual])),
        ("minus", _ladder_columns(h, corr, 1, -1), _clip([(cd, 0, 0) for cd in d.c_dual])),
    )
    return [
        (name, n)
        for n in range(len(d.b_dual))
        for name, got, expect in actions
        if got[n] != expect[n]
    ]
