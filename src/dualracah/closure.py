"""Closure relation and ladder operators, checked as tridiagonal identities
in the dual eigenbasis.

The three closure polynomials are the interpolants of degree <= N through
node data built from the X grid, by the library's one interpolation
(``poly.interpolate``, on cleared integers), which certifies each at its
nodes; the triple keeps that node data as its values on the spectrum it
was solved on (``ClosureTriple.on_spectrum``).  The closure and ladder
checks read them and refuse a Hamiltonian with another spectrum.

Everything else rests on the eigenbasis that the Hamiltonian certifies
(``DualHamiltonian.eigenbasis``): h_tilde*V = V*diag(X), the columns of V
the dual polynomials, and diag(Ebar)*V = V*T with T the dual Jacobi matrix
(T[n+1][n] = a_dual[n], T[n][n] = b_dual[n], T[n-1][n] = c_dual[n]).
Every operator built from h_tilde and diag(Ebar) then acts on V as V
times a tridiagonal matrix, and, V being invertible, an identity between
two such operators holds iff the two tridiagonal matrices agree, entry
for entry:

* closure: (LHS - RHS)*V = V*M, M tridiagonal in T, X and the closure
  polynomials on the spectrum, so the identity is 3(N+1) scalar
  identities, and a failing check lists the nonzero entries of M;
* ladder: a+*V and a-*V are V times tridiagonal matrices, zero on the
  diagonal, whose columns must be a_dual[n]*e_(n+1) and c_dual[n]*e_(n-1).

Neither check builds a matrix or takes a dense product, on a pass or on a
failure.  Every mismatch raises CrossCheckMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dualsystem import DualHamiltonian, DualTable
from .errors import CrossCheckMismatch, SingularR0
from .poly import Poly, interpolate


@dataclass
class ClosureTriple:
    R0: Poly
    R1: Poly
    Rm1: Poly
    nodes: tuple        # the spectrum X(0..N) the triple was solved on
    on_spectrum: tuple  # (R0, R1, Rm1) at each node: the node data

    @property
    def r0_vanishes_at_zero(self) -> bool:
        return self.R0[0] == 0


def solve_closure(h: DualHamiltonian) -> ClosureTriple:
    """R0, R1 and Rm1 as the interpolants of degree <= N through their node
    data on the spectrum, which ``interpolate`` certifies at every node; the
    node data are then the triple's values on the spectrum."""
    X = h.x_grid
    nodes = h.energies
    b_dual = h.dual.b_dual

    beta0 = [(X[j + 1] - X[j]) * (X[j] - X[j - 1]) for j in range(len(nodes))]
    beta1 = [X[j + 1] - 2 * X[j] + X[j - 1] for j in range(len(nodes))]
    betam1 = [-b0 * b_dual[j] for j, b0 in enumerate(beta0)]
    polys = [interpolate(nodes, beta) for beta in (beta0, beta1, betam1)]
    return ClosureTriple(*polys, nodes, tuple(zip(beta0, beta1, betam1)))


def _eigenbasis(h: DualHamiltonian, c: ClosureTriple) -> DualTable:
    """h's certified eigenbasis, once c is known to be solved on h's spectrum."""
    d = h.eigenbasis
    if c.nodes != h.energies:
        raise CrossCheckMismatch("closure triple was solved on another spectrum")
    return d


def verify_closure(h: DualHamiltonian, c: ClosureTriple) -> list:
    """Nonzero entries (m, n, r) of the tridiagonal M with (LHS - RHS)*V =
    V*M for the double-commutator identity, in row-major order, |m - n| <= 1;
    empty = pass.  V is certified invertible, so M = 0 iff LHS = RHS.

    Column n of M, with T held as its columns (``DualTable.jacobi``):

        M[m][n] = T[m][n]*((X_m - X_n)^2 - (X_m - X_n)*R1(X_n) - R0(X_n)), m = n+-1,
        M[n][n] = -b_dual[n]*R0(X_n) - Rm1(X_n).

    The triple's values on the spectrum are its node data.
    """
    d = _eigenbasis(h, c)
    X = h.x_grid
    entries = []
    for n, ((lo, mid, hi), (r0, r1, rm1)) in enumerate(zip(d.jacobi(), c.on_spectrum)):
        lo_gap, hi_gap = X[n - 1] - X[n], X[n + 1] - X[n]
        col = (
            lo * (lo_gap * lo_gap - lo_gap * r1 - r0),
            -mid * r0 - rm1,
            hi * (hi_gap * hi_gap - hi_gap * r1 - r0),
        )
        entries += [(m, n, r) for m, r in zip((n - 1, n, n + 1), col) if r != 0]
    return sorted(entries, key=lambda e: e[:2])


def _ladder_columns(h: DualHamiltonian, step: int, sign: int) -> list:
    """The tridiagonal B with a*V = V*B for one ladder operator.

    a = ([h,Ebar] - (Ebar + corr(h))*alpha(h)) * sign*gap_inv(h), with
    alpha(n) = X[n+step] - X[n] and gap(n) = X[n+1] - X[n-1].  Since
    [h,Ebar]*V = V*(diag(X)*T - T*diag(X)), column n of B is
    (T[m][n]*(X_m - X[n+step]) - [m=n]*corr_n*alpha_n) * sign/gap_n, whose
    diagonal is zero: the node data of ``solve_closure`` give corr = -b_dual
    (betam1 = -beta0*b_dual), the diagonal entry ``verify_closure`` checks.
    """
    X = h.x_grid
    cols = []
    for n, (lo, _, hi) in enumerate(h.dual.jacobi()):
        shifted = X[n + step]
        g = sign / (X[n + 1] - X[n - 1])
        cols.append((lo * (X[n - 1] - shifted) * g, 0, hi * (X[n + 1] - shifted) * g))
    return cols


def verify_ladder(h: DualHamiltonian, c: ClosureTriple) -> list:
    """Exact check of both ladder actions on every eigenvector column.

    Column n of a+*V must be a_dual[n] times column n+1 of V, and column n
    of a-*V must be c_dual[n] times column n-1; each is zero at the edge.
    With a*V = V*B and V invertible, that is column n of B against
    a_dual[n]*e_(n+1) (plus) or c_dual[n]*e_(n-1) (minus).  Returns the
    failing ("plus", n) / ("minus", n) in column order; empty = pass.
    corr = Rm1/R0 on the spectrum needs R0 nonzero there.
    """
    T = _eigenbasis(h, c).jacobi()
    if any(r0 == 0 for r0, _, _ in c.on_spectrum):
        raise SingularR0("R0 vanishes on the spectrum (degenerate seed with Y(0)=0)")
    actions = (
        ("plus", _ladder_columns(h, -1, 1), [(0, 0, hi) for _, _, hi in T]),
        ("minus", _ladder_columns(h, 1, -1), [(lo, 0, 0) for lo, _, _ in T]),
    )
    return [
        (name, n)
        for n in range(len(T))
        for name, got, expect in actions
        if got[n] != expect[n]
    ]
