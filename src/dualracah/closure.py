"""Closure relation and ladder operators, certified in the dual eigenbasis.

The three closure polynomials are the interpolants of degree <= N through
node data built from the X grid (``closure_nodes``), by one call of the
library's one interpolation (``poly.interpolate``, three rows on cleared
integers), which certifies each at its nodes.  At X_n, with A = X_n -
X_(n-1) and G = X_(n+1) - X_n, the node data are R0 = A*G, R1 = G - A and
Rm1 = -b_dual[n]*R0.  The checks read the node data alone (R0's are its
values on the spectrum), so only the closure suite, which prints the
polynomials, solves for them.

Everything else rests on the eigenbasis: h_tilde*V = V*diag(X), the
columns of V the dual polynomials (the r-table's grid certificate), and
diag(Ebar)*V = V*T with T the dual Jacobi matrix (T[n+1][n] = a_dual[n],
T[n][n] = b_dual[n], T[n-1][n] = c_dual[n]), which the Hamiltonian
certifies (``DualHamiltonian.eigenbasis``).
Every operator built from h_tilde and diag(Ebar) then acts on V as V
times a tridiagonal matrix, V is invertible, and the node data make both
identities hold for any T and any increasing X:

* closure: (LHS - RHS)*V = V*M, where M[n+-1][n] is T[n+-1][n] times
  g^2 - R1*g - R0 at g = X_(n+-1) - X_n and M[n][n] = -b_dual[n]*R0 - Rm1,
  the polynomials read at X_n.  By Vieta's formulas -A and G are the
  roots of that quadratic, and g is one of them; Rm1 = -b_dual*R0 makes
  the diagonal zero.  So M = 0.
* ladder: a+*V = V*B, column n of B being T[m][n]*(X_m - X_(n-1))/
  (X_(n+1) - X_(n-1)) at m = n+-1 and zero on the diagonal (again
  Rm1 = -b_dual*R0), that is a_dual[n]*e_(n+1); likewise a-*V, with
  X_(n+1) and the sign reversed, gives c_dual[n]*e_(n-1).

What is left to certify is the dual recurrence, that the triple was solved
on this Hamiltonian's spectrum and, for the ladder operators, which divide
by R0, that R0 does not vanish there.  ``verify_closure`` and
``verify_ladder`` certify that much and raise otherwise; M and B are test
oracles (``tests/comparators.py``).
"""

from __future__ import annotations

from typing import NamedTuple

from .dualsystem import DualHamiltonian
from .errors import CrossCheckMismatch, SingularR0
from .poly import Poly, interpolate


class ClosureNodes(NamedTuple):
    nodes: tuple           # the spectrum X(0..N)
    r0_on_spectrum: tuple  # node data of R0, R1 and Rm1: R0 at each node
    r1_on_spectrum: tuple
    rm1_on_spectrum: tuple


class ClosureTriple(NamedTuple):
    R0: Poly
    R1: Poly
    Rm1: Poly
    data: ClosureNodes  # the node data the triple was solved for

    @property
    def r0_vanishes_at_zero(self) -> bool:
        return self.R0[0] == 0


def closure_nodes(h: DualHamiltonian) -> ClosureNodes:
    """The node data of R0, R1 and Rm1 on h's spectrum, from its X grid."""
    X = h.x_grid
    b_dual = h.dual.b_dual
    beta0 = [(X[j + 1] - X[j]) * (X[j] - X[j - 1]) for j in range(len(h.energies))]
    beta1 = [X[j + 1] - 2 * X[j] + X[j - 1] for j in range(len(h.energies))]
    betam1 = [-b0 * b_dual[j] for j, b0 in enumerate(beta0)]
    return ClosureNodes(h.energies, tuple(beta0), tuple(beta1), tuple(betam1))


def solve_closure(h: DualHamiltonian) -> ClosureTriple:
    """R0, R1 and Rm1 as the interpolants of degree <= N through their node
    data on h's spectrum (``closure_nodes``), by one ``interpolate`` of the
    three rows, which certifies every node; R0's node data are then its
    values on the spectrum."""
    d = closure_nodes(h)
    polys = interpolate(d.nodes, d.r0_on_spectrum, d.r1_on_spectrum, d.rm1_on_spectrum)
    return ClosureTriple(*polys, d)


def verify_closure(h: DualHamiltonian, c: ClosureNodes) -> None:
    """Certify the closure relation: h's eigenbasis, then that the node
    data c were built on h's spectrum; CrossCheckMismatch otherwise."""
    h.eigenbasis  # raises unless certified
    if c.nodes != h.energies:
        raise CrossCheckMismatch("closure triple was solved on another spectrum")


def verify_ladder(h: DualHamiltonian, c: ClosureNodes) -> None:
    """Certify both ladder actions: what ``verify_closure`` certifies, then
    R0 != 0 on the spectrum (SingularR0 otherwise).  R0 is the product of
    the two gaps at each node and X increases strictly on 0..N, so only an
    edge gap can vanish: X(-1) = X(0) for a seed with Y(0) = 0, and
    X(N+1) > X(N) is not certified."""
    verify_closure(h, c)
    if 0 in c.r0_on_spectrum:
        raise SingularR0("R0 vanishes on the spectrum (degenerate seed with Y(0)=0)")
