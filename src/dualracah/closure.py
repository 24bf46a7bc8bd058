"""Closure relation and ladder operators, worked in the dual eigenbasis.

The three closure polynomials are the interpolants of degree <= N through
node data built from the X grid, by the library's one interpolation
(``poly.interpolate``, Newton divided differences); each node value is
then checked exactly.  The dual polynomials are the eigenvectors of the
Hamiltonian, h_tilde*V = V*diag(X), and dual orthogonality gives the inverse
in closed form, V^(-1) = diag(ground_weight)*V^T*diag(dDn_sq).  So every
polynomial in h_tilde is a diagonal scaling in that basis: the
double-commutator identity is checked as an exact matrix equation after
multiplying it by V (two dense products), each ladder operator is
assembled with one product by V^(-1) (the square roots hidden in the
half-difference functions are rational on the spectrum), and each ladder
action is checked on all eigenvectors at once with one product by V.  Both
facts the route rests on are certified exactly before use, h_tilde*V =
V*diag(X) and V*V^(-1) = I; either mismatch raises CrossCheckMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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

    for j, z in enumerate(nodes):
        if not (r0(z) == beta0[j] and r1(z) == beta1[j] and rm1(z) == betam1[j]):
            raise CrossCheckMismatch(f"closure polynomials miss their node data at j={j}")
        if r1(z) ** 2 + 4 * r0(z) != (X[j + 1] - X[j - 1]) ** 2:
            raise CrossCheckMismatch(f"R1^2 + 4*R0 is not the squared node gap at j={j}")

    return ClosureTriple(R0=r0, R1=r1, Rm1=rm1, r0_vanishes_at_zero=(r0(rat(0)) == 0))


def eigen_inverse(h: DualHamiltonian) -> SquareMatrix:
    """V^(-1) = diag(ground_weight)*V^T*diag(dDn_sq), the dual orthogonality
    relation; certified V*V^(-1) = I once and cached on h."""
    if "vinv" not in h.cache:
        vinv = h.V.transpose().scale_rows(h.ground_weight).scale_cols(h.dDn_sq)
        if h.V @ vinv != SquareMatrix.identity(h.V.n):
            raise CrossCheckMismatch("closed-form inverse fails V*V^(-1) = I")
        h.cache["vinv"] = vinv
    return h.cache["vinv"]


def _eigen_products(h: DualHamiltonian) -> Tuple[SquareMatrix, SquareMatrix]:
    """(W, h_tilde*W) with W = diag(ebar)*V, once h_tilde*V = V*diag(X) is
    certified; cached on h."""
    if "hW" not in h.cache:
        if not (h.hv() - h.V.scale_cols(h.energies)).is_zero():
            raise CrossCheckMismatch("h_tilde*V differs from V*diag(X)")
        w = h.V.scale_rows(h.ebar)
        h.cache["hW"] = (w, h.h_tilde @ w)
    return h.cache["hW"]


def verify_closure(h: DualHamiltonian, c: ClosureTriple) -> SquareMatrix:
    """Exact residual of the double-commutator identity (zero matrix = pass).

    With W = diag(ebar)*V, hW = h_tilde*W and h_tilde*V = V*diag(X), every
    R(h_tilde)*V is V*diag(R(X)), so

        (LHS - RHS)*V = h_tilde*hW - hW*diag(2X + R1(X))
                        + W*diag(X^2 - R0(X) + X*R1(X)) - V*diag(Rm1(X)).

    A non-zero result is mapped back by V^(-1), giving LHS - RHS itself.
    """
    X = h.energies
    vinv = eigen_inverse(h)
    w, hw = _eigen_products(h)
    r0 = [c.R0(x) for x in X]
    r1 = [c.R1(x) for x in X]
    diff = (
        h.h_tilde @ hw
        - hw.scale_cols([2 * x + b for x, b in zip(X, r1)])
        + w.scale_cols([x * x - a + x * b for x, a, b in zip(X, r0, r1)])
        - h.V.scale_cols([c.Rm1(x) for x in X])
    )
    return diff if diff.is_zero() else diff @ vinv


@dataclass
class LadderPair:
    a_plus: SquareMatrix
    a_minus: SquareMatrix


def build_ladder(h: DualHamiltonian, c: ClosureTriple) -> LadderPair:
    N = h.h_tilde.n - 1
    X = h.x_grid
    r0_vals = [c.R0(X[n]) for n in range(N + 1)]
    if any(v == 0 for v in r0_vals):
        raise SingularR0("R0 vanishes on the spectrum (degenerate seed with Y(0)=0)")

    # -Rm1/R0 on the spectrum must reproduce the middle dual coefficient
    corr = [c.Rm1(X[n]) / r0_vals[n] for n in range(N + 1)]
    for n in range(N + 1):
        if -corr[n] != h.dual.b_dual[n]:
            raise CrossCheckMismatch(f"-Rm1/R0 differs from dual coefficient at n={n}")

    vinv = eigen_inverse(h)
    w, hw = _eigen_products(h)

    def ladder(step: int, sign: int) -> SquareMatrix:
        # ([h,Ebar] - (Ebar + corr(h))*alpha(h)) * sign*gap_inv(h), with
        # alpha(n) = X[n+step] - X[n]; times V this is
        # [hW - W*diag(X[n+step]) - V*diag(corr*alpha)] * diag(sign*gap_inv)
        alpha = [X[n + step] - X[n] for n in range(N + 1)]
        bracket = (
            hw
            - w.scale_cols([X[n + step] for n in range(N + 1)])
            - h.V.scale_cols([k * a for k, a in zip(corr, alpha)])
        )
        gap_inv = [sign / (X[n + 1] - X[n - 1]) for n in range(N + 1)]
        return bracket.scale_cols(gap_inv) @ vinv

    return LadderPair(a_plus=ladder(-1, 1), a_minus=ladder(1, -1))


def verify_ladder(h: DualHamiltonian, lp: LadderPair) -> list:
    """Exact residuals of both ladder actions on every eigenvector column.

    Column n of a+*V must be a_dual[n] times column n+1 of V, and column n
    of a-*V must be c_dual[n] times column n-1; each is zero at the edge.
    """
    N = h.h_tilde.n - 1
    up, down = lp.a_plus @ h.V, lp.a_minus @ h.V
    zero = [0] * (N + 1)
    failures = []
    for n in range(N + 1):
        expect_up = [h.dual.a_dual[n] * v for v in h.V.column(n + 1)] if n < N else zero
        if up.column(n) != expect_up:
            failures.append(("plus", n))
        expect_dn = [h.dual.c_dual[n] * v for v in h.V.column(n - 1)] if n > 0 else zero
        if down.column(n) != expect_dn:
            failures.append(("minus", n))
    return failures
