"""Hand-expanded closed forms for small deformed systems.

Each entry gives the explicit sinusoidal-coordinate polynomial X(eta) (and,
for the two single-index cases with trivial seed, the full table of constant
recurrence coefficients) in a fixed traditional normalization.  They serve
as independent oracles for the antiderivative construction: the machine
route must reproduce them up to one global positive factor, which is pinned
down by matching the eta^1 coefficient.

Replaced library routes live here too, as oracles for the kernels that
replaced them: Newton divided differences for ``poly.interpolate``, one
full Gaussian elimination per matrix for ``linalg.LeadingElimination``,
and the rational eliminations that ``linalg.bordered_dets`` replaced on
exact tuples (``generic_det``, the whole matrix, and
``elimination_cofactors``, one recorded elimination reducing each unit
column), with the per-entry rational formulas of the potentials B and D
(``potential_per_entry``), which ``basefamily.potential`` forms from
integer pairs,
the per-entry Casoratian factors that ``multiindexed.GridTable`` forms
from pieces held once per table (``varphi_m``, ``rj_factor``,
``norm_const_cd``, ``dtn_sq_value``), the product form of each deformed
polynomial's leading coefficient that ``multiindexed.leading_pdn_table``
replaced by one ratio table (``leading_pdn``), and the dense semidefinite
factorization that ``shapeinv.factor_upper`` restricts to the band.  So
are the per-family Pochhammer helpers that ``basefamily.poch`` replaced,
with the closed forms written through them (``c_n``, ``leading_xi``, the
d_0^2 of ``dn_sq_table``, ``GridTable._rj_den``), and the shape-invariance
candidates with each family's shifts spelled out.  The
ring arithmetic that ``Poly`` no longer has is here as plain functions,
with the checks that ``linalg.eigen_misses`` replaced: the band
recurrence multiplied out as polynomials, the dense product h_tilde*V
against V*diag(X) and the dual recurrence V*T by three terms per entry.
The dense commutator h1*h2 - h2*h1 is here too, and the ``SquareMatrix``
sum, difference, diagonal scalings, transpose, zero test, identity and
list of nonzero entries, which the library no longer calls.  So is the
dual orthogonality with its weights and norms derived afresh from the
system, the route ``DualTable.ortho_residual`` replaced.

The closure relation and the ladder operators, which ``closure``
certifies through the dual eigenbasis and the node data alone, are here
in the two routes it replaced: as tridiagonal matrices in the dual
eigenbasis (the closure's M, listed entry by entry, and the ladder
operators' columns against a_dual and c_dual), and as explicit matrices
(the dense closure residual times V, both ladder operators by the dense
bracket and by spectral calculus, and the inverse of V by one exact solve
per column).  So are the closure node data built from the X grid, the
closure polynomials' values on the spectrum by ``Poly.values``, the route
that the certified node data (``ClosureNodes.r0_on_spectrum``) replaced,
and a triple with polynomials replaced whose values on the spectrum are
re-derived by that route.  For fault injection, ``replace`` copies any
record of the library with some fields changed, each cached property
formed afresh.

The float side of the q->1 check is here on mpf wrapper objects, the
routes that raw ``mpmath.libmp`` tuples replaced: the q-sum base columns
(``WrapperQSumColumns``, for ``qlimit.QSumColumns``) and the tables
through them, the reference table, the dual ratio tables and the gaps
(``wrapper_qlimit_gaps``, for ``qlimit.qlimit_check``), and the
conversions ``bigreal.to_real`` and ``bigreal.big_sqrt`` inside a working
precision per call.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import mpmath

from dualracah.basefamily import alpha_const, c_n, etilde_v, phi0_sq_table, potential
from dualracah.backend import rat
from dualracah.bigreal import big_sqrt, to_real
from dualracah.errors import (
    CrossCheckMismatch,
    DualRacahError,
    IndexOutOfRange,
    InadmissibleParams,
    NegativePivot,
    NegativeRadicand,
    ShapeMismatch,
    SingularMatrix,
    SingularR0,
    ZeroDenominator,
)
from dualracah.linalg import LeadingElimination, SquareMatrix, _cleared_int_rows, gram_residuals
from dualracah.multiindexed import GridTable, MISystem
from dualracah.params import QR, R, ParamSet, energy, factor, ipow, shift, twist
from dualracah.poly import Poly
from dualracah.recurrence import RecTable, XPoly

class UnknownExample(DualRacahError):
    """No closed form is registered under the requested name and family."""


#: canonical example identifiers
EXAMPLE_NAMES = (
    "R:{1}/1",
    "R:{2}/1",
    "R:{1,2}/1",
    "R:{1}/eta",
    "qR:{1}/1",
    "qR:{2}/1",
)


@dataclass
class ClosedFormExample:
    name: str
    family: str
    D: Tuple[int, ...]
    Y: Poly
    L: int
    x_poly: Poly                           # traditional normalization
    r_nk: Optional[Callable[[int, int], object]]  # same normalization, or None


def _sigmas(p: ParamSet):
    return p.a + p.b, p.a * p.b, p.c + p.d, p.c * p.d


def _r_example_r1(p: ParamSet) -> Poly:
    s1, s2, t1, t2 = _sigmas(p)
    c, d = p.c, p.d
    quad = -(2 - s1 + t1)
    lin = s1 * (2 * c + d + 2 * t2) - 2 * s2 * c - 2 * t1 - t2 * (5 + 2 * d) - d * d
    return Poly([d * 0, lin, quad])


def _r_table_r1(p: ParamSet) -> Callable[[int, int], object]:
    s1, s2, t1, t2 = _sigmas(p)
    a, b, c, d = p.a, p.b, p.c, p.d
    dt = p.dtilde
    lead = 2 - s1 + t1

    def r2(n):
        num = lead * (c + n) * (c + n + 3)
        num = num * poch(a + n, 2) * poch(b + n, 2) * poch(dt + n, 2)
        return -num / poch(dt + 2 * n, 4)

    def rm2(n):
        num = lead * (dt - c + n - 3) * (dt - c + n)
        num = num * poch(dt - a + n - 1, 2) * poch(dt - b + n - 1, 2) * poch(n - 1 + d * 0, 2)
        return -num / poch(dt + 2 * n - 3, 4)

    def r1(n):
        num = 2 * (a + n) * (b + n) * (c + n) * (c + n + 2) * (dt - c + n) * (dt + n)
        den = (dt + 2 * n + 3) * poch(dt + 2 * n - 1, 3)
        tail = -2 * lead * n * (n + dt + 1) + 2 * (1 - dt) * (1 + c - s2) + d * (1 - dt * dt)
        return -num / den * tail

    def rm1(n):
        num = 2 * n * (dt - a + n) * (dt - b + n) * (c + n) * (dt - c + n - 2) * (dt - c + n)
        den = (dt + 2 * n - 3) * poch(dt + 2 * n - 1, 3)
        tail = (
            -2 * lead * n * (n + dt - 1)
            + 2 * (1 + c - s2)
            + 2 * (s2 + c - dt) * dt
            + d * (1 - dt * dt)
        )
        return -num / den * tail

    table = {2: r2, 1: r1, -1: rm1, -2: rm2}

    def r(n, k):
        if k == 0:
            return -sum(table[j](n) + table[-j](n) for j in (1, 2))
        return table[k](n)

    return r


def _r_example_r2(p: ParamSet) -> Poly:
    s1, s2, _, _ = _sigmas(p)
    a, b, c, d = p.a, p.b, p.c, p.d
    t1 = c + d
    cubic = (s1 - t1 - 4) * (s1 - t1 - 3)
    quad = -(s1 - t1 - 3) * (
        3 * (1 + c) * (d - a) * (d - b)
        + 2 * (5 + 6 * c) * d
        - 2 * s1 * (2 + 3 * c)
        + 4
        + 10 * c
    )
    lin = (
        (3 * c * c + 6 * c + 2) * d * d * (d - s1) ** 2
        + (12 + 40 * c + 21 * c * c) * d ** 3
        + (22 + 88 * c + 50 * c * c - s1 * (16 + 55 * c + 30 * c * c) + s2 * (3 + 9 * c + 6 * c * c)) * d * d
        + (
            12 + 70 * c + 46 * c * c
            - s1 * (16 + 71 * c + 45 * c * c)
            + s1 * s1 * (4 + 15 * c + 9 * c * c)
            + 3 * s2 * (3 + 10 * c + 7 * c * c)
            - 3 * s1 * s2 * (1 + c) * (1 + 2 * c)
        ) * d
        + 3 * (a - 2) * (a - 1) * (b - 2) * (b - 1) * c * (c + 1)
    )
    return Poly([d * 0, lin, quad, cubic])


def _r_example_r12(p: ParamSet) -> Poly:
    s1, s2, _, _ = _sigmas(p)
    c, d = p.c, p.d
    t1 = c + d
    cubic = (s1 - t1 - 3) * (s1 - t1 - 2)
    quad = -(s1 - t1 - 3) * (
        3 * (1 + c) * d * (d - s1)
        + (7 + 9 * c) * d
        + 2
        + 4 * c
        - s1
        - 3 * c * (s1 - s2)
    )
    lin = (
        (2 + 6 * c + 3 * c * c) * d * d * (d - s1) ** 2
        + (12 + 40 * c + 21 * c * c) * d ** 3
        + (22 + 89 * c + 50 * c * c - s1 * (14 + 55 * c + 30 * c * c) + 3 * s2 * c * (3 + 2 * c)) * d * d
        + (
            12 + 76 * c + 47 * c * c
            - s1 * (10 + 73 * c + 45 * c * c)
            + s1 * s1 * (2 + 15 * c + 9 * c * c)
            - 3 * s1 * s2 * c * (3 + 2 * c)
            + 3 * s2 * c * (10 + 7 * c)
        ) * d
        - 3 * (s1 - s2 - 1) * c * (7 + 5 * c - s1 * (3 + 2 * c) + s2 * (1 + c))
    )
    return Poly([d * 0, lin, quad, cubic])


def _r_example_r1_eta(p: ParamSet) -> Poly:
    s1, s2, t1, _ = _sigmas(p)
    c, d = p.c, p.d
    cubic = -2 * (t1 - s1 + 2)
    quad = -(
        3 * d * (1 + c) * (d - s1)
        + (5 + 9 * c) * d
        - 2
        + 2 * c
        + s1
        + 3 * c * (s2 - s1)
    )
    lin = -d * (
        d * (1 + 3 * c) * (d - s1)
        + (1 + 7 * c) * d
        - 2
        + 2 * c
        + s1
        + 3 * c * (s2 - s1)
    )
    return Poly([d * 0, lin, quad, cubic])


def _qr_example_q1(p: ParamSet) -> Poly:
    s1, s2, t1, t2 = _sigmas(p)
    c, d, q = p.c, p.d, p.q
    s2i = 1 / s2
    quad = -(1 - s2i * t2 * q * q)
    lin = -(
        s2i * q * q * (1 + q - 2 * c * q) * d * d
        - s2i * (s1 * q * (1 + q) * (1 - c) + (1 - q) * (s2 + c * q * q)) * d
        + 2
        - c * (1 + q)
    )
    return Poly([d * 0, lin, quad])


def _qr_table_q1(p: ParamSet) -> Callable[[int, int], object]:
    s1, s2, t1, t2 = _sigmas(p)
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    dt = p.dtilde
    lead = 1 - t2 * q * q / s2

    def r2(n):
        qn = ipow(q, n)
        num = lead * (1 - c * qn) * (1 - c * qn * q ** 3)
        num = num * qpoch(a * qn, 2, q) * qpoch(b * qn, 2, q) * qpoch(dt * qn, 2, q)
        return -num / qpoch(dt * ipow(q, 2 * n), 4, q)

    def rm2(n):
        qn = ipow(q, n)
        num = d * d * q * q * lead
        num = num * (1 - dt / c * qn * ipow(q, -3)) * (1 - dt / c * qn)
        num = num * qpoch(dt / a * qn / q, 2, q) * qpoch(dt / b * qn / q, 2, q)
        num = num * qpoch(qn / q, 2, q)
        return -num / qpoch(dt * ipow(q, 2 * n - 3), 4, q)

    # the bracketed factor shared by the two inner-band coefficients
    front = s2 * t1 + s1 * (1 - c) * d * q - t1 * d * q * q
    swing = (q + 1 / q) * d * (s1 * s2 * c + s2 * (1 - c) * t1 * q - s1 * t2 * q * q)

    def r1(n):
        qn = ipow(q, n)
        num = (1 + q) * (1 - a * qn) * (1 - b * qn) * (1 - c * qn) * (1 - c * qn * q * q)
        num = num * (1 - dt / c * qn) * (1 - dt * qn)
        den = s2 * d * (1 - dt * ipow(q, 2 * n + 3)) * qpoch(dt * ipow(q, 2 * n - 1), 3, q)
        tail = -front * (s2 * c * ipow(q, 2 * n) + d) + swing * qn
        return -num / den * tail

    def rm1(n):
        qn = ipow(q, n)
        num = (1 + q) * (1 - qn) * (1 - dt / a * qn) * (1 - dt / b * qn) * (1 - c * qn)
        num = num * (1 - dt / c * qn * ipow(q, -2)) * (1 - dt / c * qn)
        den = s2 * (1 - dt * ipow(q, 2 * n - 3)) * qpoch(dt * ipow(q, 2 * n - 1), 3, q)
        tail = -front * (s2 * c * ipow(q, 2 * n - 1) + d * q) + swing * qn
        return -num / den * tail

    table = {2: r2, 1: r1, -1: rm1, -2: rm2}

    def r(n, k):
        if k == 0:
            return -sum(table[j](n) + table[-j](n) for j in (1, 2))
        return table[k](n)

    return r


def _qr_example_q2(p: ParamSet) -> Poly:
    s1, s2, _, _ = _sigmas(p)
    c, d, q = p.c, p.d, p.q
    q2, q3 = q * q, q ** 3
    cubic = (s2 - c * d * q3) * (s2 - c * d * q3 * q)
    quad = (s2 - c * d * q3) * (
        (1 + q + q2) * (q3 * d * d - q * (1 - c * q) * s1 * d - c * s2)
        - 3 * c * q ** 5 * d * d
        - (1 - q) ** 2 * (s2 - c * q3) * d
        + 3 * s2
    )
    lin = (
        (1 + q + q2)
        * (
            q ** 6 * (1 - 2 * c * q) * d ** 4
            - q3 * (q * (1 - c * q) * (1 + q - 2 * c * q) * s1 + (1 - q) * (s2 + c * q3)) * d ** 3
            + q
            * (
                q2 * (1 - c) * (1 - c * q) * s1 * s1
                + (1 - q) * (1 - c * q) * (s2 + c * q3) * s1
                + q * (1 + q) * (1 + c * c * q2) * s2
            )
            * d * d
            - (q * (1 - c * q) * (2 - (1 + q) * c) * s1 - (1 - q) * (s2 + q3 * c) * c) * s2 * d
            - (2 - c * q) * c * s2 * s2
        )
        + 3 * q ** 9 * c * c * d ** 4
        + q ** 4 * (1 - q) * ((2 + q) * s2 + q2 * (1 + 2 * q2) * c) * c * d ** 3
        - q * ((1 - q) ** 2 * (s2 * s2 + q ** 5 * c * c) + q * (1 + q) * (1 + 4 * q2 + q ** 4) * c * s2) * d * d
        - s2 * (1 - q) * ((2 + q2) * s2 + q3 * (1 + 2 * q) * c) * d
        + 3 * s2 * s2
    )
    return Poly([d * 0, lin, quad, cubic])


_REGISTRY = {
    "R:{1}/1": (R, (1,), Poly([1]), 2, _r_example_r1, _r_table_r1),
    "R:{2}/1": (R, (2,), Poly([1]), 3, _r_example_r2, None),
    "R:{1,2}/1": (R, (1, 2), Poly([1]), 3, _r_example_r12, None),
    "R:{1}/eta": (R, (1,), Poly([0, 1]), 3, _r_example_r1_eta, None),
    "qR:{1}/1": (QR, (1,), Poly([1]), 2, _qr_example_q1, _qr_table_q1),
    "qR:{2}/1": (QR, (2,), Poly([1]), 3, _qr_example_q2, None),
}


def closed_form_comparators(name: str, p: ParamSet) -> ClosedFormExample:
    """Instantiate the named closed-form example at the given parameters."""
    key = name.replace("η", "eta")
    if key not in _REGISTRY:
        raise UnknownExample(f"no closed form registered under {name!r}")
    family, D, Y, L, x_fn, r_fn = _REGISTRY[key]
    if p.family != family:
        raise UnknownExample(f"{name!r} is a {family}-family example, got {p.family}")
    return ClosedFormExample(
        name=key,
        family=family,
        D=D,
        Y=Y,
        L=L,
        x_poly=x_fn(p),
        r_nk=r_fn(p) if r_fn is not None else None,
    )


def compare_example(ex: ClosedFormExample, s: MISystem, xp: XPoly, t: Optional[RecTable] = None) -> list:
    """Match the machine-built objects against the closed form.

    The two normalizations are reconciled through the eta^1 coefficient;
    the returned list of discrepancies is empty on success.
    """
    failures = []
    if s.D != ex.D or xp.Y != ex.Y:
        failures.append(("setup", s.D, xp.Y.coeffs))
        return failures
    scale = xp.poly[1] / ex.x_poly[1]
    if not scale > 0:
        failures.append(("scale-sign", scale))
    if xp.poly != poly_scale(ex.x_poly, scale):
        failures.append(("x-poly",))
    if t is not None and ex.r_nk is not None:
        for n in range(t.N + 1):
            for k in t.band(n):
                want = scale * ex.r_nk(n, k)
                if t.r[(n, k)] != want:
                    failures.append(("r", n, k, t.r[(n, k)] - want))
    return failures


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly([p[k] + q[k] for k in range(n)])


def poly_neg(p: Poly) -> Poly:
    return Poly([-c for c in p.coeffs])


def poly_mul(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly()
    out = [rat(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def poly_scale(p: Poly, c) -> Poly:
    return Poly([c * a for a in p.coeffs])


def poly_recurrence_failures(s: MISystem, xp: XPoly, t: RecTable) -> list:
    """X * P_n against sum_k r[(n,k)] * P_(n+k), multiplied out as
    polynomials, for every n <= N - L (the route ``verify_recurrence``
    replaced); failures are ("poly", n)."""
    failures = []
    for n in range(s.params.N - xp.L + 1):
        rhs = Poly()
        for k in t.band(n):
            rhs = poly_add(rhs, poly_scale(s.pdn_polys[n + k], t.r[(n, k)]))
        if poly_mul(xp.poly, s.pdn_polys[n]) != rhs:
            failures.append(("poly", n))
    return failures


def dense_eigen_misses(h) -> list:
    """Nonzero entries (x, n, r) of the dense product h_tilde*V minus
    V*diag(X), in row-major order (the route ``eigen_residual`` replaced)."""
    return [
        (x, n, hv - v * e)
        for x, (hv_row, v_row) in enumerate(zip((h.h_tilde @ h.V).rows, h.V.rows))
        for n, (hv, v, e) in enumerate(zip(hv_row, v_row, h.energies))
        if hv != v * e
    ]


def loop_recurrence_residual(dual) -> list:
    """Nonzero entries (x, n, r) of V*T - diag(Ebar)*V in row-major order,
    by three terms per entry on cleared integers (the route
    ``DualTable.recurrence_residual`` replaced)."""
    v_rows, v_dens = _cleared_int_rows(dual.V.rows)
    t_cols, t_dens = _cleared_int_rows(dual.jacobi())
    last = dual.V.n - 1
    out = []
    for x, (v, v_den, e) in enumerate(zip(v_rows, v_dens, dual.ebar)):
        num, den = int(e.numerator), int(e.denominator)
        for n, ((lo, mid, hi), t_den) in enumerate(zip(t_cols, t_dens)):
            vt = (v[n - 1] * lo if n else 0) + v[n] * mid + (v[n + 1] * hi if n < last else 0)
            r = vt * den - v[n] * num * t_den
            if r:
                out.append((x, n, rat(r, v_den * t_den * den)))
    return out


def commutator(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """a*b - b*a."""
    return matrix_sub(a @ b, b @ a)


def dense_commutator(h1, h2) -> list:
    """Nonzero entries of h1*h2 - h2*h1 by two dense products (the route
    ``commutator_check`` replaced)."""
    return nonzero_entries(commutator(h1.h_tilde, h2.h_tilde))


def exact_inverse(a: SquareMatrix) -> SquareMatrix:
    """Inverse by one exact solve per column."""
    # conftest imports this module, so its solver is imported on first use
    from conftest import solve_overdetermined

    n = a.n
    cols = [solve_overdetermined(a.rows, [1 if i == j else 0 for i in range(n)])
            for j in range(n)]
    return SquareMatrix(list(zip(*cols)))


def _eigen_products(h):
    """(W, h_tilde*W) with W = diag(ebar)*V, once h_tilde*V = V*diag(X) is
    certified."""
    if h.eigen_residual:
        raise CrossCheckMismatch("h_tilde*V differs from V*diag(X)")
    w = scale_rows(h.V, h.dual.ebar)
    return w, h.h_tilde @ w


def dense_verify_closure(h, c) -> SquareMatrix:
    """(LHS - RHS)*V by the dense route: with hW = h_tilde*W and every
    R(h_tilde)*V = V*diag(R(X)),

        (LHS - RHS)*V = h_tilde*hW - hW*diag(2X + R1(X))
                        + W*diag(X^2 - R0(X) + X*R1(X)) - V*diag(Rm1(X)).

    ``closure.verify_closure`` lists the nonzero entries of the tridiagonal
    M with (LHS - RHS)*V = V*M."""
    X = h.energies
    w, hw = _eigen_products(h)
    r0 = [c.R0(x) for x in X]
    r1 = [c.R1(x) for x in X]
    return matrix_sub(
        matrix_add(
            matrix_sub(h.h_tilde @ hw, scale_cols(hw, [2 * x + b for x, b in zip(X, r1)])),
            scale_cols(w, [x * x - a + x * b for x, a, b in zip(X, r0, r1)]),
        ),
        scale_cols(h.V, [c.Rm1(x) for x in X]),
    )


def closure_node_data(h) -> tuple:
    """(R0, R1, Rm1) at each node X_n of h's spectrum as ``solve_closure``
    builds them from the X grid: (X_(n+1) - X_n)*(X_n - X_(n-1)),
    X_(n+1) - 2*X_n + X_(n-1) and -b_dual[n] times the first."""
    X = h.x_grid
    out = []
    for n, b in enumerate(h.dual.b_dual):
        beta0 = (X[n + 1] - X[n]) * (X[n] - X[n - 1])
        out.append((beta0, X[n + 1] - 2 * X[n] + X[n - 1], -beta0 * b))
    return tuple(out)


def on_spectrum_by_values(c) -> tuple:
    """(R0, R1, Rm1) at each node of c's spectrum, one ``Poly.values`` per
    polynomial."""
    return tuple(zip(*(p.values(c.data.nodes) for p in (c.R0, c.R1, c.Rm1))))


def replace(record, **changes):
    """A copy of a library record with `changes` to its fields, built anew
    through its class: no cached property of `record` carries over."""
    cls = type(record)
    fields = {name: getattr(record, name) for name in inspect.signature(cls).parameters}
    return cls(**{**fields, **changes})


def replace_closure(c, **polys):
    """c with some of R0, R1 and Rm1 replaced, R0's values on the spectrum
    re-derived from the polynomial it then holds."""
    bent = replace(c, **polys)
    r0 = tuple(bent.R0.values(bent.data.nodes))
    return replace(bent, data=bent.data._replace(r0_on_spectrum=r0))


def tridiagonal_closure(h, c) -> list:
    """Nonzero entries (m, n, r) of the tridiagonal M with (LHS - RHS)*V =
    V*M for the double-commutator identity, in row-major order,
    |m - n| <= 1 (the route ``closure.verify_closure`` replaced).  Column n
    of M, with T held as its columns (``DualTable.jacobi``) and the
    polynomials read at X_n by ``Poly.values``:

        M[m][n] = T[m][n]*((X_m - X_n)^2 - (X_m - X_n)*R1(X_n) - R0(X_n)), m = n+-1,
        M[n][n] = -b_dual[n]*R0(X_n) - Rm1(X_n).

    Neither h's eigenbasis nor c's spectrum is certified here."""
    X = h.x_grid
    entries = []
    for n, ((lo, mid, hi), (r0, r1, rm1)) in enumerate(
        zip(h.dual.jacobi(), on_spectrum_by_values(c))
    ):
        lo_gap, hi_gap = X[n - 1] - X[n], X[n + 1] - X[n]
        col = (
            lo * (lo_gap * lo_gap - lo_gap * r1 - r0),
            -mid * r0 - rm1,
            hi * (hi_gap * hi_gap - hi_gap * r1 - r0),
        )
        entries += [(m, n, r) for m, r in zip((n - 1, n, n + 1), col) if r != 0]
    return sorted(entries, key=lambda e: e[:2])


def ladder_columns(h, c, step: int, sign: int) -> list:
    """Columns (B[n-1][n], B[n][n], B[n+1][n]) of the tridiagonal B with
    a*V = V*B for one ladder operator (the route ``closure.verify_ladder``
    replaced).

    a = ([h,Ebar] - (Ebar + corr)*alpha) * sign*gap_inv, with
    alpha(n) = X[n+step] - X[n], gap(n) = X[n+1] - X[n-1] and
    corr(n) = Rm1(X_n)/R0(X_n).  Since [h,Ebar]*V = V*(diag(X)*T -
    T*diag(X)), column n of B is (T[m][n]*(X_m - X[n+step]) -
    [m=n]*(b_dual[n] + corr_n)*alpha_n) * sign/gap_n.  SingularR0 where R0
    vanishes on the spectrum."""
    X = h.x_grid
    cols = []
    for n, ((lo, mid, hi), (r0, _, rm1)) in enumerate(
        zip(h.dual.jacobi(), on_spectrum_by_values(c))
    ):
        if r0 == 0:
            raise SingularR0("R0 vanishes on the spectrum (degenerate seed with Y(0)=0)")
        shifted = X[n + step]
        g = sign / (X[n + 1] - X[n - 1])
        diag = -(mid + rm1 / r0) * (shifted - X[n]) * g
        cols.append((lo * (X[n - 1] - shifted) * g, diag, hi * (X[n + 1] - shifted) * g))
    return cols


def tridiagonal_ladder(h, c) -> list:
    """Both ladder actions on every eigenvector column, in the dual
    eigenbasis: column n of B against a_dual[n]*e_(n+1) for a+ ("plus")
    and c_dual[n]*e_(n-1) for a- ("minus").  Returns the failing
    ("plus", n) / ("minus", n) in column order; empty = pass."""
    T = h.dual.jacobi()
    actions = (
        ("plus", ladder_columns(h, c, -1, 1), [(0, 0, hi) for _, _, hi in T]),
        ("minus", ladder_columns(h, c, 1, -1), [(lo, 0, 0) for lo, _, _ in T]),
    )
    return [
        (name, n)
        for n in range(len(T))
        for name, got, expect in actions
        if got[n] != expect[n]
    ]


def dense_build_ladder(h, c, vinv=None) -> tuple:
    """(a+, a-) from the dense bracket hW - W*diag(X[n+step]) -
    V*diag(corr*alpha), scaled by sign/gap and multiplied by V^(-1), the
    ``exact_inverse`` of V unless given."""
    N = h.h_tilde.n - 1
    X = h.x_grid
    r0_vals = [c.R0(X[n]) for n in range(N + 1)]
    if any(v == 0 for v in r0_vals):
        raise SingularR0("R0 vanishes on the spectrum (degenerate seed with Y(0)=0)")
    corr = [c.Rm1(X[n]) / r0_vals[n] for n in range(N + 1)]
    for n in range(N + 1):
        if -corr[n] != h.dual.b_dual[n]:
            raise CrossCheckMismatch(f"-Rm1/R0 differs from dual coefficient at n={n}")
    w, hw = _eigen_products(h)
    if vinv is None:
        vinv = exact_inverse(h.V)

    def ladder(step, sign):
        alpha = [X[n + step] - X[n] for n in range(N + 1)]
        bracket = matrix_sub(
            matrix_sub(hw, scale_cols(w, [X[n + step] for n in range(N + 1)])),
            scale_cols(h.V, [k * a for k, a in zip(corr, alpha)]),
        )
        gap_inv = [sign / (X[n + 1] - X[n - 1]) for n in range(N + 1)]
        return scale_cols(bracket, gap_inv) @ vinv

    return ladder(-1, 1), ladder(1, -1)


def _spectral_ladder(h, trip) -> tuple:
    """(a+, a-) by V*diag*exact_inverse(V) spectral calculus."""
    N = h.h_tilde.n - 1
    X = h.x_grid
    vinv = exact_inverse(h.V)

    def fn(values):
        return h.V @ scale_cols(identity_matrix(N + 1), values) @ vinv

    alpha_p = fn([X[n + 1] - X[n] for n in range(N + 1)])
    alpha_m = fn([X[n - 1] - X[n] for n in range(N + 1)])
    gap_inv = fn([1 / (X[n + 1] - X[n - 1]) for n in range(N + 1)])
    corr = fn([trip.Rm1(X[n]) / trip.R0(X[n]) for n in range(N + 1)])
    ebar = scale_cols(identity_matrix(N + 1), h.dual.ebar)
    inner = commutator(h.h_tilde, ebar)
    shifted = matrix_add(ebar, corr)
    a_plus = matrix_sub(inner, shifted @ alpha_m) @ gap_inv
    a_minus = scale_cols(matrix_sub(inner, shifted @ alpha_p) @ gap_inv, [-1] * (N + 1))
    return a_plus, a_minus


# The SquareMatrix arithmetic that the library no longer calls.


def identity_matrix(n: int) -> SquareMatrix:
    return SquareMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def matrix_add(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    if a.n != b.n:
        raise ShapeMismatch("incompatible matrices")
    return SquareMatrix([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.rows, b.rows)])


def matrix_sub(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    if a.n != b.n:
        raise ShapeMismatch("incompatible matrices")
    return SquareMatrix([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a.rows, b.rows)])


def matrix_is_zero(m: SquareMatrix) -> bool:
    return all(v == 0 for row in m.rows for v in row)


def nonzero_entries(m: SquareMatrix) -> list:
    """(i, j, v) for every nonzero entry, in row-major order."""
    return [(i, j, v) for i, row in enumerate(m.rows) for j, v in enumerate(row) if v != 0]


def from_entries(n: int, entries) -> SquareMatrix:
    """The n x n matrix with the given entries (i, j, v), zero elsewhere."""
    rows = [[0] * n for _ in range(n)]
    for i, j, v in entries:
        rows[i][j] = v
    return SquareMatrix(rows)


def scale_rows(m: SquareMatrix, values) -> SquareMatrix:
    """diag(values) @ m, without the dense product."""
    return SquareMatrix([[c * v for v in row] for c, row in zip(values, m.rows)])


def scale_cols(m: SquareMatrix, values) -> SquareMatrix:
    """m @ diag(values), without the dense product."""
    return SquareMatrix([[v * c for v, c in zip(row, values)] for row in m.rows])


def transpose(m: SquareMatrix) -> SquareMatrix:
    return SquareMatrix(list(zip(*m.rows)))


def system_dual_ortho(s: MISystem, dual) -> list:
    """Residuals of the dual orthogonality sums over the columns of the
    table's V, the weights and norms derived from the system (the route
    ``DualTable.ortho_residual`` replaced)."""
    N = s.params.N
    xi1 = s.xi_grid[1]
    dual_w = [s.dDn_sq[n] / xi1 for n in range(N + 1)]
    # squared dual norm: (Xi(1) * weight * ground value^2)^(-1)
    norms = [1 / (xi1 * s.weights[x] * s.pdn_grid[0][x] ** 2) for x in range(N + 1)]
    return gram_residuals(transpose(dual.V).rows, dual_w, norms)


def newton_interpolate(nodes, values) -> Poly:
    """Interpolation by Newton divided differences on rationals (the route
    ``poly.interpolate`` replaced, kept as an oracle), with the same
    length and coincident-node checks."""
    n = len(nodes)
    if n != len(values):
        raise ValueError("nodes/values length mismatch")
    if len(set(nodes)) != n:
        raise SingularMatrix("coincident interpolation nodes")
    nodes = [rat(v) for v in nodes]
    coeffs = [rat(v) for v in values]  # divided differences, in place
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (nodes[i] - nodes[i - j])
    # Newton -> monomial basis, Horner-style in one coefficient list:
    # out <- out * (eta - nodes[i]) + coeffs[i].
    out = coeffs[-1:]
    for i in range(n - 2, -1, -1):
        z = nodes[i]
        out.append(out[-1])
        for k in range(len(out) - 2, 0, -1):
            out[k] = out[k - 1] - z * out[k]
        out[0] = coeffs[i] - z * out[0]
    return Poly(out)


def naive_det(rows) -> object:
    """Determinant over any field by one Gaussian elimination of the whole
    matrix, first nonzero entry as pivot (the route
    ``linalg.LeadingElimination`` replaced, kept as an oracle)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    for k in range(n - 1):
        pivot = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return m[0][0] * 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] = m[i][j] - f * m[k][j]
    acc = m[0][0]
    for k in range(1, n):
        acc = acc * m[k][k]
    return sign * acc


def generic_det(rows) -> object:
    """Determinant over any field scalars: ``linalg.LeadingElimination`` of
    the whole matrix (the exact Casoratian route before
    ``linalg.bordered_dets``)."""
    if not rows:
        return 1
    return LeadingElimination([r[:-1] for r in rows]).det([r[-1] for r in rows])


def elimination_cofactors(rows) -> list:
    """The cofactors of a bordered last column: the n x (n-1) leading
    ``rows`` eliminated once, then each unit column reduced with the record
    (the route ``multiindexed.GridTable.cofactors`` replaced)."""
    elim, n = LeadingElimination(rows), len(rows)
    return [elim.det([int(i == j) for i in range(n)]) for j in range(n)]


def potential_per_entry(x: int, p: ParamSet, which: str):
    """B(x) or D(x) by the per-family rational formula, one Fraction
    operation per factor (the route ``basefamily.potential`` replaced for
    exact tuples): 0 where the numerator vanishes, ZeroDenominator where
    only the denominator does."""
    a, b, c, d = p.a, p.b, p.c, p.d
    if p.family == R:
        if which == "B":
            num = -(x + a) * (x + b) * (x + c) * (x + d)
            den = (2 * x + d) * (2 * x + 1 + d)
        else:
            num = -(x + d - a) * (x + d - b) * (x + d - c) * x
            den = (2 * x - 1 + d) * (2 * x + d)
    else:
        q = p.q
        qx = ipow(q, x)
        if which == "B":
            num = -(1 - a * qx) * (1 - b * qx) * (1 - c * qx) * (1 - d * qx)
            den = (1 - d * ipow(q, 2 * x)) * (1 - d * ipow(q, 2 * x + 1))
        else:
            num = -p.dtilde * (1 - d * qx / a) * (1 - d * qx / b) * (1 - d * qx / c) * (1 - qx)
            den = (1 - d * ipow(q, 2 * x - 1)) * (1 - d * ipow(q, 2 * x))
    if num == 0:
        return rat(0)
    if den == 0:
        raise ZeroDenominator(f"potential {which} denominator vanishes at x={x}")
    return num / den


def poch(u, n: int):
    """Pochhammer symbol (u)_n = u(u+1)...(u+n-1) (with ``qpoch``,
    ``multi_poch`` and ``multi_qpoch``, the per-family helpers that
    ``basefamily.poch`` replaced)."""
    acc = u * 0 + 1
    for i in range(n):
        acc = acc * (u + i)
    return acc


def qpoch(u, n: int, q):
    """q-Pochhammer symbol (u;q)_n = (1-u)(1-uq)...(1-uq^(n-1))."""
    acc = u * 0 + 1
    for i in range(n):
        acc = acc * (1 - u * ipow(q, i))
    return acc


def multi_poch(us, n: int):
    acc = 1
    for u in us:
        acc = acc * poch(u, n)
    return acc


def multi_qpoch(us, n: int, q):
    acc = 1
    for u in us:
        acc = acc * qpoch(u, n, q)
    return acc


def c_n_per_family(n: int, p: ParamSet):
    """Leading coefficient of the degree-n base polynomial, one product per
    family (the route of ``basefamily.c_n`` before ``basefamily.poch``)."""
    a, b, c = p.a, p.b, p.c
    dt = p.dtilde
    if p.family == R:
        return poch(dt + n, n) / multi_poch((a, b, c), n)
    return qpoch(dt * ipow(p.q, n), n, p.q) / multi_qpoch((a, b, c), n, p.q)


def leading_xi_per_family(D: Sequence[int], p: ParamSet):
    """``multiindexed.leading_xi`` by the per-family helpers."""
    tw = twist(p)
    us, dt = (tw.a, tw.b, tw.c), tw.dtilde
    acc = 1
    for j, dj in enumerate(D):
        acc = acc * c_n_per_family(dj, tw)
        acc = acc * (multi_poch(us, j) if p.family == R else multi_qpoch(us, j, p.q))
        for dk in D[j + 1:]:
            acc = acc / factor(p, dt, dj + dk)
    return acc


def dn_sq_table_per_family(p: ParamSet) -> tuple:
    """``basefamily.dn_sq_table`` with d_0^2 by the per-family helpers."""
    a, b, c, d, N = p.a, p.b, p.c, p.d, p.N
    dt = p.dtilde
    if p.family == R:
        d0 = (
            (-1) ** N
            * multi_poch((d - a + 1, d - b + 1, d - c + 1), N)
            / (poch(dt + 1, N) * poch(d + 1, 2 * N))
        )
    else:
        q = p.q
        d0 = (
            (-1) ** N
            * multi_qpoch((d * q / a, d * q / b, d * q / c), N, q)
            * ipow(dt, N)
            * ipow(q, N * (N + 1) // 2)
            / (qpoch(dt * q, N, q) * qpoch(d * q, 2 * N, q))
        )
    return tuple(d0 * v for v in phi0_sq_table(p.dual()))


def rj_den_per_family(M: int, p: ParamSet):
    """``GridTable._rj_den`` by the per-family helpers."""
    a, b, d = p.a, p.b, p.d
    if p.family == R:
        return poch(d - a + 1, M) * poch(d - b + 1, M)
    q = p.q
    powers = [ipow(a * b / (d * q), j - 1) for j in range(1, M + 2)]
    return powers, qpoch(d * q / a, M, q), qpoch(d * q / b, M, q)


def spelled_out_candidates(p: ParamSet) -> list:
    """``shapeinv.builtin_candidates`` with each family's shifts written
    out (the route before ``params.shift``)."""
    N = p.N
    if p.family == R:
        return [
            ("delta", replace(p, N=N - 1, a=p.a + 1, b=p.b + 1, c=p.c + 1, d=p.d + 1)),
            ("delta_tilde", replace(p, N=N - 1, c=p.c + 1, d=p.d + 1)),
            ("delta_dplus", replace(p, N=N - 1, a=p.a + 1, b=p.b + 1, c=p.c + 1, d=p.d + 2)),
        ]
    q = p.q
    return [
        ("delta", replace(p, N=N - 1, a=p.a * q, b=p.b * q, c=p.c * q, d=p.d * q)),
        ("delta_tilde", replace(p, N=N - 1, c=p.c * q, d=p.d * q)),
        ("delta_dplus", replace(p, N=N - 1, a=p.a * q, b=p.b * q, c=p.c * q, d=p.d * q * q)),
    ]


def _one(p: ParamSet):
    return p.b * 0 + 1


def varphi_per_family(x: int, p: ParamSet):
    """The per-family formula of ``basefamily.varphi``, one rational or
    float operation at a time (the exact route it replaced)."""
    if p.family == R:
        return (2 * x + p.d + 1) / (p.d + 1)
    return (ipow(p.q, -x) - p.d * ipow(p.q, x + 1)) / (1 - p.d * p.q)


def varphi_m(x: int, M: int, p: ParamSet):
    """Vandermonde-type product of eta differences; 1 for M <= 1 (the
    per-entry route of ``GridTable.varphi``)."""
    acc = _one(p)
    for k in range(2, M + 1):
        for j in range(1, k):
            acc = acc * varphi_per_family(x + j - 1, shift(p, k - j - 1, "delta"))
    return acc


def rj_factor(j: int, x: int, M: int, p: ParamSet):
    """Pochhammer-ratio factor multiplying the bordered column entry in row
    j (the per-entry route of ``GridTable.rj``)."""
    if not 1 <= j <= M + 1:
        raise IndexOutOfRange(f"j={j} outside 1..{M + 1}")
    a, b, d = p.a, p.b, p.d
    if p.family == R:
        num = (
            poch(x + a, j - 1)
            * poch(x + b, j - 1)
            * poch(x + d - a + j, M + 1 - j)
            * poch(x + d - b + j, M + 1 - j)
        )
        den = poch(d - a + 1, M) * poch(d - b + 1, M)
        return num / den
    q = p.q
    qx = ipow(q, x)
    num = (
        qpoch(a * qx, j - 1, q)
        * qpoch(b * qx, j - 1, q)
        * qpoch(d * ipow(q, x + j) / a, M + 1 - j, q)
        * qpoch(d * ipow(q, x + j) / b, M + 1 - j, q)
    )
    den = (
        ipow(a * b / (d * q), j - 1)
        * ipow(q, M * x)
        * qpoch(d * q / a, M, q)
        * qpoch(d * q / b, M, q)
    )
    return num / den


def norm_const_cd(D: Sequence[int], p: ParamSet):
    """Overall normalization of the denominator determinant (the per-entry
    route of ``GridTable.cd``)."""
    M = len(D)
    acc = _one(p) / varphi_m(0, M, p)
    al = alpha_const(p)
    et = [etilde_v(dj, p) for dj in D]
    for j in range(M):
        for k in range(j + 1, M):
            acc = acc * (et[j] - et[k]) / (al * potential(j, p, "Bprime"))
    return acc


def dtn_sq_value(n: int, D: Sequence[int], p: ParamSet):
    """Deformation factor of the squared norm (the per-entry route of
    ``GridTable.dtn``)."""
    M = len(D)
    acc = varphi_m(0, M, p) / varphi_m(0, M + 1, p)
    al = alpha_const(p)
    en = energy(n, p)
    for j, dj in enumerate(D):
        acc = acc * (en - etilde_v(dj, p)) / (al * potential(j, p, "Bprime"))
    return acc


def leading_pdn(n: int, D: Sequence[int], p: ParamSet, lead_xi):
    """Closed-form leading coefficient of P_(D,n) as one O(n) product;
    ``lead_xi`` is ``leading_xi(D, p)`` (the route
    ``multiindexed.leading_pdn_table`` replaced by its ratio table)."""
    acc = lead_xi * c_n(n, p)
    if p.family == R:
        for j, dj in enumerate(D, start=1):
            acc = acc * (p.c + j - 1) / (p.c + dj + n)
    else:
        for j, dj in enumerate(D, start=1):
            acc = acc * (1 - p.c * ipow(p.q, j - 1)) / (1 - p.c * ipow(p.q, dj + n))
    return acc


def hamiltonian_symmetric_form(h, precision: int) -> list:
    """Rows of the real symmetric matrix similar to a Hamiltonian's
    h_tilde, the norm ratio read from its dual table's weights
    d_n^2/Xi(1) (the route ``shapeinv.symmetric_form`` replaced by the
    r-table's rows and the squared norms)."""
    w = h.dual.weights
    with mpmath.workprec(precision):
        return [
            [
                to_real(r, precision) * big_sqrt(w[x] / w[y], precision)
                if x != y and r != 0 else to_real(r, precision)
                for y, r in enumerate(row)
            ]
            for x, row in enumerate(h.h_tilde.rows)
        ]


def dense_factor_upper(h_sym, precision: int) -> list:
    """Rows of the upper-triangular factor A with nonnegative diagonal,
    A^T A = h_sym, every sum taken over the whole matrix (the route
    ``shapeinv.factor_upper`` restricts to the band)."""
    n = len(h_sym)
    with mpmath.workprec(precision):
        scale = max((abs(v) for row in h_sym for v in row), default=mpmath.mpf(1))
        tol = mpmath.mpf(2) ** (-(precision // 2)) * (scale if scale > 0 else 1)
        a = [[mpmath.mpf(0)] * n for _ in range(n)]
        for x in range(n):
            pivot = h_sym[x][x] - sum(a[z][x] ** 2 for z in range(x))
            if pivot < -tol:
                raise NegativePivot(f"pivot {pivot} at row {x}")
            if pivot <= tol:
                continue  # zero row
            a[x][x] = mpmath.sqrt(pivot)
            for y in range(x + 1, n):
                hxy = h_sym[x][y] - sum(a[z][x] * a[z][y] for z in range(x))
                a[x][y] = hxy / a[x][x]
        err = max(
            abs(sum(a[z][x] * a[z][y] for z in range(n)) - h_sym[x][y])
            for x in range(n)
            for y in range(n)
        )
        if err > tol * 4 * n:
            raise CrossCheckMismatch(f"A^T*A misses h_sym by {err} (tolerance {tol * 4 * n})")
    return a


class WrapperQSumColumns:
    """The float base columns of a q-family tuple by the terminating q-sum
    on mpf wrapper objects: the k, (n, k) and (y, k) factors formed once
    and combined in the sum's own operation order (the route
    ``qlimit.QSumColumns`` runs on raw tuples).  Use it only inside the
    working precision it was made at."""

    def __init__(self, p: ParamSet):
        if p.family == R:
            raise InadmissibleParams("float base columns are filled for the q-family only")
        self.p, N = p, p.N
        q, dt = p.q, p.dtilde
        self._qk = [p.a * 0 + 1]  # q^k, k < N, by repeated products as in the sum
        while len(self._qk) < N:
            self._qk.append(self._qk[-1] * q)
        self._den = [
            (1 - p.a * u) * (1 - p.b * u) * (1 - p.c * u) * (1 - u * q) for u in self._qk
        ]
        self._nk = []
        for n in range(N + 1):
            qmn, qn = ipow(q, -n), ipow(q, n)
            self._nk.append([(1 - qmn * u) * (1 - dt * qn * u) for u in self._qk[:n]])

    def column(self, y: int) -> tuple:
        p = self.p
        one = p.a * 0 + 1
        q, d = p.q, p.d
        qmx, qx = ipow(q, -y), ipow(q, y)
        yk = [(1 - qmx * u, 1 - d * qx * u) for u in self._qk]
        col = []
        for nk in self._nk:
            term = total = one
            for k, f in enumerate(nk):
                term = term * (f * yk[k][0] * yk[k][1]) / self._den[k] * q
                total = total + term
            col.append(total)
        return tuple(col)


def wrapper_float_tables(p: ParamSet, D: Sequence[int], precision: int) -> list:
    """``qlimit.float_tables`` with the base columns of
    ``WrapperQSumColumns``."""
    with mpmath.workprec(precision):
        tab = GridTable(D, p, WrapperQSumColumns)
        return [[tab.pdn(n, x) for x in range(p.N + 1)] for n in range(p.N + 1)]


def workprec_to_real(x, prec: int):
    """``bigreal.to_real`` inside a working precision of prec bits."""
    with mpmath.workprec(prec):
        if isinstance(x, mpmath.mpf):
            return +x
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def workprec_big_sqrt(x, prec: int):
    """``bigreal.big_sqrt`` inside a working precision of prec bits."""
    with mpmath.workprec(prec):
        v = x if isinstance(x, mpmath.mpf) else workprec_to_real(x, prec)
        if v < 0:
            raise NegativeRadicand(f"sqrt of negative value {v}")
        return mpmath.sqrt(v)


def wrapper_ratios(pdn) -> list:
    """The dual ratio table P_n(x)/P_0(x) of an mpf P table."""
    return [[v / v0 for v, v0 in zip(row, pdn[0])] for row in pdn]


def wrapper_gap(table, ref):
    """The largest entrywise |table - ref| of mpf tables."""
    return max(abs(v - r) for row, ref_row in zip(table, ref) for v, r in zip(row, ref_row))


def wrapper_qlimit_gaps(s: MISystem, tables, ks: Sequence[int], precision: int) -> tuple:
    """(p_gaps, q_gaps, within_tolerance, monotone) of mpf P tables, one
    per k in ks, against the exact system s, on mpf wrapper objects."""
    with mpmath.workprec(precision):
        ref_p = [[workprec_to_real(v, precision) for v in row] for row in s.pdn_grid]
        ref_q = wrapper_ratios(ref_p)
        p_gaps, q_gaps = [], []
        for pdn in tables:
            p_gaps.append(wrapper_gap(pdn, ref_p))
            q_gaps.append(wrapper_gap(wrapper_ratios(pdn), ref_q))
        within = all(
            g < mpmath.mpf(10) ** (-k + 2) for gaps in (p_gaps, q_gaps) for k, g in zip(ks, gaps)
        )
        mono = all(
            gaps[i] > gaps[i + 1] for gaps in (p_gaps, q_gaps) for i in range(len(gaps) - 1)
        )
    return p_gaps, q_gaps, within, mono
