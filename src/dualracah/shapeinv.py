"""Semidefinite factorization and the shape-invariance test.

The band Hamiltonian h_tilde is exact; its similarity transform to a real
symmetric matrix needs square roots, so it is formed here, at the working
precision the caller gives (``symmetric_form``).  That matrix is positive
semi-definite with a zero ground level, so its upper-triangular factor has
a zero last row.  Shape invariance would force the spectrum at shrunk size
N-1 to be an affine rescaling of the tail of the original spectrum; that
necessary condition is checked exactly, and the full matrix condition is
reported as a high-precision float residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import mpmath

from .bigreal import DEFAULT_PRECISION, big_sqrt, to_real
from .dualsystem import DualHamiltonian
from .errors import CrossCheckMismatch, InadmissibleCandidate, NegativePivot
from .params import R, ParamSet, validate
from .pipeline import Pipeline
from .poly import Poly


def symmetric_form(h: DualHamiltonian, precision: int) -> list:
    """Rows of the real symmetric matrix similar to h.h_tilde, entry (x, y)
    being h_tilde[x, y] * sqrt(d_x^2 / d_y^2), at ``precision`` bits.

    A negative norm ratio raises NegativeRadicand (``big_sqrt``).
    """
    with mpmath.workprec(precision):
        return [
            [
                to_real(r, precision) * big_sqrt(h.dDn_sq[x] / h.dDn_sq[y], precision)
                if x != y and r != 0 else to_real(r, precision)
                for y, r in enumerate(row)
            ]
            for x, row in enumerate(h.h_tilde.rows)
        ]


def factor_upper(h_sym, precision: int) -> list:
    """Rows of the upper-triangular factor A with nonnegative diagonal,
    A^T A = h_sym, for the rows of a real symmetric matrix.

    Zero pivots (within tolerance) yield zero rows, as required for a
    positive semi-definite matrix with nontrivial kernel.
    """
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
        # reconstruction check
        err = max(
            abs(sum(a[z][x] * a[z][y] for z in range(n)) - h_sym[x][y])
            for x in range(n)
            for y in range(n)
        )
        if err > tol * 4 * n:
            raise CrossCheckMismatch(f"A^T*A misses h_sym by {err} (tolerance {tol * 4 * n})")
    return a


def builtin_candidates(p: ParamSet) -> List[Tuple[str, ParamSet]]:
    """The natural parameter transforms tested for shape invariance,
    each stated at the shrunk size N-1."""
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


def check_candidate(p2: ParamSet, D) -> None:
    """Admissibility of a shrunk-size candidate (InadmissibleCandidate if not)."""
    N2 = p2.N
    if p2.family == R:
        if p2.a != -N2:
            raise InadmissibleCandidate(f"candidate a-slot {p2.a} != -{N2}")
    else:
        if p2.a * p2.q ** N2 != 1:
            raise InadmissibleCandidate(f"candidate a-slot is not the size-{N2} power")
    bad = validate(p2, D)
    if bad:
        raise InadmissibleCandidate(f"candidate violates ranges: {bad}")


@dataclass
class CandidateVerdict:
    name: str
    admissible: bool
    kappa: Optional[object]
    spectral_pass: bool
    first_fail_x: Optional[int]
    matrix_residual: Optional[object]


@dataclass
class SIReport:
    verdicts: List[CandidateVerdict]
    precision: int

    @property
    def shape_invariant(self) -> bool:
        return any(v.admissible and v.spectral_pass for v in self.verdicts)


def si_test(
    pipe: Pipeline,
    Y: Poly,
    precision: int = DEFAULT_PRECISION,
    extra_candidates: Optional[List[Tuple[str, ParamSet]]] = None,
) -> SIReport:
    """Shape-invariance verdict for each candidate of the pipeline's system
    with seed Y; every admissible candidate also gets the matrix residual
    at ``precision`` bits."""
    p, D, N = pipe.params, pipe.D, pipe.params.N
    xp = pipe.xpoly(Y)
    A = None  # factor of the pipeline's own Hamiltonian, built once when first needed
    verdicts = []
    for name, p2 in builtin_candidates(p) + list(extra_candidates or []):
        try:
            check_candidate(p2, D)
        except InadmissibleCandidate:
            verdicts.append(CandidateVerdict(name, False, None, False, None, None))
            continue
        cand = Pipeline(p2, D)
        xp2 = cand.xpoly(Y)
        kappa = (xp.grid[2] - xp.grid[1]) / xp2.grid[1]
        spectral_pass, first_fail = True, None
        for x in range(N):
            if kappa * xp2.grid[x] != xp.grid[x + 1] - xp.grid[1]:
                spectral_pass, first_fail = False, x
                break
        if A is None:
            A = factor_upper(symmetric_form(pipe.hamiltonian(Y), precision), precision)
        A2 = factor_upper(symmetric_form(cand.hamiltonian(Y), precision), precision)
        with mpmath.workprec(precision):
            k = to_real(kappa, precision)
            e1 = to_real(xp.grid[1], precision)
            residual = mpmath.mpf(0)
            for x in range(N):
                for y in range(N):
                    aad = sum(A[x][z] * A[y][z] for z in range(N + 1))
                    ata = sum(A2[z][x] * A2[z][y] for z in range(N))
                    target = aad - k * ata - (e1 if x == y else 0)
                    residual = max(residual, abs(target))
        verdicts.append(
            CandidateVerdict(name, True, kappa, spectral_pass, first_fail, residual)
        )
    return SIReport(verdicts=verdicts, precision=precision)
