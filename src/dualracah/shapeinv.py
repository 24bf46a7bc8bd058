"""Semidefinite factorization and the shape-invariance test.

The band Hamiltonian h_tilde, the r-table's rows, is exact; its similarity
transform to a real symmetric matrix needs square roots and the squared
norms, so it is formed here from those two, at the working precision the
caller gives (``symmetric_form``).  That matrix is positive
semi-definite with a zero ground level, so its upper-triangular factor has
a zero last row.  Shape invariance would force the spectrum at shrunk size
N-1 to be an affine rescaling of the tail of the original spectrum; that
necessary condition is checked exactly, and the full matrix condition is
reported as a high-precision float residual.

h_tilde is a (1+2L)-band matrix, and a Cholesky factor keeps the band of
what it factors, so ``factor_upper`` reads the bandwidth w from its input
and sums only inside the band: O(N w^2) instead of O(N^3).  The residual
A A^T - kappa A2^T A2 - E_1 is formed on the band only, with A A^T of the
system's own factor formed once for every candidate.  The terms left out
are exact zeros, so every float equals the one of the dense sums (kept in
the tests as the oracle).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import mpmath

from .bigreal import big_sqrt, to_real
from .errors import CrossCheckMismatch, InadmissibleCandidate, NegativePivot
from .params import R, ParamSet, shift, validate
from .pipeline import Pipeline
from .poly import Poly


def symmetric_form(rows, d_sq, precision: int) -> list:
    """Rows of the real symmetric matrix similar to h_tilde = ``rows`` (an
    r-table's), entry (x, y) being rows[x][y] * sqrt(d_sq[x] / d_sq[y]), at
    ``precision`` bits, ``d_sq`` the squared norms (``MISystem.dDn_sq``).

    A negative norm ratio raises NegativeRadicand (``big_sqrt``).
    """
    with mpmath.workprec(precision):
        return [
            [
                to_real(r, precision) * big_sqrt(d_sq[x] / d_sq[y], precision)
                if x != y and r != 0 else to_real(r, precision)
                for y, r in enumerate(row)
            ]
            for x, row in enumerate(rows)
        ]


def _bandwidth(rows) -> int:
    """Largest |x - y| with a nonzero entry (0 for a diagonal or zero matrix)."""
    return max(
        (abs(x - y) for x, row in enumerate(rows) for y, v in enumerate(row) if v), default=0
    )


def _band(n: int, w: int):
    """The index pairs (x, y) of an n x n matrix with |x - y| <= w, row by row."""
    return ((x, y) for x in range(n) for y in range(max(0, x - w), min(n, x + w + 1)))


def factor_upper(h_sym, precision: int) -> list:
    """Rows of the upper-triangular factor A with nonnegative diagonal,
    A^T A = h_sym, for the rows of a real symmetric matrix.

    Zero pivots (within tolerance) yield zero rows, as required for a
    positive semi-definite matrix with nontrivial kernel.  With w the
    bandwidth of h_sym, A[z][y] = 0 exactly whenever y - z > w, so every sum
    runs over the band only: the terms left out are exact zeros, and each
    float equals the one of the sum over the whole matrix.
    """
    n, w = len(h_sym), _bandwidth(h_sym)
    with mpmath.workprec(precision):
        scale = max((abs(v) for row in h_sym for v in row), default=mpmath.mpf(1))
        tol = mpmath.mpf(2) ** (-(precision // 2)) * (scale if scale > 0 else 1)
        a = [[mpmath.mpf(0)] * n for _ in range(n)]
        for x in range(n):
            pivot = h_sym[x][x] - sum(a[z][x] ** 2 for z in range(max(0, x - w), x))
            if pivot < -tol:
                raise NegativePivot(f"pivot {pivot} at row {x}")
            if pivot <= tol:
                continue  # zero row
            a[x][x] = mpmath.sqrt(pivot)
            for y in range(x + 1, min(n, x + w + 1)):
                hxy = h_sym[x][y] - sum(a[z][x] * a[z][y] for z in range(max(0, y - w), x))
                a[x][y] = hxy / a[x][x]
        # reconstruction check; outside the band both sides are zero
        err = max(
            abs(sum(a[z][x] * a[z][y] for z in range(max(0, x - w, y - w), min(x, y) + 1))
                - h_sym[x][y])
            for x, y in _band(n, w)
        )
        if err > tol * 4 * n:
            raise CrossCheckMismatch(f"A^T*A misses h_sym by {err} (tolerance {tol * 4 * n})")
    return a


def builtin_candidates(p: ParamSet) -> List[Tuple[str, ParamSet]]:
    """The natural parameter transforms tested for shape invariance,
    each stated at the shrunk size N-1: the shifts by delta and by
    delta-tilde, and delta with d shifted once more (``params.shift``)."""
    delta = shift(p, 1, "delta")._replace(N=p.N - 1)
    return [
        ("delta", delta),
        ("delta_tilde", shift(p, 1, "tilde")._replace(N=p.N - 1)),
        ("delta_dplus", delta._replace(d=shift(delta, 1, "tilde").d)),
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


class CandidateVerdict(NamedTuple):
    name: str
    admissible: bool
    kappa: Optional[object]
    spectral_pass: bool
    first_fail_x: Optional[int]
    matrix_residual: Optional[object]


class SIReport(NamedTuple):
    verdicts: List[CandidateVerdict]
    precision: int

    @property
    def shape_invariant(self) -> bool:
        return any(v.admissible and v.spectral_pass for v in self.verdicts)


def _symmetric(pipe: Pipeline, Y: Poly, precision: int) -> list:
    # from the r-table and the squared norms: no dual table, no Hamiltonian
    return symmetric_form(pipe.rectable(Y).rows, pipe.system().dDn_sq, precision)


def si_test(
    pipe: Pipeline,
    Y: Poly,
    precision: int,
    extra_candidates: List[Tuple[str, ParamSet]],
) -> SIReport:
    """Shape-invariance verdict for each built-in candidate of the
    pipeline's system with seed Y, then for each of ``extra_candidates``;
    every admissible candidate also gets the matrix residual at
    ``precision`` bits."""
    p, D, N = pipe.params, pipe.D, pipe.params.N
    xp = pipe.xpoly(Y)
    aad = None  # band of A*A^T, A the factor of the pipeline's own Hamiltonian, formed once
    verdicts = []
    for name, p2 in builtin_candidates(p) + list(extra_candidates):
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
        if aad is None:
            A = factor_upper(_symmetric(pipe, Y, precision), precision)
            w = _bandwidth(A)
            with mpmath.workprec(precision):
                # A[x][z] != 0 only for x <= z <= x + w
                aad = {
                    (x, y): sum(
                        A[x][z] * A[y][z] for z in range(max(x, y), min(N, x + w, y + w) + 1)
                    )
                    for x, y in _band(N, w)
                }
        A2 = factor_upper(_symmetric(cand, Y, precision), precision)
        w2 = _bandwidth(A2)
        with mpmath.workprec(precision):
            k = to_real(kappa, precision)
            e1 = to_real(xp.grid[1], precision)
            residual = mpmath.mpf(0)
            # outside both bands every term of the residual is an exact zero
            for x, y in _band(N, max(w, w2)):
                zs = range(max(0, x - w2, y - w2), min(x, y) + 1)
                ata = sum(A2[z][x] * A2[z][y] for z in zs)
                target = aad.get((x, y), 0) - k * ata - (e1 if x == y else 0)
                residual = max(residual, abs(target))
        verdicts.append(
            CandidateVerdict(name, True, kappa, spectral_pass, first_fail, residual)
        )
    return SIReport(verdicts=verdicts, precision=precision)
