"""Continuity of the q-family toward the additive family as q -> 1.

For a rational additive parameter tuple (-N, b, c, d), the matched q-tuple
is (q^-N, q^b, q^c, q^d).  As q approaches 1 the normalized polynomial
tables of the q-family converge entrywise to the additive ones.  This
module drives the very same determinant formulas with high-precision
binary floats instead of rationals and measures the entrywise gap on a
ladder q = 1 - 10^-k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import mpmath

from .bigreal import DEFAULT_PRECISION, to_real
from .multiindexed import GridTable, MISystem
from .params import QR, ParamSet, R
from .errors import InadmissibleParams


def matched_q_params(p_r: ParamSet, k: int, precision: int = DEFAULT_PRECISION) -> ParamSet:
    """The q-family tuple (q^-N, q^b, q^c, q^d) at q = 1 - 10^-k, in floats."""
    if p_r.family != R or not p_r.is_exact():
        raise InadmissibleParams("the q->1 reference must be an exact additive-family tuple")
    with mpmath.workprec(precision):
        q = 1 - mpmath.mpf(10) ** (-k)
        return ParamSet(
            QR,
            p_r.N,
            a=q ** to_real(-p_r.N + q * 0, precision),
            b=q ** to_real(p_r.b, precision),
            c=q ** to_real(p_r.c, precision),
            d=q ** to_real(p_r.d, precision),
            q=q,
        )


def float_tables(p: ParamSet, D: Sequence[int], precision: int = DEFAULT_PRECISION):
    """Normalized polynomial table and its dual ratio table, both in floats."""
    N = p.N
    with mpmath.workprec(precision):
        tab = GridTable(D, p)
        pdn = [[tab.pdn(n, x) for x in range(N + 1)] for n in range(N + 1)]
        qvals = [
            [pdn[n][x] / pdn[0][x] for n in range(N + 1)] for x in range(N + 1)
        ]
    return pdn, qvals


#: exponents k of the ladder q = 1 - 10^-k
LADDER_KS = (3, 4, 5, 6)


@dataclass
class QLimitReport:
    ks: Tuple[int, ...]
    p_gaps: Tuple          # max entrywise |q-family - additive| of the P table, per k
    q_gaps: Tuple          # same for the dual ratio table
    within_tolerance: bool  # gap < 10^(-k+2) at every k
    monotone: bool          # both gap sequences strictly decreasing in k
    precision: int


def qlimit_check(s: MISystem, precision: int = DEFAULT_PRECISION) -> QLimitReport:
    """Gap ladder of the q-family tables against the built additive system s,
    at q = 1 - 10^-k for k in LADDER_KS."""
    p_r, D, N = s.params, s.D, s.params.N
    with mpmath.workprec(precision):
        ref_p = [
            [to_real(s.pdn_grid[n][x], precision) for x in range(N + 1)]
            for n in range(N + 1)
        ]
        ref_q = [
            [ref_p[n][x] / ref_p[0][x] for n in range(N + 1)] for x in range(N + 1)
        ]
        p_gaps, q_gaps = [], []
        for k in LADDER_KS:
            pq = matched_q_params(p_r, k, precision)
            pdn, qvals = float_tables(pq, D, precision)
            p_gaps.append(
                max(
                    abs(pdn[n][x] - ref_p[n][x])
                    for n in range(N + 1)
                    for x in range(N + 1)
                )
            )
            q_gaps.append(
                max(
                    abs(qvals[x][n] - ref_q[x][n])
                    for x in range(N + 1)
                    for n in range(N + 1)
                )
            )
        within = all(
            g < mpmath.mpf(10) ** (-k + 2)
            for gaps in (p_gaps, q_gaps)
            for k, g in zip(LADDER_KS, gaps)
        )
        mono = all(
            gaps[i] > gaps[i + 1]
            for gaps in (p_gaps, q_gaps)
            for i in range(len(gaps) - 1)
        )
    return QLimitReport(
        ks=LADDER_KS,
        p_gaps=tuple(p_gaps),
        q_gaps=tuple(q_gaps),
        within_tolerance=within,
        monotone=mono,
        precision=precision,
    )
