"""Casoratian-determinant construction of the deformed polynomial system.

The denominator polynomial and the deformed polynomials are built from
bordered Casoratians of virtual-state values, then recovered as dense
polynomials in the sinusoidal variable by exact interpolation with
certified degrees.  Every normalization, positivity, and leading
coefficient claim is certified during the build: a failure raises, under
every interpreter flag.

Only the last Casoratian column depends on the label n.  The virtual-state
rows, the Pochhammer factors r_j(x), the Vandermonde products and the
normalization C_D are evaluated once per (parameters, D) by a ``GridTable``
that lives for one build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .backend import rat
from .basefamily import (
    alpha_const,
    c_n,
    ctilde_v,
    dn_sq,
    etilde_v,
    multi_poch,
    multi_qpoch,
    phi0_sq,
    poch,
    potential,
    qpoch,
    racah_value,
    varphi,
    xi_v,
)
from .errors import (
    CrossCheckMismatch,
    DegreeMismatch,
    IndexOutOfRange,
    InadmissibleParams,
    NonPositiveWeight,
    ZeroEntry,
)
from .linalg import generic_det, gram_residuals
from .params import R, ParamSet, ell, energy, eta, ipow, shift, validate
from .poly import Poly, interpolate


def _one(p: ParamSet):
    # typed multiplicative unit (rational or float, matching the parameters)
    return p.b * 0 + 1


def varphi_m(x: int, M: int, p: ParamSet):
    """Vandermonde-type product of eta differences; 1 for M <= 1."""
    acc = _one(p)
    for k in range(2, M + 1):
        for j in range(1, k):
            acc = acc * varphi(x + j - 1, shift(p, k - j - 1, "delta"))
    return acc


def rj_factor(j: int, x: int, M: int, p: ParamSet):
    """Pochhammer-ratio factor multiplying the bordered column entry in row j."""
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
    """Overall normalization of the denominator determinant."""
    M = len(D)
    acc = _one(p) / varphi_m(0, M, p)
    al = alpha_const(p)
    et = [etilde_v(dj, p) for dj in D]
    for j in range(M):
        for k in range(j + 1, M):
            acc = acc * (et[j] - et[k]) / (al * potential(j, p, "Bprime"))
    return acc


def dtn_sq_value(n: int, D: Sequence[int], p: ParamSet):
    """Deformation factor of the squared norm."""
    M = len(D)
    acc = varphi_m(0, M, p) / varphi_m(0, M + 1, p)
    al = alpha_const(p)
    en = energy(n, p)
    for j, dj in enumerate(D):
        acc = acc * (en - etilde_v(dj, p)) / (al * potential(j, p, "Bprime"))
    return acc


class GridTable:
    """Grid values of the Casoratians at one (parameters, D), each
    n-independent piece evaluated once.

    Entries are filled on first use and held only as long as the table, so
    float values stay tied to the working precision they were made at.  The
    determinants see the same rows in the same order as a per-entry
    evaluation, so float results agree bit for bit.
    """

    def __init__(self, D: Sequence[int], p: ParamSet):
        self.D, self.p, self.M = tuple(D), p, len(D)
        self._memo: dict = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def xi_row(self, y: int) -> list:
        """Virtual-state values xi_{d_k}(y), k = 1..M (do not mutate)."""
        return self._get(("xi", y), lambda: [xi_v(dk, y, self.p) for dk in self.D])

    def varphi(self, x: int, M: int):
        return self._get(("varphi", x, M), lambda: varphi_m(x, M, self.p))

    def dtn(self, n: int):
        return self._get(("dtn", n), lambda: dtn_sq_value(n, self.D, self.p))

    def cd(self):
        return self._get("cd", lambda: norm_const_cd(self.D, self.p))

    def cdn(self, n: int):
        return (-1) ** self.M * self.cd() * self.dtn(n)

    def xi(self, x: int):
        """Grid value of the denominator polynomial (any integer x)."""
        M, p = self.M, self.p
        if M == 0:
            return rat(1) if p.is_exact() else p.b * 0 + 1
        det = generic_det([self.xi_row(x + j) for j in range(M)])
        return det / (self.cd() * self.varphi(x, M))

    def pdn(self, n: int, x: int):
        """Grid value of the deformed polynomial via the bordered determinant;
        only the last column, r_j(x) * P_n(x+j-1), depends on n."""
        M, p = self.M, self.p
        rows = []
        for j in range(1, M + 2):
            y = x + j - 1
            rj = self._get(("rj", j, x), lambda: rj_factor(j, x, M, p))
            base = self._get(("P", n, y), lambda: racah_value(n, y, p))
            rows.append(self.xi_row(y) + [rj * base])
        return generic_det(rows) / (self.cdn(n) * self.varphi(x, M + 1))


def leading_xi(D: Sequence[int], p: ParamSet):
    """Closed-form leading coefficient of the denominator polynomial."""
    a, b, c, d = p.a, p.b, p.c, p.d
    M = len(D)
    acc = 1
    for dj in D:
        acc = acc * ctilde_v(dj, p)
    if p.family == R:
        for j in range(1, M + 1):
            acc = acc * multi_poch((d - a + 1, d - b + 1, c), j - 1)
        for j in range(M):
            for k in range(j + 1, M):
                acc = acc / (c + d - a - b + D[j] + D[k] + 1)
    else:
        q = p.q
        for j in range(1, M + 1):
            acc = acc * multi_qpoch((d * q / a, d * q / b, c), j - 1, q)
        for j in range(M):
            for k in range(j + 1, M):
                acc = acc / (1 - c * d * ipow(q, D[j] + D[k] + 1) / (a * b))
    return acc


def leading_pdn(n: int, D: Sequence[int], p: ParamSet):
    acc = leading_xi(D, p) * c_n(n, p)
    if p.family == R:
        for j, dj in enumerate(D, start=1):
            acc = acc * (p.c + j - 1) / (p.c + dj + n)
    else:
        for j, dj in enumerate(D, start=1):
            acc = acc * (1 - p.c * ipow(p.q, j - 1)) / (1 - p.c * ipow(p.q, dj + n))
    return acc


@dataclass
class MISystem:
    """A fully built and internally verified deformed polynomial system."""

    params: ParamSet
    D: Tuple[int, ...]
    xi_poly: Poly
    pdn_polys: Tuple[Poly, ...]
    xi_grid: Dict[int, object]          # x -> Xi(x; lambda), x = 0..N+1
    xi_grid_delta: Dict[int, object]    # x -> Xi(x; lambda+delta), x = 0..N+1
    pdn_grid: Tuple[tuple, ...]         # [n][x], x = 0..N
    dtn_sq: Tuple                       # deformation norm factors
    dDn_sq: Tuple                       # full squared norms
    weights: Tuple                      # orthogonality weights, x = 0..N

    @property
    def M(self) -> int:
        return len(self.D)

    @property
    def ellD(self) -> int:
        return ell(self.D)

    def eta_node(self, x: int):
        """Interpolation node for the deformed polynomials."""
        return eta(x, shift(self.params, self.M, "delta"))

    def bd(self, x: int):
        """Deformed birth-type potential."""
        p, M = self.params, self.M
        base = potential(x, shift(p, M, "tilde"), "B")
        if base == 0:
            return base
        return (
            base
            * self.xi_grid[x]
            / self.xi_grid[x + 1]
            * self.xi_grid_delta[x + 1]
            / self.xi_grid_delta[x]
        )

    def dd(self, x: int):
        """Deformed death-type potential."""
        p, M = self.params, self.M
        base = potential(x, shift(p, M, "tilde"), "D")
        if base == 0:
            return base
        return (
            base
            * self.xi_grid[x + 1]
            / self.xi_grid[x]
            * self.xi_grid_delta[x - 1]
            / self.xi_grid_delta[x]
        )


def build_mi_system(p: ParamSet, D: Sequence[int]) -> MISystem:
    violations = validate(p, D)
    if violations:
        raise InadmissibleParams(f"parameter ranges violated: {violations}")
    D = tuple(D)
    M, ellD, N = len(D), ell(D), p.N
    p_ximinus = shift(p, M - 1, "delta")
    p_pdn = shift(p, M, "delta")
    p_delta = shift(p, 1, "delta")
    tab = GridTable(D, p)

    xi_grid = {x: tab.xi(x) for x in range(0, max(N + 2, ellD + 1))}
    if xi_grid[0] != 1:
        raise CrossCheckMismatch(f"denominator polynomial is {xi_grid[0]} at x=0, not 1")
    for x in range(N + 1):
        if not xi_grid[x] > 0:
            raise InadmissibleParams(f"denominator polynomial not positive at x={x}")

    xi_poly = interpolate(
        [eta(x, p_ximinus) for x in range(ellD + 1)],
        [xi_grid[x] for x in range(ellD + 1)],
        max_degree=ellD,
    )
    if (xi_poly.degree or 0) != ellD or xi_poly[ellD] != leading_xi(D, p):
        raise DegreeMismatch("denominator polynomial degree/leading coefficient")
    # certify the interpolant against the determinant route on the whole grid
    for x in range(N + 2):
        if xi_poly(eta(x, p_ximinus)) != xi_grid[x]:
            raise CrossCheckMismatch(f"denominator interpolant misses the grid at x={x}")

    pdn_polys: List[Poly] = []
    pdn_grid: List[tuple] = []
    for n in range(N + 1):
        deg = ellD + n
        nodes = [eta(x, p_pdn) for x in range(deg + 1)]
        vals = [tab.pdn(n, x) for x in range(deg + 1)]
        pol = interpolate(nodes, vals, max_degree=deg)
        if (pol.degree or 0) != deg or pol[deg] != leading_pdn(n, D, p):
            raise DegreeMismatch(f"deformed polynomial n={n} degree/leading coefficient")
        row = []
        for x in range(N + 1):
            v = pol(eta(x, p_pdn))
            if x > deg and v != tab.pdn(n, x):
                raise CrossCheckMismatch(
                    f"deformed polynomial n={n} interpolant misses the grid at x={x}"
                )
            row.append(v)
        if row[0] != 1:
            raise CrossCheckMismatch(f"deformed polynomial n={n} is {row[0]} at x=0, not 1")
        pdn_polys.append(pol)
        pdn_grid.append(tuple(row))

    tab_delta = GridTable(D, p_delta)
    xi_grid_delta = {x: tab_delta.xi(x) for x in range(-1, N + 2)}
    for x in range(N + 1):
        if pdn_grid[0][x] != xi_grid_delta[x]:
            raise CrossCheckMismatch(
                f"ground state differs from the shifted denominator at x={x}"
            )

    dtn = [tab.dtn(n) for n in range(N + 1)]
    dDn = [dn_sq(n, p) * t for n, t in zip(range(N + 1), dtn)]
    p_tilde = shift(p, M, "tilde")
    weights = []
    for x in range(N + 1):
        w = phi0_sq(x, p_tilde) / (xi_grid[x] * xi_grid[x + 1])
        if not w > 0:
            raise NonPositiveWeight(f"weight({x}) = {w}")
        weights.append(w)
    for v in dDn:
        if not v > 0:
            raise NonPositiveWeight("squared norm not positive")

    return MISystem(
        params=p,
        D=D,
        xi_poly=xi_poly,
        pdn_polys=tuple(pdn_polys),
        xi_grid=xi_grid,
        xi_grid_delta=xi_grid_delta,
        pdn_grid=tuple(pdn_grid),
        dtn_sq=tuple(dtn),
        dDn_sq=tuple(dDn),
        weights=tuple(weights),
    )


def verify_ortho(s: MISystem) -> list:
    """Exact residuals of the weighted orthogonality sums; empty = pass."""
    return gram_residuals(s.pdn_grid, s.weights, [1 / v for v in s.dDn_sq])


def verify_difference_eq(s: MISystem) -> list:
    """Exact residuals of the second-order difference equations; empty = pass."""
    p, N = s.params, s.params.N
    failures = []
    for n in range(N + 1):
        en = energy(n, p)
        for x in range(N + 1):
            acc = 0
            bc = s.bd(x)
            if bc != 0:
                acc = acc + bc * (
                    s.pdn_grid[n][x] - s.xi_grid_delta[x] / s.xi_grid_delta[x + 1] * s.pdn_grid[n][x + 1]
                )
            dc = s.dd(x)
            if dc != 0:
                acc = acc + dc * (
                    s.pdn_grid[n][x] - s.xi_grid_delta[x] / s.xi_grid_delta[x - 1] * s.pdn_grid[n][x - 1]
                )
            if acc != en * s.pdn_grid[n][x]:
                failures.append((n, x, acc - en * s.pdn_grid[n][x]))
    return failures


def sign_changes(seq: Sequence) -> int:
    for i, v in enumerate(seq):
        if v == 0:
            raise ZeroEntry(f"zero entry at position {i}")
    flips = 0
    for u, v in zip(seq, seq[1:]):
        if (u > 0) != (v > 0):
            flips += 1
    return flips
