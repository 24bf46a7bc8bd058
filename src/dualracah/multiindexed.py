"""Casoratian-determinant construction of the deformed polynomial system.

The denominator polynomial and the deformed polynomials are built from
bordered Casoratians of virtual-state values, then recovered as dense
polynomials in the sinusoidal variable by the library's one exact
interpolation (``poly.interpolate``, on integers, certified at its nodes)
through exactly degree+1 nodes.  The degrees are certified by the
closed-form leading coefficients and the values on the rest of the grid.
Every normalization, positivity, and leading coefficient claim is
certified during the build: a failure raises, under every interpreter
flag.

Only the last Casoratian column depends on the label n.  The virtual-state
rows (on an exact table each xi_(d_k), of degree d_k in eta, interpolated
once through y = 0..d_k), the Pochhammer factors r_j(x), the base-value
columns P_0(y)..P_N(y), the Vandermonde products and the normalizations
C_D and C_(D,n) are evaluated once per (parameters, D) by a ``GridTable``
that lives for one build.  Within the table, the pieces that depend on
neither n, x nor j are formed once:

- the twisted parameter set of the virtual-state values and the shifted
  sets lambda + i*delta, i < M;
- the pairs (etilde_(d_j), alpha*B'(j)) shared by C_D and every dtn(n);
- the ratio varphi_M(0)/varphi_(M+1)(0) that starts every dtn(n);
- the denominator of r_j(x): one constant for R; for qR the powers of
  ab/(dq) by j and the two q-Pochhammer symbols, multiplied with q^(Mx)
  in the per-entry order.

varphi_(M+1)(x) extends the held varphi_M(x) by its last factors.

Exact tuples take the cofactor route, on integers.  The bordered
determinant is linear in its last column, so P_(D,n)(x) = sum_j cof_j(x)
r_j(x) P_n(x+j-1) / (C_(D,n) varphi_(M+1)(x)), where the M+1 cofactors
cof_j(x) do not depend on n: one fraction-free elimination of the cleared
virtual-state rows per x gives them all (``linalg.bordered_dets``).  Each
r_j(x) is one rational of integer Pochhammer pairs; the cofactors are
folded with r_j(x)/varphi_(M+1)(x) and cleared to integers once, one gcd
per weight; each base row P_n(y) is cleared once; each grid value is then
one integer dot product over C_(D,n), one rational per entry.  The last
cofactor is the M x M Casoratian of the denominator polynomial, so
Xi_D(x) = cof_(M+1)(x)/(C_D varphi_M(x)), on the main table and on the
shifted one (lambda+delta, x <= N), where it is certified equal to
P_(D,0)(x) and not kept.  Float tuples (the q->1 checks) take the
per-entry route: the M virtual-state columns are eliminated once per x
(``linalg.LeadingElimination``) and each P_(D,n)(x) reduces its bordered
column with that record, in the order of the per-entry formulas, because
the printed q->1 gaps pin that rounding.
The per-entry formulas live in the tests as oracles; exact values equal
them, floats agree with them bit for bit.

The orthogonality weights come from ``basefamily.phi0_sq_table`` and the
squared norms from ``basefamily.dn_sq_table``, one table each per build.
The leading coefficient of each virtual-state polynomial is the base one,
``basefamily.c_n``, at the twisted parameters; those of the deformed
polynomials are one table per build, stepped by the ratio of consecutive
base coefficients (``leading_pdn_table``).

The second-order difference equations in x are not checked here: divided
by the ground state P_0 they are the dual three-term recurrence, whose one
residual the dual table computes (``dualsystem.DualTable``).
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .backend import rat
from .basefamily import (
    RacahColumns,
    alpha_const,
    c_n,
    dn_sq_table,
    etilde_v,
    phi0_sq_table,
    poch,
    poch_pair,
    potential,
    racah_value,
    varphi,
)
from .errors import (
    CrossCheckMismatch,
    DegreeMismatch,
    InadmissibleParams,
    NonPositiveWeight,
    ZeroDenominator,
)
from .linalg import LeadingElimination, _cleared_int_rows, bordered_dets, gram_residuals
from .params import (
    R, ParamSet, ell, energy, eta, factor, factor_pair, index_set, ipow, shift, twist, validate,
)
from .poly import Poly, interpolate


def _one(p: ParamSet):
    # typed multiplicative unit (rational or float, matching the parameters)
    return p.b * 0 + 1


class GridTable:
    """Grid values of the Casoratians at one (parameters, D), each
    n-independent piece evaluated once.

    Base values come a column P_0(y)..P_N(y) at a time from one column
    fill, made of the parameters by ``columns`` on first use:
    ``basefamily.RacahColumns`` (the three-term recurrence) by default, the
    q-sum of the float side for the q->1 tables (``qlimit.float_tables``
    passes it), whose factors that object holds.
    The factors that depend on neither n, x nor j (listed in the module
    docstring) are formed once per table.  Entries, factors and the column
    fill are made on first use and held only as long as the table, so
    float values stay tied to the working precision they were made at.

    Two routes give P_(D,n)(x).  ``pdn_row``, for exact tuples, is the
    cofactor route: the cofactor weights of each x (``cofactor_weights``)
    dotted with the cleared base row (``base_row``), on integers.  ``pdn``, for
    float tuples, reduces each bordered column with the recorded
    elimination: every product is taken in the order of the per-entry
    formulas, and the determinants see the same rows, in the same order,
    and the same elimination steps, so float results agree with those
    formulas bit for bit, which the q->1 gaps need.  ``xi``, the
    denominator polynomial, is the last of ``cofactors``.
    """

    def __init__(self, D: Sequence[int], p: ParamSet, columns=RacahColumns):
        self.D, self.p, self.M = tuple(D), p, len(D)
        self._columns = columns
        self._memo: dict = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def xi_row(self, y: int) -> list:
        """Virtual-state values xi_{d_k}(y), k = 1..M: the base values of
        degree d_k at the twisted parameters (do not mutate).  A float
        table sums each by ``racah_value`` (the q->1 gaps pin its order);
        an exact one interpolates xi_{d_k} once through y = 0..d_k (module
        docstring) and evaluates it by integer Horner."""
        tw = self._get("twisted", lambda: twist(self.p))
        if not self.p.is_exact():
            return self._get(("xi", y), lambda: [racah_value(dk, y, tw) for dk in self.D])
        polys = self._get("xi_polys", lambda: [interpolate(
            [eta(z, tw) for z in range(dk + 1)], [racah_value(dk, z, tw) for z in range(dk + 1)]
        ) for dk in self.D])

        def row():
            z = eta(y, tw)
            return [pol(z) for pol in polys]

        return self._get(("xi", y), row)

    def base_column(self, y: int) -> tuple:
        """Base values (P_0(y), ..., P_N(y))."""
        fill = self._get("columns", lambda: self._columns(self.p))
        return self._get(("P", y), lambda: fill.column(y))

    def _shifted(self) -> list:
        # lambda + i*delta, i = 0..M-1
        return self._get("shifted", lambda: [shift(self.p, i, "delta") for i in range(self.M)])

    def varphi(self, x: int, m: int):
        """Vandermonde-type product of eta differences; 1 for m <= 1."""
        if m <= 1:
            return _one(self.p)

        def extend():
            acc, ps = self.varphi(x, m - 1), self._shifted()
            for j in range(1, m):
                acc = acc * varphi(x + j - 1, ps[m - j - 1])
            return acc

        return self._get(("varphi", x, m), extend)

    def _energy_pairs(self) -> list:
        # (etilde_(d_j), alpha * B'(j)), j = 0..M-1
        def make():
            p = self.p
            al = alpha_const(p)
            return [
                (etilde_v(dj, p), al * potential(j, p, "Bprime")) for j, dj in enumerate(self.D)
            ]

        return self._get("pairs", make)

    def varphi_ratio(self):
        """varphi_M(0) / varphi_(M+1)(0), the n-independent start of dtn(n)."""
        return self._get("ratio", lambda: self.varphi(0, self.M) / self.varphi(0, self.M + 1))

    def dtn(self, n: int):
        """Deformation factor of the squared norm."""

        def make():
            acc, en = self.varphi_ratio(), energy(n, self.p)
            for et, alb in self._energy_pairs():
                acc = acc * (en - et) / alb
            return acc

        return self._get(("dtn", n), make)

    def cd(self):
        """Overall normalization of the denominator determinant."""

        def make():
            pairs = self._energy_pairs()
            acc = _one(self.p) / self.varphi(0, self.M)
            for j, (et, alb) in enumerate(pairs):
                for et_k, _ in pairs[j + 1:]:
                    acc = acc * (et - et_k) / alb
            return acc

        return self._get("cd", make)

    def cdn(self, n: int):
        return self._get(("cdn", n), lambda: (-1) ** self.M * self.cd() * self.dtn(n))

    def _rj_den(self):
        # R: the one denominator of every r_j(x); qR: the powers of
        # ab/(dq) by j and the two q-Pochhammer symbols
        def make():
            p, M = self.p, self.M
            a, b, d = p.a, p.b, p.d
            if p.family == R:
                return poch(p, d - a + 1, M) * poch(p, d - b + 1, M)
            q = p.q
            powers = [ipow(a * b / (d * q), j - 1) for j in range(1, M + 2)]
            return powers, poch(p, d * q / a, M), poch(p, d * q / b, M)

        return self._get("rj_den", make)

    def rj(self, j: int, x: int):
        """Pochhammer-ratio factor multiplying the bordered column entry in
        row j; exact: one rational of ``poch_pair`` products over
        ``_rj_den``, floats (qR): the per-entry order."""

        def make():
            p, M = self.p, self.M
            den = self._rj_den()
            if p.is_exact():
                tw = self._get("twisted", lambda: twist(p))
                a, b, ta, tb = ((v.numerator, v.denominator) for v in (p.a, p.b, tw.a, tw.b))
                fs = [poch_pair(p, u, j - 1, x) for u in (a, b)]
                fs += [poch_pair(p, u, M + 1 - j, x + j - 1) for u in (ta, tb)]
                dens = [den] if p.family == R else [den[0][j - 1], ipow(p.q, M * x), *den[1:]]
                fs += [(v.denominator, v.numerator) for v in dens]
                return rat(prod(f[0] for f in fs), prod(f[1] for f in fs))
            a, b, d, q = p.a, p.b, p.d, p.q
            qx = ipow(q, x)
            num = (
                poch(p, a * qx, j - 1)
                * poch(p, b * qx, j - 1)
                * poch(p, d * ipow(q, x + j) / a, M + 1 - j)
                * poch(p, d * ipow(q, x + j) / b, M + 1 - j)
            )
            powers, qa, qb = den
            return num / (powers[j - 1] * ipow(q, M * x) * qa * qb)

        return self._get(("rj", j, x), make)

    def cofactors(self, x: int) -> tuple:
        """The M+1 cofactors of the bordered column at x (exact tuples):
        ([c_1, ..., c_(M+1)], F) with cof_j(x) = c_j/F; for virtual-state
        rows cleared to U_i/f_i, F = prod f_i and c_j = f_j*det[U | e_j] by
        one ``bordered_dets``.  The last is the M x M Casoratian."""

        def make():
            M = self.M
            us, fs = _cleared_int_rows([self.xi_row(x + i) for i in range(M + 1)])
            units = [[int(i == j) for j in range(M + 1)] for i in range(M + 1)]
            dets = bordered_dets([u + e for u, e in zip(us, units)])
            return [f * v for f, v in zip(fs, dets)], prod(fs)

        return self._get(("cof", x), make)

    def cofactor_weights(self, x: int) -> tuple:
        """The cofactor weights at x cleared to integers: ((W_1, ...,
        W_(M+1)), L) with W_j / L = cof_j(x) * r_j(x) / varphi_(M+1)(x),
        each reduced by one gcd."""

        def make():
            phi = self.varphi(x, self.M + 1)
            cs, F = self.cofactors(x)
            row = []
            for j, c in enumerate(cs, start=1):
                r = self.rj(j, x)
                num, den = c * r.numerator * phi.denominator, F * r.denominator * phi.numerator
                g = gcd(num, den)
                row.append((num // g, den // g))
            L = lcm(*[den for _, den in row])
            return [num * (L // den) for num, den in row], L

        return self._get(("weights", x), make)

    def base_row(self, n: int, size: int) -> tuple:
        """The base values P_n(0..size-1) cleared by one lcm: (U, F) with
        P_n(y) = U[y] / F."""
        (us,), (den,) = _cleared_int_rows([[self.base_column(y)[n] for y in range(size)]])
        return us, den

    def pdn_row(self, n: int, size: int) -> list:
        """Grid values P_(D,n)(0..size-1) of an exact tuple: at each x the
        dot product of the cofactor weights with the cleared base values
        P_n(x..x+M), over C_(D,n); one rational per entry."""
        us, f = self.base_row(n, size + self.M)
        cdn = self.cdn(n)
        num, den = cdn.denominator, f * cdn.numerator
        row = []
        for x in range(size):
            ws, lx = self.cofactor_weights(x)
            row.append(rat(num * sum(map(mul, ws, us[x:x + len(ws)])), den * lx))
        return row

    def xi(self, x: int):
        """Grid value of the denominator polynomial of an exact tuple (any
        integer x): the last cofactor over C_D varphi_M(x), one rational."""
        cs, F = self.cofactors(x)
        v = self.cd() * self.varphi(x, self.M)
        return rat(cs[-1] * v.denominator, F * v.numerator)

    def pdn(self, n: int, x: int):
        """Grid value of the deformed polynomial via the bordered determinant,
        the per-entry route of float tuples; only the last column,
        r_j(x) * P_n(x+j-1), depends on n, so the M virtual-state columns
        are eliminated once per x."""
        M = self.M
        column = [self.rj(j, x) * self.base_column(x + j - 1)[n] for j in range(1, M + 2)]
        elim = self._get(("elim", x), lambda: LeadingElimination(
            [self.xi_row(x + j) for j in range(M + 1)]
        ))
        return elim.det(column) / (self.cdn(n) * self.varphi(x, M + 1))


def leading_xi(D: Sequence[int], p: ParamSet):
    """Closed-form leading coefficient of the denominator polynomial, read
    at the twisted parameters, where ``c_n`` gives each virtual-state
    polynomial's."""
    tw = twist(p)
    us, dt = (tw.a, tw.b, tw.c), tw.dtilde
    acc = 1
    for j, dj in enumerate(D):
        acc = acc * c_n(dj, tw) * prod(poch(p, u, j) for u in us)
        for dk in D[j + 1:]:
            acc = acc / factor(p, dt, dj + dk)
    return acc


def leading_pdn_table(D: Sequence[int], p: ParamSet, lead_xi) -> tuple:
    """Closed-form leading coefficients of P_(D,n), n = 0..N; ``lead_xi``
    is ``leading_xi(D, p)``, which does not depend on n.

    The coefficient is lead_xi * c_n * prod_j (c+j-1)/(c+d_j+n) (R; for qR
    (1-c*q^(j-1))/(1-c*q^(d_j+n))).  The table starts at n = 0, where
    c_0 = 1, and steps by the ratio of consecutive coefficients,
    c_(n+1)/c_n = (dt+2n)(dt+2n+1) / ((dt+n)(a+n)(b+n)(c+n)) (R; for qR
    (1-dt*q^(2n))(1-dt*q^(2n+1)) / ((1-dt*q^n)(1-a*q^n)(1-b*q^n)(1-c*q^n))),
    times prod_j (c+d_j+n)/(c+d_j+n+1), so each step is O(M), not O(n):
    one rational of integer factor pairs (``params.factor_pair``).

    No divisor vanishes for a tuple that passes ``validate``, n < N.  For
    R: a+n = n-N < 0; c > 0; d+max(D)+1 < a+b gives a+b-d-1 > 0, so
    dt = (a+b-d-1)+c > 0 and b > d+1-a > 0.  For qR, with 0 < q < 1:
    1-a*q^n = 1-q^(n-N) != 0; qd < c < 1; ab < d*q^(max(D)+1) < 1 with
    a > 1 gives 0 < b < 1 and 0 < dt = abc/(dq) < c < 1.  Where a divisor
    does vanish, ZeroDenominator.
    """
    a, b, c, dt = ((v.numerator, v.denominator) for v in (p.a, p.b, p.c, p.dtilde))

    def ratio(ups, downs, n):
        # prod f(ups) / prod f(downs) as an integer pair, f = factor_pair
        us, ds = [factor_pair(p, *uk) for uk in ups], [factor_pair(p, *uk) for uk in downs]
        den = prod(f[0] for f in ds)
        if den == 0:
            raise ZeroDenominator(f"leading coefficient of P_(D,{n}) divides by zero")
        return prod(f[0] for f in us) * prod(f[1] for f in ds), prod(f[1] for f in us) * den

    num, den = ratio([(c, j) for j in range(len(D))], [(c, dj) for dj in D], 0)
    out = [rat(lead_xi.numerator * num, lead_xi.denominator * den)]
    for n in range(p.N):
        num, den = ratio(
            [(dt, 2 * n), (dt, 2 * n + 1)] + [(c, dj + n) for dj in D],
            [(dt, n), (a, n), (b, n), (c, n)] + [(c, dj + n + 1) for dj in D],
            n + 1,
        )
        out.append(rat(out[-1].numerator * num, out[-1].denominator * den))
    return tuple(out)


class MISystem(NamedTuple):
    """A fully built and internally verified deformed polynomial system."""

    params: ParamSet
    D: Tuple[int, ...]
    xi_poly: Poly
    pdn_polys: Tuple[Poly, ...]
    xi_grid: Dict[int, object]          # x -> Xi(x; lambda), x = 0..N+1
    pdn_grid: Tuple[tuple, ...]         # [n][x], x = 0..N; row 0 is Xi(x; lambda+delta)
    dDn_sq: Tuple                       # full squared norms
    weights: Tuple                      # orthogonality weights, x = 0..N

    @property
    def M(self) -> int:
        return len(self.D)

    @property
    def ellD(self) -> int:
        return ell(self.D)

    def bd(self, x: int):
        """Deformed birth-type potential; Xi_D(lambda+delta) read as P_(D,0)."""
        p, M = self.params, self.M
        base = potential(x, shift(p, M, "tilde"), "B")
        if base == 0:
            return base
        ground = self.pdn_grid[0]
        return base * self.xi_grid[x] / self.xi_grid[x + 1] * ground[x + 1] / ground[x]

    def dd(self, x: int):
        """Deformed death-type potential; Xi_D(lambda+delta) read as P_(D,0)."""
        p, M = self.params, self.M
        base = potential(x, shift(p, M, "tilde"), "D")
        if base == 0:
            return base
        ground = self.pdn_grid[0]
        return base * self.xi_grid[x + 1] / self.xi_grid[x] * ground[x - 1] / ground[x]


def build_mi_system(p: ParamSet, D: Sequence[int]) -> MISystem:
    violations = validate(p, D)
    if violations:
        raise InadmissibleParams(f"parameter ranges violated: {violations}")
    D = index_set(D)  # virtual-state degrees: strictly increasing, positive
    M, ellD, N = len(D), ell(D), p.N
    p_ximinus = shift(p, M - 1, "delta")
    p_pdn = shift(p, M, "delta")
    p_delta = shift(p, 1, "delta")
    tab = GridTable(D, p)

    xi_grid = {x: tab.xi(x) for x in range(max(N + 2, ellD + 1))}
    if xi_grid[0] != 1:
        raise CrossCheckMismatch(f"denominator polynomial is {xi_grid[0]} at x=0, not 1")
    for x in range(N + 1):
        if not xi_grid[x] > 0:
            raise InadmissibleParams(f"denominator polynomial not positive at x={x}")

    xi_poly = interpolate(
        [eta(x, p_ximinus) for x in range(ellD + 1)],
        [xi_grid[x] for x in range(ellD + 1)],
    )
    lead_xi = leading_xi(D, p)
    if (xi_poly.degree or 0) != ellD or xi_poly[ellD] != lead_xi:
        raise DegreeMismatch("denominator polynomial degree/leading coefficient")
    # certify the interpolant against the determinant route past its nodes
    past = range(ellD + 1, N + 2)
    for x, v in zip(past, xi_poly.values([eta(x, p_ximinus) for x in past])):
        if v != xi_grid[x]:
            raise CrossCheckMismatch(f"denominator interpolant misses the grid at x={x}")

    pdn_polys: List[Poly] = []
    pdn_grid: List[tuple] = []
    etas = [eta(x, p_pdn) for x in range(ellD + N + 1)]
    leads = leading_pdn_table(D, p, lead_xi)
    for n in range(N + 1):
        deg = ellD + n
        row = tab.pdn_row(n, max(deg, N) + 1)
        pol = interpolate(etas[: deg + 1], row[: deg + 1])
        if (pol.degree or 0) != deg or pol[deg] != leads[n]:
            raise DegreeMismatch(f"deformed polynomial n={n} degree/leading coefficient")
        for x, v in zip(range(deg + 1, N + 1), pol.values(etas[deg + 1 : N + 1])):
            if v != row[x]:
                raise CrossCheckMismatch(
                    f"deformed polynomial n={n} interpolant misses the grid at x={x}"
                )
        if row[0] != 1:
            raise CrossCheckMismatch(f"deformed polynomial n={n} is {row[0]} at x=0, not 1")
        pdn_polys.append(pol)
        pdn_grid.append(tuple(row[: N + 1]))

    tab_delta = GridTable(D, p_delta)
    for x in range(N + 1):
        if pdn_grid[0][x] != tab_delta.xi(x):
            raise CrossCheckMismatch(
                f"ground state differs from the shifted denominator at x={x}"
            )

    dtn = [tab.dtn(n) for n in range(N + 1)]
    dDn = [v * t for v, t in zip(dn_sq_table(p), dtn)]
    weights = []
    for x, phi0 in enumerate(phi0_sq_table(shift(p, M, "tilde"))):
        w = phi0 / (xi_grid[x] * xi_grid[x + 1])
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
        pdn_grid=tuple(pdn_grid),
        dDn_sq=tuple(dDn),
        weights=tuple(weights),
    )


def verify_ortho(s: MISystem) -> list:
    """Exact residuals of the weighted orthogonality sums; empty = pass."""
    return gram_residuals(s.pdn_grid, s.weights, [1 / v for v in s.dDn_sq])


def sign_changes(seq: Sequence) -> int:
    """Sign changes of seq over its nonzero entries.  On a P_(D,n) row or a
    dual column, a three-term relation whose off-diagonal coefficients have
    one sign puts every zero strictly inside, between entries of opposite
    sign, so skipping it loses no change."""
    signs = [v > 0 for v in seq if v != 0]
    return sum(u != v for u, v in zip(signs, signs[1:]))
