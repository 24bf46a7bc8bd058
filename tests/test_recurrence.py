"""Antiderivative map, the recurrence polynomial X, and its coefficients."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from math import comb, factorial
from pathlib import Path

import pytest

from dualracah import recurrence
from dualracah.backend import rat
from dualracah.basefamily import rec_coeffs
from dualracah.errors import (
    CrossCheckMismatch,
    NegativeYCoefficient,
    NonMonotone,
    ZeroPolynomial,
)
from dualracah.params import QR, R, ParamSet, eta, ipow, shift
from dualracah.poly import Poly
from dualracah.recurrence import (
    build_X,
    extract_r,
    verify_recurrence,
    xhat_minus1,
)
from conftest import SEEDS, Y_ETA, Y_ONE, r_by_solve, std_params

FAMILIES = (R, QR)
MATRIX = [(D, y) for D in ((1,), (2,), (1, 2)) for y in ("1", "eta")]


# The antiderivative by its hand-expanded coefficient formulas: a route to X
# independent of the interpolated sums, kept as a test oracle for build_X.


def _comb0(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def gprime(n: int, k: int, p: ParamSet):
    """Coefficients expanding a divided power difference of eta over the
    back-shifted parameter set; the engine of the antiderivative map."""
    d = p.d
    total = d * 0
    if p.family == R:
        half_d_sq = d * d / 4
        half_dm1_sq = (d - 1) * (d - 1) / 4
        for r in range(k + 1):
            for l in range(k - r + 1):
                outer = _comb0(n + 1, r) * _comb0(n - r - l, n - k)
                if outer == 0:
                    continue
                gw = rat((-1) ** l * comb(2 * (n - r) + 2, 2 * l + 1), 2 ** (2 * l + 1))
                total = total + (
                    outer
                    * (-1) ** (r + l)
                    * half_d_sq ** r
                    * half_dm1_sq ** (k - r - l)
                    * gw
                )
        return total
    q = p.q
    for r in range(k + 1):
        for l in range(0, k - r + 1, 2):
            outer = _comb0(n + 1, r) * _comb0(n - r - l, n - k)
            if outer == 0:
                continue
            m = n - r
            # inner sum with the half-powers of q already cancelled against
            # the outer factor (l is even, so d**(l//2) is exact)
            inner = q * 0
            for s in range(l // 2 + 1):
                cb = _comb0(m - l + s, s)
                if cb == 0:
                    continue
                inner = inner + (
                    cb
                    * (-1) ** s
                    * ipow(q, -s)
                    / (factorial(l // 2 - s) * factorial(m - l // 2 + 1 + s))
                    * (1 - ipow(q, m - l + 1 + 2 * s))
                    / (1 - q)
                )
            total = total + (
                outer
                * (-1) ** r
                * ipow(d, l // 2)
                * (1 + d) ** r
                * (1 + d / q) ** (k - r - l)
                * factorial(m + 1)
                * inner
            )
    return total


def map_I(pol: Poly, p: ParamSet) -> Poly:
    """Discrete antiderivative by the hand-expanded coefficient formulas:
    raises degree by one, constant term zero."""
    n = pol.degree
    b = [rat(0)] * (n + 2)
    for k in range(n, -1, -1):
        acc = pol[k]
        for j in range(k + 1, n + 1):
            acc = acc - gprime(j, j - k, p) * b[j + 1]
        b[k + 1] = acc / gprime(k, 0, p)
    return Poly(b)


@pytest.mark.parametrize("family", FAMILIES)
def test_antiderivative_defining_property(family):
    """I raises eta^n to a degree-(n+1) polynomial whose backward difference
    of compositions reproduces the integrand on the lattice."""
    p = std_params(family, 6)
    for n in range(4):
        mono = Poly([rat(0)] * n + [rat(1)])
        anti = map_I(mono, p)
        assert anti.degree == n + 1 and anti[0] == 0
        p_prev = shift(p, -1, "delta")
        for x in range(1, p.N + 1):
            step = anti(eta(x, p)) - anti(eta(x - 1, p))
            gap = eta(x, p) - eta(x - 1, p)
            assert step == gap * mono(eta(x, p_prev))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(), (1,), (2,), (1, 2)])
@pytest.mark.parametrize("y", ["1", "eta", "1+2eta+3eta^2"])
@pytest.mark.parametrize("N", [3, 4, 6])
def test_build_x_matches_coefficient_formulas(family, D, y, N, pipe):
    """X interpolated through its defining sums is the polynomial that the
    hand-expanded antiderivative formulas give.  N=3 with D=(2,) or (1,2)
    and the quadratic seed has L=5 > N+1: every grid point is a node."""
    seed = {**SEEDS, "1+2eta+3eta^2": Poly([rat(1), rat(2), rat(3)])}[y]
    s = pipe(family, N, D).system()
    xp = build_X(s, seed)
    assert xp.poly == map_I(s.xi_poly * seed, shift(s.params, s.M, "delta"))


def test_zero_seed_rejected(pipe):
    with pytest.raises(ZeroPolynomial):
        build_X(pipe(R, 5, (1,)).system(), Poly.zero())


@pytest.mark.parametrize("family", FAMILIES)
def test_base_case_reduces_to_three_term(family, pipe):
    """With no deformation and trivial seed the band is tridiagonal and the
    coefficients are the classical recurrence triple."""
    s = pipe(family, 6, ()).system()
    xp = pipe(family, 6, ()).xpoly(Y_ONE)
    t = pipe(family, 6, ()).rectable(Y_ONE)
    assert t.L == 1
    for n in range(7):
        up, mid, low = rec_coeffs(n, s.params)
        if n < 6:
            assert t.r[(n, 1)] == up
        assert t.r[(n, 0)] == mid
        if n > 0:
            assert t.r[(n, -1)] == low


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D,y", MATRIX)
def test_recurrence_exact(family, D, y, pipe):
    s = pipe(family, 6, D).system()
    xp = pipe(family, 6, D).xpoly(SEEDS[y])
    t = pipe(family, 6, D).rectable(SEEDS[y])
    assert verify_recurrence(s, xp, t) == []


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D,y", MATRIX)
def test_bandwidth_and_row_sums(family, D, y, pipe):
    s = pipe(family, 6, D).system()
    xp = pipe(family, 6, D).xpoly(SEEDS[y])
    t = pipe(family, 6, D).rectable(SEEDS[y])
    assert t.L == s.ellD + xp.Y.degree + 1
    n_mid = 3
    if t.L <= 3:  # full band fits at the middle label
        assert len(list(t.band(n_mid))) == 1 + 2 * t.L
    for n in range(7):
        assert sum(t.r[(n, k)] for k in t.band(n)) == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_symmetry_relation(family, pipe):
    s = pipe(family, 6, (1,)).system()
    t = pipe(family, 6, (1,)).rectable(Y_ONE)
    for n in range(7):
        for k in t.band(n):
            if k > 0:
                assert t.r[(n + k, -k)] == s.dDn_sq[n] / s.dDn_sq[n + k] * t.r[(n, k)]


@pytest.mark.parametrize("family", FAMILIES)
def test_off_grid_value_closed_form(family, pipe):
    s = pipe(family, 6, (1,)).system()
    xp = pipe(family, 6, (1,)).xpoly(Y_ONE)
    p = s.params
    if family == R:
        assert xhat_minus1(xp, s) == -(p.d + s.M - 1)
    else:
        assert xhat_minus1(xp, s) == -(1 - p.q) * (1 - p.d * ipow(p.q, s.M - 1))


@pytest.mark.parametrize("family", FAMILIES)
def test_off_grid_value_zero_for_degenerate_seed(family, pipe):
    xp = pipe(family, 6, (1,)).xpoly(Y_ETA)
    s = pipe(family, 6, (1,)).system()
    assert xhat_minus1(xp, s) == 0


def test_polynomial_identity_fails_off_band(pipe):
    """The polynomial form of the recurrence is only claimed for labels with
    full band room; pushing it to the top label must break."""
    s = pipe(R, 6, (1,)).system()
    xp = pipe(R, 6, (1,)).xpoly(Y_ONE)
    t = pipe(R, 6, (1,)).rectable(Y_ONE)
    n = s.params.N
    lhs = xp.poly * s.pdn_polys[n]
    rhs = Poly.zero()
    for k in t.band(n):
        rhs = rhs + s.pdn_polys[n + k].scale(t.r[(n, k)])
    assert lhs != rhs  # off-grid disagreement
    for x in range(s.params.N + 1):  # ... yet on-grid equality
        assert lhs(s.eta_node(x)) == rhs(s.eta_node(x))


def test_negative_seed_rejected_for_hamiltonian(pipe):
    s = pipe(R, 5, (1,)).system()
    with pytest.raises(NegativeYCoefficient):
        build_X(s, Poly([rat(1), rat(-1)]), for_hamiltonian=True)


def test_negative_seed_allowed_for_recurrence_only(pipe):
    s = pipe(R, 5, (1,)).system()
    y = Poly([rat(3), rat(-1, 7)])
    xp = build_X(s, y, for_hamiltonian=False)
    t = extract_r(s, xp)
    assert verify_recurrence(s, xp, t) == []


@pytest.mark.parametrize("family", FAMILIES)
def test_x_monotone_for_hamiltonian_seeds(family, pipe):
    for y in ("1", "eta"):
        xp = pipe(family, 6, (1, 2)).xpoly(SEEDS[y])
        assert xp.monotone
        assert xp.grid[0] == 0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(), (1,), (2,), (1, 2)])
@pytest.mark.parametrize("y", ["1", "eta"])
@pytest.mark.parametrize("N", [3, 4, 6])
def test_extract_r_equals_solve_route(family, D, y, N, pipe):
    """The projected table is the one the overdetermined solves of the grid
    relations give, entry for entry."""
    s = pipe(family, N, D).system()
    xp = pipe(family, N, D).xpoly(SEEDS[y])
    assert extract_r(s, xp).r == r_by_solve(s, xp)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("corrupt", ["X", "weight"])
def test_corrupted_input_fails_band_recurrence(family, corrupt, pipe):
    """A wrong X grid value, or a wrong weight in the projections, gives a
    table that misses R @ P = P @ diag(X).  (The weight at x=0 meets
    X(0) = 0 and never enters a projection, so x=2 is corrupted.)"""
    s = pipe(family, 6, (1,)).system()
    xp = pipe(family, 6, (1,)).xpoly(Y_ONE)
    if corrupt == "X":
        xp = replace(xp, grid={**xp.grid, 3: xp.grid[3] + 1})
    else:
        s = replace(s, weights=s.weights[:2] + (2 * s.weights[2],) + s.weights[3:])
    msg = r"band recurrence misses the grid at \(n,x\)=\(\d+,\d+\)"
    with pytest.raises(CrossCheckMismatch, match=msg):
        extract_r(s, xp)


def _skew_table(key, delta):
    """A RecTable constructor that adds delta to one entry, applied after
    the projections have passed the grid check."""
    table = recurrence.RecTable

    def skewed(r, L, N):
        return table(r={**r, key: r[key] + delta}, L=L, N=N)

    return skewed


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("key,msg", [
    ((2, 1), r"mirror symmetry fails at \(n,k\)=\(2,1\)"),
    ((6, 0), "row 6 of the band does not sum to zero"),
])
def test_corrupted_r_entry_fails_band_identities(family, key, msg, pipe, monkeypatch):
    s = pipe(family, 6, (1,)).system()
    xp = pipe(family, 6, (1,)).xpoly(Y_ONE)
    monkeypatch.setattr(recurrence, "RecTable", _skew_table(key, rat(1, 3)))
    with pytest.raises(CrossCheckMismatch, match=msg):
        extract_r(s, xp)


@pytest.mark.parametrize("bend,msg", [
    (lambda f, nodes, vals: f(nodes, vals) + Poly([rat(1)]), "X has constant term 1, expected 0"),
    (lambda f, nodes, vals: f(nodes, vals) * Poly([0, 1]), "X has degree 3, expected L=2"),
    (lambda f, nodes, vals: f(nodes, vals[:-1] + [vals[-1] + 1]),
     "telescoping sum differs from X at x=2"),
])
def test_corrupted_antiderivative_fails_x_checks(bend, msg, pipe, monkeypatch):
    """A bent interpolant, or one through a corrupted last node value
    (x = L = 2), fails the degree, constant-term or telescoping check."""
    s = pipe(R, 6, (1,)).system()
    interpolate = recurrence.interpolate
    monkeypatch.setattr(
        recurrence, "interpolate", lambda nodes, vals: bend(interpolate, nodes, vals)
    )
    with pytest.raises(CrossCheckMismatch, match=msg):
        build_X(s, Poly([rat(1)]), for_hamiltonian=True)


@pytest.mark.parametrize("family", FAMILIES)
def test_negated_denominator_fails_monotonicity(family, pipe):
    """With Xi_D negated, X steps downwards although the seed is
    non-negative: NonMonotone."""
    s = pipe(family, 6, (1,)).system()
    bad = replace(s, xi_poly=-s.xi_poly, xi_grid={x: -v for x, v in s.xi_grid.items()})
    with pytest.raises(NonMonotone):
        build_X(bad, Y_ONE)


def test_band_identities_survive_python_O():
    """Under -O a corrupted X grid value, a corrupted r-table entry and a
    corrupted node value of X still raise: the identities that certify
    extract_r and build_X are explicit checks, not asserts."""
    script = textwrap.dedent(
        """
        from dataclasses import replace

        from dualracah import multiindexed, recurrence
        from dualracah.backend import rat
        from dualracah.errors import CrossCheckMismatch
        from dualracah.params import make_params
        from dualracah.poly import Poly

        assert False, "asserts must be stripped"
        s = multiindexed.build_mi_system(make_params("R", 5, b=10, c=rat(1, 2), d=rat(2, 5)), (1,))
        xp = recurrence.build_X(s, Poly([rat(1)]), for_hamiltonian=True)
        try:
            recurrence.extract_r(s, replace(xp, grid={**xp.grid, 3: xp.grid[3] + 1}))
        except CrossCheckMismatch as e:
            print("grid:", e)

        table = recurrence.RecTable

        def skewed(r, L, N):
            return table(r={**r, (1, 2): r[(1, 2)] + 1}, L=L, N=N)

        recurrence.RecTable = skewed
        try:
            recurrence.extract_r(s, xp)
        except CrossCheckMismatch as e:
            print("band:", e)

        interpolate = recurrence.interpolate
        recurrence.interpolate = lambda nodes, vals: interpolate(nodes, vals[:-1] + [vals[-1] + 1])
        try:
            recurrence.build_X(s, Poly([rat(1)]), for_hamiltonian=True)
        except CrossCheckMismatch as e:
            print("X:", e)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert "grid: band recurrence misses the grid at (n,x)=" in out
    assert "band: mirror symmetry fails at (n,k)=(1,2)" in out
    assert "X: telescoping sum differs from X at x=2" in out
