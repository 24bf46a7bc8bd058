"""Determinant-built deformed systems: normalization, orthogonality,
difference equations, norms, oscillation counts."""

import os
import re
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from dualracah import basefamily, multiindexed, report
from dualracah.backend import rat
from dualracah.basefamily import racah_value, rec_coeffs
from dualracah.errors import (
    CrossCheckMismatch,
    DegreeMismatch,
    IndexOutOfRange,
    InadmissibleParams,
    NonPositiveWeight,
    ZeroDenominator,
)
from dualracah import linalg
from dualracah.multiindexed import (
    GridTable,
    MISystem,
    build_mi_system,
    leading_pdn_table,
    leading_xi,
    sign_changes,
    verify_ortho,
)
from dualracah.params import QR, R, ell, eta, make_params, shift, twist, validate
from dualracah.pipeline import Pipeline
from dualracah.qlimit import LADDER_KS, QSumColumns, float_tables, matched_q_params
from comparators import (
    dtn_sq_value,
    elimination_cofactors,
    generic_det,
    leading_pdn,
    leading_xi_per_family,
    norm_const_cd,
    rj_den_per_family,
    rj_factor,
    varphi_m,
)
from conftest import per_entry_pdn, per_entry_xi, std_params, verify_difference_eq

FAMILIES = (R, QR)
INDEX_SETS = ((1,), (2,), (1, 2))


def test_rj_factor_range():
    p = std_params(R, 5)
    with pytest.raises(IndexOutOfRange):
        rj_factor(0, 0, 1, p)
    with pytest.raises(IndexOutOfRange):
        rj_factor(3, 0, 1, p)


@pytest.mark.parametrize("family", FAMILIES)
def test_empty_index_set_reduces_to_base(family):
    p = std_params(family, 5)
    s = build_mi_system(p, ())
    assert s.xi_poly.degree in (0, None) and s.xi_poly(rat(7)) == 1
    for n in range(p.N + 1):
        for x in range(p.N + 1):
            assert s.pdn_grid[n][x] == racah_value(n, x, p)


def test_inadmissible_rejected():
    p = make_params(R, 5, b=6, c=rat(1, 2), d=rat(2, 5))  # a+b = 1 < d+max(D)+1
    with pytest.raises(InadmissibleParams):
        build_mi_system(p, (2,))


@pytest.mark.parametrize("D", [(0,), (0, 1), (-1,), (2, 1)])
def test_index_set_outside_the_range_rejected(D):
    """The virtual-state degrees must be strictly increasing and positive,
    also for a system built directly rather than from a config."""
    with pytest.raises(IndexOutOfRange, match="strictly increasing positive"):
        build_mi_system(std_params(R, 5), D)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_normalization_and_degrees(family, D, pipe):
    s = pipe(family, 6, D).system()
    assert (s.xi_poly.degree or 0) == s.ellD
    for n in range(7):
        assert s.pdn_grid[n][0] == 1
        assert (s.pdn_polys[n].degree or 0) == s.ellD + n
    assert s.xi_grid[0] == 1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_positivity(family, D, pipe):
    s = pipe(family, 6, D).system()
    for x in range(7):
        assert s.xi_grid[x] > 0
        assert s.weights[x] > 0
    for n in range(7):
        assert s.dDn_sq[n] > 0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_ground_state_is_shifted_denominator(family, D, pipe):
    """The shifted table's Xi_D(x; lambda+delta) is the per-entry
    determinant on x = -1..N+1 and the ground state P_(D,0)(x) on 0..N,
    which is where the deformed potentials read it; the system keeps no
    copy of it."""
    N = 6
    p_delta = shift(std_params(family, N), 1, "delta")
    tab_delta = GridTable(D, p_delta)
    s = pipe(family, N, D).system()
    assert not hasattr(s, "xi_grid_delta")
    for x in range(-1, N + 2):
        assert tab_delta.xi(x) == per_entry_xi(x, D, p_delta)
    assert s.pdn_grid[0] == tuple(tab_delta.xi(x) for x in range(N + 1))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_orthogonality(family, D, pipe):
    assert verify_ortho(pipe(family, 6, D).system()) == []


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_difference_equation(family, D, pipe):
    """Divided by P_0 the difference equations are the dual recurrence."""
    assert pipe(family, 6, D).dual().recurrence_residual == []
    assert verify_difference_eq(pipe(family, 6, D).system()) == []


def _mi_failures(s, monkeypatch):
    """The mi suite's failure list for the system s, built under the
    current patches."""
    monkeypatch.setattr(multiindexed, "build_mi_system", lambda p, D: s)
    return report._suite_mi(None, Pipeline(s.params, s.D))["failures"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [5, 10])
@pytest.mark.parametrize("D", [(1,), (1, 2)])
@pytest.mark.parametrize("fault", ["none", "bd", "dd", "value"])
def test_mi_suite_difference_equation_matches_oracle(family, N, D, fault, pipe, monkeypatch):
    """The mi suite lists the dual table's recurrence residual, scaled by
    P_0(x), as the difference-equation failures [n, x, residual]: the same
    entries in the same order as the rational oracle, with and without a
    corrupted potential or table value."""
    s = pipe(family, N, D).system()
    if fault in ("bd", "dd"):
        orig = getattr(MISystem, fault)
        monkeypatch.setattr(MISystem, fault, lambda self, x: orig(self, x) + (x == 3) * rat(1, 3))
    elif fault == "value":
        row = list(s.pdn_grid[2])
        row[3] += rat(1, 7)
        s = s._replace(pdn_grid=s.pdn_grid[:2] + (tuple(row),) + s.pdn_grid[3:])
    oracle = [list(map(str, f)) for f in verify_difference_eq(s)]
    ortho = [list(map(str, f)) for f in verify_ortho(s)]
    fails = _mi_failures(s, monkeypatch)
    assert (oracle == []) == (fault == "none")
    signs = [f for f in fails if f[0] == "sign-changes"]
    assert fails == ortho + oracle + signs


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_oscillation_counts(family, D, pipe):
    s = pipe(family, 6, D).system()
    for n in range(7):
        assert sign_changes([s.pdn_grid[n][x] for x in range(7)]) == n


@pytest.mark.parametrize("family", FAMILIES)
def test_norm_ratio_closed_form(family, pipe):
    """d^2 ratio against the independent route through the base recurrence
    data: d_n^2/d_0^2 = prod A_{m}/C_{m+1} times the deformation factors."""
    s = pipe(family, 6, (1, 2)).system()
    p = s.params
    tab = GridTable(s.D, p)
    for n in range(1, 7):
        ratio = s.dDn_sq[n] / s.dDn_sq[0]
        expect = tab.dtn(n) / tab.dtn(0)
        acc = rat(1)
        for m in range(n):
            up, _, _ = rec_coeffs(m, p)
            _, _, low = rec_coeffs(m + 1, p)
            acc = acc * up / low
        assert ratio == expect * acc


@pytest.mark.parametrize("family", FAMILIES)
def test_boundary_potentials_vanish(family, pipe):
    s = pipe(family, 6, (1,)).system()
    assert s.bd(s.params.N) == 0
    assert s.dd(0) == 0


def test_checker_flags_corruption(pipe):
    s = pipe(R, 5, (1,)).system()
    weights = list(s.weights)
    weights[2] = weights[2] + 1
    corrupt = type(s)(
        params=s.params, D=s.D, xi_poly=s.xi_poly, pdn_polys=s.pdn_polys,
        xi_grid=s.xi_grid, pdn_grid=s.pdn_grid,
        dDn_sq=s.dDn_sq, weights=tuple(weights),
    )
    fails = verify_ortho(corrupt)
    assert fails and all(isinstance(f[0], int) for f in fails)


def test_sign_changes_basics():
    """Sign changes are counted over the nonzero entries: a zero between
    opposite signs is one change, a zero between equal signs none."""
    assert sign_changes([rat(1), rat(1), rat(1)]) == 0
    assert sign_changes([rat(1), rat(-1), rat(1)]) == 2
    assert sign_changes([rat(1), rat(0), rat(-1), rat(0), rat(1)]) == 2
    assert sign_changes([rat(1), rat(0), rat(1)]) == 0
    assert sign_changes([rat(1), rat(0)]) == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_value_route_matches_interpolant_off_grid(family, pipe):
    s = pipe(family, 5, (1, 2)).system()
    p = s.params
    for n in (0, 3, 5):
        x = p.N + 1
        assert s.pdn_polys[n](eta(x, shift(p, s.M, "delta"))) == GridTable(s.D, p).pdn(n, x)


@pytest.mark.parametrize("family", FAMILIES)
def test_denominator_positive_beyond_grid(family, pipe):
    # positivity extends to x = N+1, which the weights at x = N rely on
    s = pipe(family, 6, (1, 2)).system()
    assert s.xi_grid[s.params.N + 1] > 0
    assert GridTable(s.D, s.params).xi(0) == 1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", ((),) + INDEX_SETS)
@pytest.mark.parametrize("N", [4, 5, 6])
def test_table_matches_per_entry_route(family, D, N, pipe):
    p = std_params(family, N)
    tab = GridTable(D, p)
    s = pipe(family, N, D).system()
    for x in range(N + 2):
        assert tab.xi(x) == per_entry_xi(x, D, p) == s.xi_grid[x]
    for n in range(N + 1):
        for x in range(N + 1):
            v = per_entry_pdn(n, x, D, p)
            assert tab.pdn(n, x) == v == GridTable(D, p).pdn(n, x) == s.pdn_grid[n][x]
        assert s.dDn_sq[n] == basefamily.dn_sq_table(p)[n] * tab.dtn(n)


def _tuple_for_three_indices(family, N):
    """An admissible tuple for D = (1, 2, 3)."""
    if family == R:
        return std_params(R, N)
    q = rat(1, 2)
    return make_params(QR, N, b=q ** (N + 7), c=rat(1, 2), d=rat(2, 5), q=q)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(), (1,), (2,), (1, 2), (1, 3), (1, 2, 3)])
@pytest.mark.parametrize("N", [1, 6, 11])
def test_leading_xi_matches_per_family_form(family, D, N):
    """leading_xi, written once through ``basefamily.poch``, is the
    rational of its per-family Pochhammer form."""
    p = _tuple_for_three_indices(family, N)
    assert validate(p, D) == []
    assert leading_xi(D, p) == leading_xi_per_family(D, p)


@pytest.mark.parametrize("precision", [53, 256])
@pytest.mark.parametrize("k", LADDER_KS)
def test_float_rj_factors_are_bit_identical(k, precision):
    """On the q->1 ladder every r_j(x) and its held denominator round as
    the per-family q-Pochhammer route did."""
    p = matched_q_params(std_params(R, 6), k, precision)
    with mpmath.workprec(precision):
        for D in ((), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)):
            M = len(D)
            tab = GridTable(D, p, QSumColumns)
            powers, qa, qb = tab._rj_den()
            old_powers, old_qa, old_qb = rj_den_per_family(M, p)
            assert [v._mpf_ for v in powers] == [v._mpf_ for v in old_powers]
            assert (qa._mpf_, qb._mpf_) == (old_qa._mpf_, old_qb._mpf_)
            for x in range(p.N + 1):
                for j in range(1, M + 2):
                    assert tab.rj(j, x)._mpf_ == rj_factor(j, x, M, p)._mpf_


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_rj_keeps_the_rational_unit(family):
    """With no factor left (M = 0) r_1(x) is the typed unit over the typed
    unit: a rational, not a Python float."""
    p = std_params(family, 4)
    tab = GridTable((), p)
    assert tab._rj_den() == rj_den_per_family(0, p)
    for x in range(p.N + 1):
        v = tab.rj(1, x)
        assert type(v) is Fraction and v == 1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(), (1,), (1, 2), (1, 2, 3)])
def test_table_factors_equal_per_entry_functions(family, D):
    """The pieces GridTable forms once per table give the per-entry
    factors exactly: varphi by extension, dtn and C_D from the held pairs
    and ratio, r_j(x) over the held denominator."""
    N = 5
    p = _tuple_for_three_indices(family, N)
    assert validate(p, D) == []
    M = len(D)
    tab = GridTable(D, p)
    for x in range(-1, N + 3):
        for m in range(M + 2):
            assert tab.varphi(x, m) == varphi_m(x, m, p)
        for j in range(1, M + 2):
            assert tab.rj(j, x) == rj_factor(j, x, M, p)
    assert tab.cd() == norm_const_cd(D, p)
    for n in range(N + 1):
        assert tab.dtn(n) == dtn_sq_value(n, D, p)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", ((),) + INDEX_SETS + ((1, 2, 3),))
@pytest.mark.parametrize("N", [1, 5, 10])
def test_cofactor_route_matches_per_entry_route(family, D, N):
    """The exact build's grids, from the cofactor weights and the cleared
    base values, are the per-entry bordered eliminations' rationals: every
    P_(D,n)(x) that the interpolation reads, past the grid too
    (x <= ell_D + N), and every Xi_D(x) of the build (x <= N + 1)."""
    p = _tuple_for_three_indices(family, N)
    oracle, tab = GridTable(D, p), GridTable(D, p)
    top = ell(D) + N
    for n in range(N + 1):
        row = tab.pdn_row(n, top + 1)
        assert all(type(v) is Fraction for v in row)
        assert row == [oracle.pdn(n, x) for x in range(top + 1)]
    s = build_mi_system(p, D)
    assert sorted(s.xi_grid) == list(range(max(N + 2, ell(D) + 1)))
    for x, v in s.xi_grid.items():
        assert type(v) is Fraction and v == oracle.xi(x)
    for n in range(N + 1):
        assert s.pdn_grid[n] == tuple(oracle.pdn(n, x) for x in range(N + 1))


def _counted(monkeypatch, owner, names):
    """Count the calls of the named methods of owner."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(owner, name)

        def counting(self, *args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(owner, name, counting)
    return calls


def test_exact_build_takes_cofactors_once_per_x(monkeypatch):
    """An exact build takes one integer elimination per x of the main grid
    (x <= ell_D + N), which gives all M+1 cofactors, and one per x of the
    shifted denominator (0 <= x <= N, where the ground state is certified
    against it): O(N) eliminations, not one per (n, x).  It never takes
    the per-entry route GridTable.pdn."""
    dets = []
    orig = multiindexed.bordered_dets
    monkeypatch.setattr(multiindexed, "bordered_dets", lambda rows: dets.append(rows) or orig(rows))
    routes = _counted(monkeypatch, GridTable, ["pdn", "xi"])
    N, D = 10, (1, 2)
    build_mi_system(std_params(R, N), D)
    top = ell(D) + N
    assert len(dets) == (top + 1) + (N + 1) == 24
    assert routes == {"pdn": 0, "xi": (N + 2) + (N + 1)}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(), (1,), (2,), (1, 2), (1, 3), (1, 2, 3)])
@pytest.mark.parametrize("N", [1, 5, 10])
def test_integer_cofactors_equal_the_rational_elimination(family, D, N):
    """The integer cofactors at x = -1..ell_D+N are the recorded rational
    elimination's cofactors of the same virtual-state rows, and Xi_D(x) on
    the main and the shifted table is the whole rational elimination's
    M x M determinant over C_D varphi_M(x)."""
    p = _tuple_for_three_indices(family, N)
    M = len(D)
    for t in (p, shift(p, 1, "delta")):
        tab = GridTable(D, t)
        for x in range(-1, ell(D) + N + 1):
            rows = [tab.xi_row(x + i) for i in range(M + 1)]
            cs, F = tab.cofactors(x)
            assert [rat(c, F) for c in cs] == elimination_cofactors(rows)
            det = generic_det(rows[:M])
            assert tab.xi(x) == det / (norm_const_cd(D, t) * varphi_m(x, M, t))


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_build_constructs_no_leading_elimination(family, monkeypatch):
    """A cost guard: LeadingElimination is the float route's kernel; an
    exact build, main and shifted table alike, constructs none."""
    made = _counted(monkeypatch, linalg.LeadingElimination, ["__init__"])
    build_mi_system(_tuple_for_three_indices(family, 6), (1, 2, 3))
    assert made == {"__init__": 0}


def test_float_tables_take_the_per_entry_route(monkeypatch):
    """The q->1 float tables go through GridTable.pdn only: the q->1 gaps
    pin the per-entry elimination's operation order."""
    calls = _counted(monkeypatch, GridTable,
                     ["pdn", "pdn_row", "cofactors", "cofactor_weights", "base_row"])
    N = 4
    float_tables(matched_q_params(std_params(R, N), 3, 53), (1, 2), 53)
    assert calls == {"pdn": (N + 1) ** 2, "pdn_row": 0, "cofactors": 0, "cofactor_weights": 0,
                     "base_row": 0}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
@pytest.mark.parametrize("N", [1, 6, 11])
def test_leading_coefficient_table_equals_product_form(family, D, N):
    p = std_params(family, N)
    lead = leading_xi(D, p)
    table = leading_pdn_table(D, p, lead)
    assert all(type(v) is Fraction for v in table)
    assert table == tuple(leading_pdn(n, D, p, lead) for n in range(N + 1))


@pytest.mark.parametrize("family,b,c,msg", [
    (R, rat(0), rat(1, 2), r"P_\(D,1\) divides by zero"),       # b + 0 = 0
    (R, rat(10), rat(-2), r"P_\(D,0\) divides by zero"),        # c + d_1 = 0
    (QR, rat(4), rat(1, 2), r"P_\(D,3\) divides by zero"),      # 1 - b*q^2 = 0
], ids=["R-b", "R-c", "qR-b"])
def test_leading_coefficient_table_refuses_a_zero_divisor(family, b, c, msg):
    """Outside the admissible ranges a ratio divisor may vanish: the table
    raises instead of dividing by it."""
    p = make_params(family, 5, b=b, c=c, d=rat(2, 5), q=rat(1, 2) if family == QR else None)
    assert validate(p, (2,)) != []
    with pytest.raises(ZeroDenominator, match=msg):
        leading_pdn_table((2,), p, rat(1))


def _twice(v):
    return 2 * v


def _twice_all(cleared):
    """Doubles every integer of a cleared (integers, denominator) pair."""
    ints, den = cleared
    return [2 * v for v in ints], den


def _twice_at(k):
    """Doubles integer k of a cleared (integers, denominator) pair."""

    def corrupt(cleared):
        ints, den = cleared
        return ints[:k] + [2 * ints[k]] + ints[k + 1:], den

    return corrupt


# Each fault corrupts one input of the build (the cofactors at one x, one
# cofactor weight, one cleared base value, or one held factor): (GridTable method, which calls it hits, how the result
# is corrupted, the message), so that exactly one build certification sees
# it, at R, N=5, D=(1,2).
FAULTS = {
    # doubled cofactors at x double Xi_D(x), checked before any P_(D,n)(x)
    "xi_at_zero": ("cofactors", lambda t, p, x: x == 0, _twice_all,
                   r"denominator polynomial is 2 at x=0, not 1"),
    "xi_interpolant": ("cofactors", lambda t, p, x: x == 6, _twice_all,
                       r"denominator interpolant misses the grid at x=6"),
    # one doubled cofactor weight (row j=1) changes P_(D,n)(5) for every n
    "pdn_off_nodes": ("cofactor_weights", lambda t, p, x: x == 5, _twice_at(0),
                      r"deformed polynomial n=0 interpolant misses the grid at x=5"),
    # a wrong first cofactor of the integer elimination at x=5 leaves
    # Xi_D(5), the last, alone and changes P_(D,n)(5) for every n
    "pdn_elimination": ("cofactors", lambda t, p, x: t.p == p and x == 5, _twice_at(0),
                        r"deformed polynomial n=0 interpolant misses the grid at x=5"),
    # one doubled cleared base value P_0(5): the entries at x=3, 4, 5 read
    # it, all past the nodes 0..2 of n=0
    "pdn_base_value": ("base_row", lambda t, p, n, size: n == 0, _twice_at(5),
                       r"deformed polynomial n=0 interpolant misses the grid at x=3"),
    # a doubled C_(D,n) halves P_2 on the whole grid; with a leading
    # coefficient that is wrong the same way, only the x=0 value shows it
    "pdn_at_zero": ("cdn", lambda t, p, n: n == 2, _twice, r"n=2 is 1/2 at x=0, not 1"),
    "ground_state": ("xi", lambda t, p, x: t.p != p and x == 3, _twice,
                     r"ground state differs from the shifted denominator at x=3"),
    # a doubled varphi_M(0)/varphi_(M+1)(0), held once per table, doubles
    # every C_(D,n): the closed-form leading coefficient of P_0 sees it
    "dtn_constant": ("varphi_ratio", lambda t, p: t.p == p, _twice,
                     r"deformed polynomial n=0 degree/leading coefficient"),
}

# the error a fault raises, where it is not CrossCheckMismatch
FAULT_ERRORS = {"dtn_constant": DegreeMismatch}


@contextmanager
def corrupted_table(fault):
    """GridTable (and, for pdn_at_zero, leading_pdn_table) with one input
    corrupted."""
    attr, hit, corrupt, _ = FAULTS[fault]
    p = std_params(R, 5)
    orig = getattr(GridTable, attr)
    orig_leads = multiindexed.leading_pdn_table

    def corrupted(self, *args):
        v = orig(self, *args)
        return corrupt(v) if hit(self, p, *args) else v

    def halved_lead(*args):
        leads = orig_leads(*args)
        return leads[:2] + (leads[2] / 2,) + leads[3:]

    setattr(GridTable, attr, corrupted)
    if fault == "pdn_at_zero":
        multiindexed.leading_pdn_table = halved_lead
    try:
        yield p, (1, 2)
    finally:
        setattr(GridTable, attr, orig)
        multiindexed.leading_pdn_table = orig_leads


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_corrupted_table_entry_raises(fault):
    with corrupted_table(fault) as (p, D):
        with pytest.raises(FAULT_ERRORS.get(fault, CrossCheckMismatch), match=FAULTS[fault][3]):
            build_mi_system(p, D)
    build_mi_system(p, D)  # the patch is gone again


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [2, 5, 9])
def test_exact_build_sums_virtual_states_at_their_nodes_only(family, N, monkeypatch):
    """A cost guard made of counts: an exact build sums ``racah_value`` only
    at the d_k+1 interpolation nodes of each virtual state, once each, on
    each of its two twisted tuples (the main and the shifted table), at
    every N."""
    calls = []
    orig = multiindexed.racah_value

    def counted(n, y, t):
        calls.append((n, y, t))
        return orig(n, y, t)

    monkeypatch.setattr(multiindexed, "racah_value", counted)
    p, D = std_params(family, N), (1, 2)
    build_mi_system(p, D)
    tuples = (twist(p), twist(shift(p, 1, "delta")))
    assert sorted(calls, key=str) == sorted(
        ((dk, y, t) for t in tuples for dk in D for y in range(dk + 1)), key=str
    )


def test_leading_xi_formed_once_per_build(monkeypatch):
    """The n-independent factor of every leading coefficient is formed once;
    a wrong factor in one label's closed form, or in the denominator's,
    still stops the build."""
    calls = []
    orig = multiindexed.leading_xi

    def counted(D, p):
        calls.append(D)
        return orig(D, p)

    monkeypatch.setattr(multiindexed, "leading_xi", counted)
    build_mi_system(std_params(R, 6), (1, 2))
    assert len(calls) == 1
    orig_table = multiindexed.leading_pdn_table
    monkeypatch.setattr(multiindexed, "leading_pdn_table", lambda D, p, lead: tuple(
        2 * v if n == 3 else v for n, v in enumerate(orig_table(D, p, lead))))
    with pytest.raises(DegreeMismatch, match=r"deformed polynomial n=3 degree/leading"):
        build_mi_system(std_params(R, 6), (1, 2))
    monkeypatch.setattr(multiindexed, "leading_xi", lambda D, p: 2 * orig(D, p))
    with pytest.raises(DegreeMismatch, match="denominator polynomial degree/leading coefficient"):
        build_mi_system(std_params(R, 6), (1, 2))


@pytest.mark.parametrize("family", FAMILIES)
def test_perturbed_recurrence_coefficient_raises(family, monkeypatch):
    """A wrong B_5 keeps the degree and the leading coefficient of every
    base column but breaks P_6(0) = 1, which the build certifies."""
    p = std_params(family, 8)

    def perturbed(n, q):
        A, B, C = rec_coeffs(n, q)
        return (A, B + rat(1, 7), C) if (n, q) == (5, p) else (A, B, C)

    monkeypatch.setattr(basefamily, "rec_coeffs", perturbed)
    with pytest.raises(CrossCheckMismatch, match=r"deformed polynomial n=6 is .* at x=0, not 1"):
        build_mi_system(p, (1, 2))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("fault,msg", [
    ("norm", "squared norm not positive"),
    ("weight", r"weight\(2\) = -"),
], ids=["norm", "weight"])
def test_nonpositive_norm_or_weight_raises(family, fault, msg, monkeypatch):
    """One negative squared norm, or one negative weight, stops the build;
    the Hamiltonian's similarity to a symmetric matrix rests on the
    positive norms.  The base norm d_2^2 is negated: the deformation factor
    also normalizes P_2, whose leading-coefficient check would fire first."""
    if fault == "norm":
        orig = multiindexed.dn_sq_table
        monkeypatch.setattr(
            multiindexed, "dn_sq_table", lambda p: [-v if n == 2 else v for n, v in enumerate(orig(p))]
        )
    else:
        orig = multiindexed.phi0_sq_table
        monkeypatch.setattr(
            multiindexed, "phi0_sq_table",
            lambda p: [-v if x == 2 else v for x, v in enumerate(orig(p))],
        )
    with pytest.raises(NonPositiveWeight, match=msg):
        build_mi_system(std_params(family, 5), (1,))


def test_build_certifications_survive_python_O():
    """Under -O every build certification still raises, with the message
    its fault test matches: none is an assert."""
    tests = Path(__file__).resolve().parent
    script = textwrap.dedent(
        """
        from dualracah.errors import CrossCheckMismatch, InadmissibleParams
        from dualracah.multiindexed import build_mi_system
        from dualracah.qlimit import matched_q_params
        from conftest import std_params
        from test_multiindexed import FAULT_ERRORS, FAULTS, corrupted_table

        assert False, "asserts must be stripped"
        for fault in sorted(FAULTS):
            with corrupted_table(fault) as (p, D):
                try:
                    build_mi_system(p, D)
                    print(fault, "passed")
                except FAULT_ERRORS.get(fault, CrossCheckMismatch) as e:
                    print(fault, "raised:", e)
        try:
            matched_q_params(std_params("qR", 4), 3, 53)
        except InadmissibleParams:
            print("matched_q_params raised")
        """
    )
    src = str(tests.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, str(tests), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    for fault, (*_, msg) in FAULTS.items():
        assert re.search(rf"^{fault} raised: .*{msg}", out, re.M), fault
    assert "matched_q_params raised" in out
