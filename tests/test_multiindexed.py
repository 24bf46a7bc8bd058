"""Determinant-built deformed systems: normalization, orthogonality,
difference equations, norms, oscillation counts."""

import copy
import os
import re
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

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
    ZeroEntry,
)
from dualracah.linalg import LeadingElimination
from dualracah.multiindexed import (
    GridTable,
    MISystem,
    build_mi_system,
    sign_changes,
    verify_ortho,
)
from dualracah.params import QR, R, eta, make_params, shift, validate
from dualracah.pipeline import Pipeline
from comparators import dtn_sq_value, norm_const_cd, rj_factor, varphi_m
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
    s = pipe(family, 6, D).system()
    for x in range(7):
        assert s.pdn_grid[0][x] == s.xi_grid_delta[x]


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
        s = replace(s, pdn_grid=s.pdn_grid[:2] + (tuple(row),) + s.pdn_grid[3:])
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
        xi_grid=s.xi_grid, xi_grid_delta=s.xi_grid_delta, pdn_grid=s.pdn_grid,
        dDn_sq=s.dDn_sq, weights=tuple(weights),
    )
    fails = verify_ortho(corrupt)
    assert fails and all(isinstance(f[0], int) for f in fails)


def test_sign_changes_basics():
    assert sign_changes([rat(1), rat(1), rat(1)]) == 0
    assert sign_changes([rat(1), rat(-1), rat(1)]) == 2
    with pytest.raises(ZeroEntry):
        sign_changes([rat(1), rat(0)])


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
    p_delta = shift(p, 1, "delta")
    tab, tab_delta = GridTable(D, p), GridTable(D, p_delta)
    s = pipe(family, N, D).system()
    for x in range(N + 2):
        assert tab.xi(x) == per_entry_xi(x, D, p) == s.xi_grid[x]
    for x in range(-1, N + 2):
        assert tab_delta.xi(x) == per_entry_xi(x, D, p_delta) == s.xi_grid_delta[x]
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


# Each fault corrupts one table entry or held factor (doubles it) so that
# exactly one build certification sees it, at R, N=5, D=(1,2).
FAULTS = {
    "xi_at_zero": ("xi", lambda t, p, x: t.p == p and x == 0,
                   r"denominator polynomial is 2 at x=0, not 1"),
    "xi_interpolant": ("xi", lambda t, p, x: t.p == p and x == 6,
                       r"denominator interpolant misses the grid at x=6"),
    "pdn_off_nodes": ("pdn", lambda t, p, n, x: (n, x) == (0, 5),
                      r"deformed polynomial n=0 interpolant misses the grid at x=5"),
    # a doubled pivot product of the virtual-state elimination at x=5
    # doubles P_(D,n)(5) for every n
    "pdn_elimination": ("elimination", lambda t, p, x: t.p == p and x == 5,
                        r"deformed polynomial n=0 interpolant misses the grid at x=5"),
    # a doubled C_(D,n) halves P_2 on the whole grid; with a leading
    # coefficient that is wrong the same way, only the x=0 value shows it
    "pdn_at_zero": ("cdn", lambda t, p, n: n == 2, r"n=2 is 1/2 at x=0, not 1"),
    "ground_state": ("xi", lambda t, p, x: t.p != p and x == 3,
                     r"ground state differs from the shifted denominator at x=3"),
    # a doubled varphi_M(0)/varphi_(M+1)(0), held once per table, doubles
    # every C_(D,n): the closed-form leading coefficient of P_0 sees it
    "dtn_constant": ("varphi_ratio", lambda t, p: t.p == p,
                     r"deformed polynomial n=0 degree/leading coefficient"),
}

# the error a fault raises, where it is not CrossCheckMismatch
FAULT_ERRORS = {"dtn_constant": DegreeMismatch}


@contextmanager
def corrupted_table(fault):
    """GridTable (and, for pdn_at_zero, leading_pdn) with one entry or
    factor doubled."""
    attr, hit, _ = FAULTS[fault]
    p = std_params(R, 5)
    orig = getattr(GridTable, attr)
    orig_lead = multiindexed.leading_pdn

    def corrupted(self, *args):
        v = orig(self, *args)
        if not hit(self, p, *args):
            return v
        if isinstance(v, LeadingElimination):
            v = copy.copy(v)
            v.product = 2 * v.product
            return v
        return 2 * v

    def halved_lead(n, *args):
        return orig_lead(n, *args) / (2 if n == 2 else 1)

    setattr(GridTable, attr, corrupted)
    if fault == "pdn_at_zero":
        multiindexed.leading_pdn = halved_lead
    try:
        yield p, (1, 2)
    finally:
        setattr(GridTable, attr, orig)
        multiindexed.leading_pdn = orig_lead


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_corrupted_table_entry_raises(fault):
    with corrupted_table(fault) as (p, D):
        with pytest.raises(FAULT_ERRORS.get(fault, CrossCheckMismatch), match=FAULTS[fault][2]):
            build_mi_system(p, D)
    build_mi_system(p, D)  # the patch is gone again


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
    orig_pdn = multiindexed.leading_pdn
    monkeypatch.setattr(multiindexed, "leading_pdn",
                        lambda n, D, p, lead: orig_pdn(n, D, p, 2 * lead if n == 3 else lead))
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
            matched_q_params(std_params("qR", 4), 3)
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
    for fault, (_, _, msg) in FAULTS.items():
        assert re.search(rf"^{fault} raised: .*{msg}", out, re.M), fault
    assert "matched_q_params raised" in out
