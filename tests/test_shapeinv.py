"""Semidefinite factorization and the shape-invariance verdicts.

The banded factorization and the banded residual are compared with the
dense routes (``comparators.dense_factor_upper`` and the whole-matrix
loops) with ``==``: the band leaves out only exact zeros.
"""

import mpmath
import pytest

from dualracah.bigreal import to_real
from dualracah.errors import CrossCheckMismatch, NegativePivot
from dualracah.params import QR, R
from dualracah.pipeline import Pipeline
from dualracah.shapeinv import (
    _bandwidth,
    builtin_candidates,
    check_candidate,
    factor_upper,
    si_test,
    symmetric_form,
)
from dualracah.errors import InadmissibleCandidate
from comparators import dense_factor_upper, hamiltonian_symmetric_form, spelled_out_candidates
from conftest import Y_ONE, std_params

FAMILIES = (R, QR)


def _real(rows, prec=128):
    with mpmath.workprec(prec):
        return [[mpmath.mpf(v) for v in row] for row in rows]


def test_factor_upper_rank_one_oracle():
    # [[2,1],[1,1/2]] = A^T A with A = [[sqrt2, 1/sqrt2],[0,0]]
    h = _real([[2, 1], [1, "0.5"]])
    a = factor_upper(h, 128)
    with mpmath.workprec(128):
        assert abs(a[0][0] ** 2 - 2) < mpmath.mpf(10) ** -35
        assert abs(a[0][0] * a[0][1] - 1) < mpmath.mpf(10) ** -35
    assert a[1][0] == 0 and a[1][1] == 0


def test_factor_upper_full_rank_oracle():
    h = _real([[4, 2], [2, 2]])
    a = factor_upper(h, 128)
    with mpmath.workprec(128):
        assert abs(a[0][0] - 2) < mpmath.mpf(10) ** -35
        assert abs(a[0][1] - 1) < mpmath.mpf(10) ** -35
        assert abs(a[1][1] - 1) < mpmath.mpf(10) ** -35


def test_factor_upper_reconstruction_check_fires():
    # the factor reads only the upper triangle, so a lower entry that
    # disagrees with it cannot be reconstructed
    h = _real([[4, 2], [0, 2]])
    with pytest.raises(CrossCheckMismatch, match=r"A\^T\*A misses h_sym by .* \(tolerance .*\)"):
        factor_upper(h, 128)


def test_factor_upper_rejects_indefinite():
    h = _real([[1, 2], [2, 1]])  # eigenvalues 3, -1
    with pytest.raises(NegativePivot):
        factor_upper(h, 128)


def _sym(pl, precision, Y=Y_ONE):
    """The symmetric form of the pipeline's Hamiltonian, from its r-table
    and squared norms."""
    return symmetric_form(pl.rectable(Y).rows, pl.system().dDn_sq, precision)


@pytest.mark.parametrize("family", FAMILIES)
def test_hamiltonian_factorization_reconstructs(family, pipe):
    a = factor_upper(_sym(pipe(family, 5, (1,)), 256), 256)
    # zero ground level forces a zero last row
    assert all(v == 0 for v in a[5])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [1, 6, 11])
def test_candidates_from_shifts_match_spelled_out_lists(family, N):
    """The candidates built by ``params.shift`` are the tuples of each
    family's shifts written out, field for field."""
    p = std_params(family, N)
    for t in (p, p.dual()):
        assert builtin_candidates(t) == spelled_out_candidates(t)


@pytest.mark.parametrize("family", FAMILIES)
def test_candidate_admissibility(family):
    p = std_params(family, 6)
    cands = dict(builtin_candidates(p))
    check_candidate(cands["delta"], (1,))
    check_candidate(cands["delta_dplus"], (1,))
    with pytest.raises(InadmissibleCandidate):
        check_candidate(cands["delta_tilde"], (1,))


@pytest.mark.parametrize("family", FAMILIES)
def test_undeformed_control_is_shape_invariant(family, pipe):
    s = pipe(family, 6, ()).system()
    rep = si_test(pipe(family, 6, ()), Y_ONE, 256, [])
    assert rep.shape_invariant
    byname = {v.name: v for v in rep.verdicts}
    win = byname["delta_dplus"]
    assert win.spectral_pass
    expect_kappa = 1 if family == R else 1 / s.params.q
    assert win.kappa == expect_kappa
    with mpmath.workprec(256):
        assert win.matrix_residual < mpmath.mpf(10) ** -60


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(1,), (2,), (1, 2)])
def test_deformed_systems_are_not_shape_invariant(family, D, pipe):
    rep = si_test(pipe(family, 6, D), Y_ONE, 256, [])
    assert not rep.shape_invariant
    for v in rep.verdicts:
        assert not v.spectral_pass
        if v.admissible:
            assert v.first_fail_x is not None


def test_extra_candidate_is_tested(pipe):
    pl = pipe(R, 6, (1,))
    p = pl.params
    wild = p._replace(N=5, a=p.a + 1, b=p.b + 1, c=p.c + 2, d=p.d + 1)
    rep = si_test(pl, Y_ONE, 256, [("wild", wild)])
    names = [v.name for v in rep.verdicts]
    assert "wild" in names
    assert not rep.shape_invariant


def test_si_test_factors_each_hamiltonian_once(pipe, monkeypatch):
    """One symmetric form and one factorization of the pipeline's own
    Hamiltonian per call, and one of each per admissible candidate, each
    form from an r-table and its squared norms: si_test builds no dual
    table and no Hamiltonian."""
    from dualracah import dualsystem, shapeinv

    formed, factored, built = [], [], []
    form, factor = shapeinv.symmetric_form, shapeinv.factor_upper

    def counted_form(rows, d_sq, precision):
        formed.append(rows)
        return form(rows, d_sq, precision)

    def counted_factor(h_sym, precision):
        factored.append(h_sym)
        return factor(h_sym, precision)

    monkeypatch.setattr(shapeinv, "symmetric_form", counted_form)
    monkeypatch.setattr(shapeinv, "factor_upper", counted_factor)
    for name in ("dual_values", "build_hamiltonians"):
        monkeypatch.setattr(dualsystem, name, lambda *args, _name=name: built.append(_name))
    pl = Pipeline(std_params(R, 6), ())
    rep = si_test(pl, Y_ONE, 256, [])
    admissible = [v for v in rep.verdicts if v.admissible]
    assert len(admissible) == 2 and len(factored) == 1 + len(admissible)
    assert len({id(rows) for rows in formed}) == len(formed) == 1 + len(admissible)
    assert sum(rows is pl.rectable(Y_ONE).rows for rows in formed) == 1
    assert built == []


@pytest.mark.parametrize("precision", [53, 256])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(), (1,), (1, 2)])
def test_symmetric_form_equals_hamiltonian_route(family, D, precision, pipe):
    """The symmetric form from the r-table's rows and the squared norms
    equals, bit for bit, the one from the Hamiltonian and its dual weights
    d_n^2/Xi(1): Xi(1) cancels in the ratio, which is the same reduced
    rational."""
    pl = pipe(family, 7, D)
    new = _sym(pl, precision)
    old = hamiltonian_symmetric_form(pl.hamiltonian(Y_ONE), precision)
    assert [[v._mpf_ for v in row] for row in new] == [[v._mpf_ for v in row] for row in old]


def _dense_residuals(pl, Y, precision):
    """si_test's matrix residual per admissible candidate, every sum over
    the whole matrix, on the dense factors (the loops the band replaced)."""
    N, xp = pl.params.N, pl.xpoly(Y)
    A = dense_factor_upper(_sym(pl, precision, Y), precision)
    out = {}
    for name, p2 in builtin_candidates(pl.params):
        try:
            check_candidate(p2, pl.D)
        except InadmissibleCandidate:
            continue
        cand = Pipeline(p2, pl.D)
        kappa = (xp.grid[2] - xp.grid[1]) / cand.xpoly(Y).grid[1]
        A2 = dense_factor_upper(_sym(cand, precision, Y), precision)
        with mpmath.workprec(precision):
            k, e1 = to_real(kappa, precision), to_real(xp.grid[1], precision)
            residual = mpmath.mpf(0)
            for x in range(N):
                for y in range(N):
                    aad = sum(A[x][z] * A[y][z] for z in range(N + 1))
                    ata = sum(A2[z][x] * A2[z][y] for z in range(N))
                    residual = max(residual, abs(aad - k * ata - (e1 if x == y else 0)))
        out[name] = residual
    return out


def _assert_factors_equal(h, precision):
    band, dense = factor_upper(h, precision), dense_factor_upper(h, precision)
    assert len(band) == len(dense)
    for row_b, row_d in zip(band, dense):
        assert row_b == row_d  # entry by entry, mpf ==
    return band


@pytest.mark.parametrize("precision", [53, 256])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(), (1,), (1, 2)])
def test_band_factor_equals_dense_on_hamiltonians(family, D, precision, pipe):
    sym = _sym(pipe(family, 7, D), precision)
    w = _bandwidth(sym)
    assert 0 < w < len(sym) - 1  # the band is narrower than the matrix
    a = _assert_factors_equal(sym, precision)
    assert _bandwidth(a) <= w


@pytest.mark.parametrize("precision", [53, 256])
def test_band_factor_equals_dense_with_a_zero_pivot_inside(precision):
    # pentadiagonal, rank deficient at row 2: rows 0..2 of A^T A with A's
    # row 2 zero, so the third pivot vanishes and the band goes on below it
    with mpmath.workprec(precision):
        f = [
            [2, 1, "0.5", 0, 0, 0],
            [0, 3, 1, "0.25", 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, "0.75", 1],
            [0, 0, 0, 0, 2, 1],
            [0, 0, 0, 0, 0, 1],
        ]
        a = [[mpmath.mpf(v) for v in row] for row in f]
        h = [[sum(a[z][x] * a[z][y] for z in range(6)) for y in range(6)] for x in range(6)]
    assert _bandwidth(h) == 2
    band = _assert_factors_equal(h, precision)
    assert all(v == 0 for v in band[2])
    assert band[3][3] != 0


@pytest.mark.parametrize("precision", [53, 256])
def test_band_factor_equals_dense_on_a_full_matrix(precision):
    n = 6
    with mpmath.workprec(precision):
        h = [[mpmath.mpf(1) / (x + y + 1) + (n if x == y else 0) for y in range(n)]
             for x in range(n)]
    assert _bandwidth(h) == n - 1
    _assert_factors_equal(h, precision)


@pytest.mark.parametrize("precision", [53, 256])
@pytest.mark.parametrize("family,D", [(R, ()), (QR, ()), (R, (1, 2)), (QR, (1,))])
def test_si_residual_equals_dense_loops(family, D, precision, pipe):
    pl = pipe(family, 6, D)
    dense = _dense_residuals(pl, Y_ONE, precision)
    rep = si_test(pl, Y_ONE, precision, [])
    got = {v.name: v.matrix_residual for v in rep.verdicts if v.admissible}
    assert got.keys() == dense.keys() and got
    for name in got:
        assert got[name] == dense[name]
