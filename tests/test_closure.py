"""Closure relation and ladder operators: the certifications of ``closure``,
and the routes they replaced, kept as oracles in ``comparators``: the
tridiagonal matrices in the dual eigenbasis, which the node data make
zero, against the dense and spectral-calculus routes."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dualracah import closure, recurrence, report
from dualracah.backend import rat, rat_to_str
from dualracah.closure import verify_closure, verify_ladder
from dualracah.dualsystem import dual_ortho, verify_spectrum
from dualracah.errors import CrossCheckMismatch, SingularR0
from dualracah.linalg import SquareMatrix
from dualracah.params import QR, R
from dualracah.pipeline import Pipeline
from dualracah.poly import Poly, interpolate
from comparators import (
    _spectral_ladder,
    closure_node_data,
    commutator,
    dense_build_ladder,
    dense_verify_closure,
    exact_inverse,
    from_entries,
    identity_matrix,
    matrix_add,
    matrix_is_zero,
    matrix_sub,
    on_spectrum_by_values,
    poly_add,
    replace,
    replace_closure,
    scale_cols,
    tridiagonal_closure,
    tridiagonal_ladder,
)
from conftest import MATRIX, SEEDS, Y_ETA, Y_ONE, solve_overdetermined, std_params

FAMILIES = (R, QR)
CASES = [((1,), "1"), ((2,), "1"), ((1, 2), "1"), ((1,), "eta")]


# The generic routes the eigenbasis route replaced, kept as oracles.


def vandermonde_closure(h):
    """(R0, R1, Rm1) by solving the square Vandermonde system of the
    spectrum for each of the three node-data vectors."""
    nodes = h.energies
    vm = [[z ** i for i in range(len(nodes))] for z in nodes]
    return tuple(Poly(solve_overdetermined(vm, list(beta))) for beta in zip(*closure_node_data(h)))


def matrix_poly(coeffs, h: SquareMatrix) -> SquareMatrix:
    """sum_k coeffs[k] * h^k by matrix Horner, exactly."""
    n = h.n
    acc = scale_cols(identity_matrix(n), [rat(0)] * n)
    for c in reversed(list(coeffs)):
        acc = matrix_add(acc @ h, scale_cols(identity_matrix(n), [rat(c)] * n))
    return acc


def _horner_residual(h, trip):
    """[h,[h,E]] - (E*R0(h) + [h,E]*R1(h) + Rm1(h)) by matrix Horner."""
    ht = h.h_tilde
    ebar = scale_cols(identity_matrix(ht.n), h.dual.ebar)
    inner = commutator(ht, ebar)
    rhs = matrix_add(
        matrix_add(ebar @ matrix_poly(trip.R0.coeffs, ht), inner @ matrix_poly(trip.R1.coeffs, ht)),
        matrix_poly(trip.Rm1.coeffs, ht),
    )
    return matrix_sub(commutator(ht, inner), rhs)


def dense_verify_ladder(h, ladder) -> list:
    """Both ladder actions (a+, a-) on every eigenvector column, by one
    product by V per operator."""
    N = h.h_tilde.n - 1
    up, down = (a @ h.V for a in ladder)
    zero = [0] * (N + 1)
    failures = []
    for n in range(N + 1):
        expect_up = [h.dual.a_dual[n] * v for v in h.V.column(n + 1)] if n < N else zero
        if up.column(n) != expect_up:
            failures.append(("plus", n))
        expect_dn = [h.dual.c_dual[n] * v for v in h.V.column(n - 1)] if n > 0 else zero
        if down.column(n) != expect_dn:
            failures.append(("minus", n))
    return failures


def _corrupt(m: SquareMatrix, i: int, j: int) -> SquareMatrix:
    rows = [list(r) for r in m.rows]
    rows[i][j] += rat(1, 7)
    return SquareMatrix(rows)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D,y", CASES)
@pytest.mark.parametrize("N", [4, 5, 6])
def test_closure_residual_is_zero(family, D, y, N, pipe):
    h = pipe(family, N, D).hamiltonian(SEEDS[y])
    trip = pipe(family, N, D).closure(SEEDS[y])
    assert (trip.R0, trip.R1, trip.Rm1) == vandermonde_closure(h)
    verify_closure(h, trip.data)
    assert tridiagonal_closure(h, trip) == []
    assert matrix_is_zero(_horner_residual(h, trip))
    assert matrix_is_zero(dense_verify_closure(h, trip))


@pytest.mark.parametrize("family", FAMILIES)
def test_undeformed_control_degrees(family, pipe):
    """Without deformation the closure polynomials have the classical
    degree pattern (2, 1, 2) and the residual still vanishes."""
    h = pipe(family, 5, ()).hamiltonian(Y_ONE)
    trip = pipe(family, 5, ()).closure(Y_ONE)
    verify_closure(h, trip.data)
    assert tridiagonal_closure(h, trip) == []
    assert (trip.R0.degree or 0) <= 2
    assert (trip.R1.degree or 0) <= 1
    assert (trip.Rm1.degree or 0) <= 2


@pytest.mark.parametrize("family", FAMILIES)
def test_node_identities_fail_off_grid_when_deformed(family, pipe):
    """For a genuine deformation the interpolated closure polynomials do
    not extend to the node just past the grid."""
    from dualracah.params import eta, shift
    s = pipe(family, 5, (1,)).system()
    xp = pipe(family, 5, (1,)).xpoly(Y_ONE)
    trip = pipe(family, 5, (1,)).closure(Y_ONE)
    p_m = shift(s.params, s.M, "delta")
    j = s.params.N + 1  # one step off the spectrum
    X = {i: xp.poly(eta(i, p_m)) for i in (j - 1, j, j + 1)}
    beta0 = (X[j + 1] - X[j]) * (X[j] - X[j - 1])
    assert trip.R0(X[j]) != beta0


@pytest.mark.parametrize("family", FAMILIES)
def test_discriminant_is_a_square_on_nodes(family, pipe):
    h = pipe(family, 6, (1, 2)).hamiltonian(Y_ONE)
    trip = pipe(family, 6, (1, 2)).closure(Y_ONE)
    X = h.x_grid
    for j in range(7):
        z = X[j]
        assert trip.R1(z) ** 2 + 4 * trip.R0(z) == (X[j + 1] - X[j - 1]) ** 2


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [5, 10])
def test_node_data_are_the_values_on_the_spectrum(family, N, pipe):
    """The node data built from the X grid are the polynomials' values on
    the spectrum by Poly.values, the route they replaced, and the triple
    holds R0's, for every index set and seed."""
    for D, y in MATRIX:
        h, trip = pipe(family, N, D).hamiltonian(SEEDS[y]), pipe(family, N, D).closure(SEEDS[y])
        assert on_spectrum_by_values(trip) == closure_node_data(h)
        assert trip.data.r0_on_spectrum == tuple(r0 for r0, _, _ in closure_node_data(h))


@pytest.mark.parametrize("family", FAMILIES)
def test_r0_vanishes_iff_degenerate_seed(family, pipe):
    assert not pipe(family, 5, (1,)).closure(Y_ONE).r0_vanishes_at_zero
    assert pipe(family, 5, (1,)).closure(Y_ETA).r0_vanishes_at_zero


@pytest.mark.parametrize("family", FAMILIES)
def test_replaced_r0_reports_its_own_constant_term(family, pipe):
    """r0_vanishes_at_zero is read from R0 itself, so a triple with R0
    replaced never reports the flag of the polynomial it replaced."""
    trip = pipe(family, 5, (1,)).closure(Y_ETA)
    assert trip.r0_vanishes_at_zero
    bad = replace_closure(trip, R0=poly_add(trip.R0, Poly([1])))
    assert bad.R0(rat(0)) == 1
    assert not bad.r0_vanishes_at_zero


@pytest.mark.parametrize("family", FAMILIES)
def test_triple_of_another_spectrum_is_refused(family, pipe):
    """The triple of seed 1 against the Hamiltonian of seed eta: the same
    V, another spectrum X.  Values held for one spectrum are not read
    against the other."""
    pl = pipe(family, 5, (1,))
    h_eta, trip = pl.hamiltonian(Y_ETA), pl.closure(Y_ONE)
    assert h_eta.V == pl.hamiltonian(Y_ONE).V
    assert h_eta.energies != trip.data.nodes
    for fn in (verify_closure, verify_ladder):
        with pytest.raises(
            CrossCheckMismatch, match="closure triple was solved on another spectrum"
        ):
            fn(h_eta, trip.data)


def test_spectral_fn_reproduces_polynomials(pipe):
    h = pipe(R, 5, (1,)).hamiltonian(Y_ONE)
    # V diag(f(X)) V^(-1) is the function f of the Hamiltonian: for
    # f(X) = X^2 it is the matrix square
    vinv = exact_inverse(h.V)
    sq = scale_cols(h.V, [v * v for v in h.energies]) @ vinv
    assert matrix_is_zero(matrix_sub(sq, h.h_tilde @ h.h_tilde))
    ident = scale_cols(h.V, [rat(1)] * 6) @ vinv
    assert matrix_is_zero(matrix_sub(ident, identity_matrix(6)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(1,), (2,), (1, 2)])
def test_ladder_actions_exact(family, D, pipe):
    h = pipe(family, 6, D).hamiltonian(Y_ONE)
    trip = pipe(family, 6, D).closure(Y_ONE)
    verify_ladder(h, trip.data)
    assert tridiagonal_ladder(h, trip) == []
    assert dense_verify_ladder(h, dense_build_ladder(h, trip)) == []


@pytest.mark.parametrize("family", FAMILIES)
def test_ladder_degenerate_seed_raises(family, pipe):
    h = pipe(family, 6, (1,)).hamiltonian(Y_ETA)
    trip = pipe(family, 6, (1,)).closure(Y_ETA)
    msg = r"R0 vanishes on the spectrum \(degenerate seed with Y\(0\)=0\)"
    cases = ((dense_build_ladder, trip), (tridiagonal_ladder, trip), (verify_ladder, trip.data))
    for fn, c in cases:
        with pytest.raises(SingularR0, match=msg):
            fn(h, c)


@pytest.mark.parametrize("family", FAMILIES)
def test_ladder_boundary_annihilation(family, pipe):
    """a+ annihilates the top eigenvector and a- the ground state: checked
    by verify_ladder, and on the dense operators."""
    h = pipe(family, 5, (1,)).hamiltonian(Y_ONE)
    trip = pipe(family, 5, (1,)).closure(Y_ONE)
    verify_ladder(h, trip.data)
    a_plus, a_minus = dense_build_ladder(h, trip)
    top = (a_plus @ h.V).column(5)
    bottom = (a_minus @ h.V).column(0)
    assert all(v == 0 for v in top)
    assert all(v == 0 for v in bottom)


@pytest.mark.parametrize("family", FAMILIES)
def test_middle_coefficient_from_closure(family, pipe):
    """-Rm1/R0 on the spectrum equals the middle dual recurrence
    coefficient; this ties the closure data to the dual table."""
    h = pipe(family, 6, (2,)).hamiltonian(Y_ONE)
    trip = pipe(family, 6, (2,)).closure(Y_ONE)
    for n in range(7):
        z = h.x_grid[n]
        assert -trip.Rm1(z) / trip.R0(z) == h.dual.b_dual[n]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D,y", CASES)
@pytest.mark.parametrize("N", [4, 5, 6])
def test_inverse_and_ladder_match_generic_oracles(family, D, y, N, pipe):
    """The oracles' V^(-1) inverts V, and the dense and the spectral ladder
    operators agree, where verify_ladder passes; on a degenerate seed the
    dense route and verify_ladder both refuse."""
    h = pipe(family, N, D).hamiltonian(SEEDS[y])
    trip = pipe(family, N, D).closure(SEEDS[y])
    vinv = exact_inverse(h.V)
    assert h.V @ vinv == identity_matrix(N + 1)
    if trip.r0_vanishes_at_zero:
        for fn, c in ((dense_build_ladder, trip), (verify_ladder, trip.data)):
            with pytest.raises(SingularR0):
                fn(h, c)
        return
    verify_ladder(h, trip.data)
    assert dense_build_ladder(h, trip, vinv) == _spectral_ladder(h, trip)


@pytest.mark.parametrize("family", FAMILIES)
def test_corrupted_r1_residual_equals_horner(family, pipe):
    h = pipe(family, 5, (1, 2)).hamiltonian(Y_ONE)
    trip = pipe(family, 5, (1, 2)).closure(Y_ONE)
    bad = replace_closure(trip, R1=Poly([trip.R1[0] + rat(1, 3)] + list(trip.R1.coeffs[1:])))
    residual = tridiagonal_closure(h, bad)
    assert residual != []
    assert h.V @ from_entries(h.V.n, residual) == _horner_residual(h, bad) @ h.V
    assert h.V @ from_entries(h.V.n, residual) == dense_verify_closure(h, bad)


def _doubled(values, k):
    out = list(values)
    out[k] *= 2
    return tuple(out)


@pytest.mark.parametrize("family", FAMILIES)
def test_closure_and_ladder_read_no_norm_or_weight(family, pipe):
    """A corrupted V fails the eigenbasis certification of the closure and
    ladder checks: the dual recurrence misses row 2 from column 2 on.  A
    corrupted squared norm or weight is listed by the dual orthogonality;
    the closure and ladder checks rest on the eigenbasis alone and pass."""
    h = pipe(family, 5, (1,)).hamiltonian(Y_ONE)
    trip = pipe(family, 5, (1,)).closure(Y_ONE)
    # replace() copies h and its dual table with every cached property
    # started afresh
    bad_v = _with_v(h, _corrupt(h.V, 2, 3))
    for fn in (verify_closure, verify_ladder):
        with pytest.raises(CrossCheckMismatch, match=r"V\*T at \(x,n\)=\(2,2\)"):
            fn(replace(bad_v), trip.data)
    for field in ("norms", "weights"):
        bad = replace(h, dual=replace(h.dual, **{field: _doubled(getattr(h.dual, field), 4)}))
        assert dual_ortho(bad.dual) != []
        verify_closure(bad, trip.data)
        verify_ladder(bad, trip.data)


@pytest.mark.parametrize("family", FAMILIES)
def test_corrupted_hamiltonian_fails_eigen_certification(family, pipe, monkeypatch):
    """h_tilde*V = V*diag(X) is certified where h_tilde is made, as the
    r-table's grid certificate: the Gram entry behind r[(1,1)] bumped stops
    extract_r.  A Hamiltonian corrupted after that is listed, row 1, by the
    spectrum check; the closure and ladder checks rest on the table's
    certificate and do not read h_tilde."""
    pl = pipe(family, 5, (1,))
    h, trip = pl.hamiltonian(Y_ONE), pl.closure(Y_ONE)
    bad = replace(h, h_tilde=_corrupt(h.h_tilde, 1, 2))
    assert verify_spectrum(bad) == [("eigen", 1, n) for n in range(6) if h.V[2, n] != 0]
    for fn in (verify_closure, verify_ladder):
        fn(replace(bad), trip.data)
    band = recurrence.gram_band

    def bumped(*args):
        gram = band(*args)
        return {**gram, (1, 2): gram[(1, 2)] + rat(1, 3)}

    monkeypatch.setattr(recurrence, "gram_band", bumped)
    with pytest.raises(
        CrossCheckMismatch, match=r"band recurrence misses the grid at \(n,x\)=\(1,0\)"
    ):
        recurrence.extract_r(pl.system(), pl.xpoly(Y_ONE))


@pytest.mark.parametrize("family", FAMILIES)
def test_corrupted_dual_coefficient_fails_exactly_its_column(family, pipe):
    """The dense ladder check compares a+ with a_dual and a- with c_dual
    column by column, so one wrong coefficient fails at its own column
    only; the tridiagonal route stops earlier, at the certification
    diag(Ebar)*V = V*T, and names that column (row 0 of V is all ones)."""
    h = pipe(family, 5, (1,)).hamiltonian(Y_ONE)
    trip = pipe(family, 5, (1,)).closure(Y_ONE)
    ladder = dense_build_ladder(h, trip)
    bad_duals = []
    for k in (0, 2, 4):
        a_dual = list(h.dual.a_dual)
        a_dual[k] += rat(1, 3)
        bad_duals.append((k, "plus", replace(h.dual, a_dual=tuple(a_dual))))
    for k in (1, 3, 5):
        c_dual = list(h.dual.c_dual)
        c_dual[k] += rat(1, 3)
        bad_duals.append((k, "minus", replace(h.dual, c_dual=tuple(c_dual))))
    for k, name, dual in bad_duals:
        bad = replace(h, dual=dual)
        assert dense_verify_ladder(bad, ladder) == [(name, k)]
        for fn in (verify_closure, verify_ladder):
            with pytest.raises(CrossCheckMismatch, match=rf"V\*T at \(x,n\)=\(0,{k}\)"):
                fn(replace(bad), trip.data)


def _with_v(h, v):
    """h over a dual table with V replaced; every cached property starts
    afresh."""
    return replace(h, dual=replace(h.dual, V=v))


def _swap_eigenpairs(h, k):
    """h with eigenpairs k and k+1 exchanged, the eigenvalues in the X
    grid: still eigenpairs, but column k of V is no longer the dual
    polynomial of degree k."""
    rows = [list(r) for r in h.V.rows]
    for r in rows:
        r[k], r[k + 1] = r[k + 1], r[k]
    grid = dict(h.x_grid)
    grid[k], grid[k + 1] = grid[k + 1], grid[k]
    return replace(_with_v(h, SquareMatrix(rows)), x_grid=grid)


@pytest.mark.parametrize("family", FAMILIES)
def test_eigenbasis_certification_faults(family, pipe):
    """Eigenbases that pass the eigen-check h_tilde*V = V*diag(X) alone
    fail the dual recurrence: a column of V scaled, or two eigenpairs
    swapped, which the recurrence sees at (x,n) = (1,k-1)."""
    N = 5
    h = pipe(family, N, (1, 2)).hamiltonian(Y_ONE)
    trip = pipe(family, N, (1, 2)).closure(Y_ONE)
    # column N of V doubled: still an eigenvector, no longer the dual
    # polynomial of degree N
    doubled = _with_v(h, scale_cols(h.V, [1] * N + [2]))
    cases = [
        (doubled, rf"diag\(Ebar\)\*V differs from V\*T at \(x,n\)=\(0,{N - 1}\)"),
        (_swap_eigenpairs(h, 2), r"diag\(Ebar\)\*V differs from V\*T at \(x,n\)=\(1,1\)"),
    ]
    for bad, message in cases:
        assert verify_spectrum(replace(bad)) == []
        for fn in (verify_closure, verify_ladder):
            with pytest.raises(CrossCheckMismatch, match=message):
                fn(replace(bad), trip.data)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("which", [0, 1, 2])
def test_wrong_beta_node_value_fails(family, which, pipe, monkeypatch):
    """One wrong node value of beta0, beta1 or beta-1 is interpolated and
    held alike, so solve_closure returns.  The tridiagonal closure residual
    then lists column j alone, equal to the dense and Horner oracles'; its
    diagonal entry is -Rm1 = b_dual*R0.  The library checks read the
    triple's node data only for their spectrum and R0 != 0 there, so they
    pass: the node data are the construction they rest on."""
    j = 3
    h = pipe(family, 5, (1, 2)).hamiltonian(Y_ONE)
    orig = closure.closure_nodes

    def skewed(hh):
        # one row of the node data: the triple then holds the same wrong value
        data = orig(hh)
        field = data._fields[1 + which]
        row = list(getattr(data, field))
        row[j] += rat(1, 7)
        return data._replace(**{field: tuple(row)})

    monkeypatch.setattr(closure, "closure_nodes", skewed)
    bad = closure.solve_closure(h)
    assert bad.data.r0_on_spectrum == tuple(bad.R0.values(bad.data.nodes))
    residual = tridiagonal_closure(h, bad)
    assert residual and {n for _, n, _ in residual} == {j}
    if which == 2:
        assert [(m, n) for m, n, _ in residual] == [(j, j)]
    assert h.V @ from_entries(h.V.n, residual) == dense_verify_closure(h, bad)
    assert h.V @ from_entries(h.V.n, residual) == _horner_residual(h, bad) @ h.V
    verify_closure(h, bad.data)
    verify_ladder(h, bad.data)


def _ladder_outcome(fn):
    try:
        return fn()
    except CrossCheckMismatch as e:
        return str(e)


def _refuse_product(a, b):
    raise AssertionError("dense SquareMatrix product in a closure check")


@pytest.mark.parametrize("family,N", [(R, 5), (QR, 5), (R, 10), (QR, 10), (R, 18)])
def test_scalar_route_matches_dense_oracle(family, N, pipe, monkeypatch):
    """The tridiagonal route and the dense one give the same verdicts, the
    same closure residuals (V*M against the dense (LHS - RHS)*V, M found
    with the dense product refused) and the same ladder outcomes (failure
    list or error), on the true data and under corruption; the library
    checks pass on every triple solved on h's spectrum.  Both ladder routes
    read corr = Rm1/R0 off the triple: a bent R0 or Rm1 fails the closure
    on the diagonal, the dense ladder at its corr check and the tridiagonal
    ladder on the diagonal of B."""
    D = (1, 2)
    h = pipe(family, N, D).hamiltonian(Y_ONE)
    trip = pipe(family, N, D).closure(Y_ONE)
    c = rat(1, 3)
    triples = [trip] + [
        replace_closure(trip, **{name: poly_add(getattr(trip, name), Poly([c]))})
        for name in ("R0", "R1", "Rm1")
    ]
    bent_corr = (triples[1], triples[3])
    for t in triples:
        with monkeypatch.context() as mp:
            mp.setattr(SquareMatrix, "__matmul__", _refuse_product)
            verify_closure(h, t.data)
            verify_ladder(h, t.data)
            residual = tridiagonal_closure(h, t)
        assert all(abs(m - n) <= 1 for m, n, _ in residual)
        assert h.V @ from_entries(N + 1, residual) == dense_verify_closure(h, t)
        assert (residual == []) == (t is trip)
        assert any(m == n for m, n, _ in residual) == (t in bent_corr)
    # off-spectrum grid values enter only through the gaps; an interior one
    # is an eigenvalue, so it breaks h_tilde*V = V*diag(X), which the
    # spectrum check lists, and the spectrum every triple was solved on,
    # which both library checks compare before they read the node data
    interior = dict(h.x_grid)
    interior[N // 2] += c
    interior = replace(h, x_grid=interior)
    assert {n for _, n, _ in interior.eigen_residual} == {N // 2}
    for t in triples:
        for fn in (verify_closure, verify_ladder):
            with pytest.raises(CrossCheckMismatch, match="solved on another spectrum"):
                fn(replace(interior), t.data)
    hs = [h]
    for k in (-1, N + 1):
        grid = dict(h.x_grid)
        grid[k] += c
        hs.append(replace(h, x_grid=grid))
    # every h in hs has the same V
    vinv = exact_inverse(h.V)
    outcomes = []
    for hh in hs:
        for t in triples:
            verify_ladder(hh, t.data)
            got = tridiagonal_ladder(hh, t)
            if t in bent_corr:
                assert got != []
                continue
            dense = _ladder_outcome(
                lambda: dense_verify_ladder(hh, dense_build_ladder(hh, t, vinv)))
            assert got == dense
            outcomes.append(got)
    # X(-1) and X(N+1) enter only the edge columns, whose gaps cancel them
    assert outcomes == [[]] * len(outcomes)


def _random_grid_and_duals(h, rng):
    """h with a random strictly increasing X grid on -1..N+1 and random
    rational a_dual, b_dual and c_dual; V and h_tilde are h's."""
    N = h.h_tilde.n - 1
    grid, x = {}, rat(rng.randint(-9, 9), rng.randint(1, 9))
    for n in range(-1, N + 2):
        grid[n] = x
        x += rat(rng.randint(1, 30), rng.randint(1, 9))

    def coeffs():
        return tuple(rat(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(N + 1))

    dual = replace(h.dual, a_dual=coeffs(), b_dual=coeffs(), c_dual=coeffs())
    return replace(h, x_grid=grid, dual=dual)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [4, 7, 10])
def test_node_data_make_the_tridiagonal_identities_hold(family, N, pipe):
    """The argument on which verify_closure and verify_ladder rest: for any
    dual coefficients and any strictly increasing X grid, the triple that
    solve_closure builds there makes the tridiagonal M of the closure and
    both ladder operators' columns vanish against a_dual and c_dual (Vieta
    on R0 and R1, Rm1 = -b_dual*R0 on the diagonal).  R1 shifted off its
    node data leaves M nonzero, so M is not zero for every triple."""
    h = pipe(family, N, (1, 2)).hamiltonian(Y_ONE)
    rng = random.Random(N)
    for _ in range(4):
        hh = _random_grid_and_duals(h, rng)
        trip = closure.solve_closure(hh)
        assert tridiagonal_closure(hh, trip) == []
        assert tridiagonal_ladder(hh, trip) == []
        bent = replace_closure(trip, R1=poly_add(trip.R1, Poly([rat(1, 3)])))
        assert tridiagonal_closure(hh, bent) != []


def _closure_ladder_run(family, suites=("closure", "ladder")):
    """The config of a run at N=10, D={1,2} (closure and ladder suites by
    default), and its pipeline."""
    params = std_params(family, 10)
    raw = {"family": family, "N": 10, "D": [1, 2], "suites": list(suites)}
    raw.update({k: rat_to_str(getattr(params, k)) for k in ("b", "c", "d")})
    if family == QR:
        raw["q"] = rat_to_str(params.q)
    cfg = report.parse_config(raw)
    return cfg, Pipeline(cfg.params(), cfg.D)


@pytest.mark.parametrize("family", FAMILIES)
def test_closure_and_ladder_suites_take_no_dense_product(family, monkeypatch):
    """A passing run of the closure and ladder suites, every stage they read
    built in it, forms no dense product and no eigen residual: h_tilde*V
    = V*diag(X) is the r-table's grid certificate."""
    cfg, p = _closure_ladder_run(family)
    calls = []
    matmul = SquareMatrix.__matmul__

    def counted(a, b):
        calls.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(SquareMatrix, "__matmul__", counted)
    h = p.hamiltonian(cfg.Y)
    assert report._suite_closure(cfg, p)["pass"]
    assert report._suite_ladder(cfg, p)["pass"]
    assert "eigen_residual" not in vars(h)
    assert calls == []


@pytest.mark.parametrize("family", FAMILIES)
def test_closure_and_ladder_suites_evaluate_no_polynomial(family, monkeypatch):
    """Solving the triple and running the closure and ladder suites on it
    make no Poly.values call, on R0, R1 and Rm1 or any other polynomial:
    the triple's values on the spectrum are its node data."""
    cfg, p = _closure_ladder_run(family)
    p.hamiltonian(cfg.Y)
    calls = []
    values = Poly.values

    def counted(poly, points):
        calls.append(poly)
        return values(poly, points)

    monkeypatch.setattr(Poly, "values", counted)
    trip = p.closure(cfg.Y)
    assert report._suite_closure(cfg, p)["pass"]
    assert report._suite_ladder(cfg, p)["pass"]
    assert calls == []
    assert trip.data.r0_on_spectrum == tuple(trip.R0.values(trip.data.nodes))


@pytest.mark.parametrize("family", FAMILIES)
def test_solve_closure_makes_one_interpolation(family, pipe, monkeypatch):
    """A cost guard: the triple is one ``interpolate`` call of three rows,
    the node data of ``closure_nodes``, which are the X-grid formulas'."""
    h = pipe(family, 6, (1, 2)).hamiltonian(Y_ONE)
    calls = []

    def counted(nodes, *rows):
        calls.append(len(rows))
        return interpolate(nodes, *rows)

    monkeypatch.setattr(closure, "interpolate", counted)
    trip = closure.solve_closure(h)
    data = closure.closure_nodes(h)
    assert calls == [3]
    assert tuple(zip(*data[1:])) == closure_node_data(h) == on_spectrum_by_values(trip)
    assert trip.data == data
    assert data.nodes == h.energies


@pytest.mark.parametrize("family", FAMILIES)
def test_ladder_only_config_makes_no_closure_interpolation(family, monkeypatch):
    """A cost guard: the ladder suite reads the closure's node data alone,
    so a ladder-only run never solves for the closure polynomials."""
    calls = []
    monkeypatch.setattr(closure, "interpolate", lambda *args: calls.append(args))
    cfg, p = _closure_ladder_run(family)
    assert report._suite_ladder(cfg, p)["pass"]
    assert ("closure", cfg.Y) not in p._memo
    cfg, _ = _closure_ladder_run(family, ["ladder"])
    assert report.run_suite(cfg)[1]
    assert calls == []


def test_passing_closure_check_builds_no_matrix(monkeypatch):
    """Once the eigenbasis is certified, the closure and ladder checks
    construct no SquareMatrix."""
    pl = Pipeline(std_params(R, 6), (1, 2))
    h, trip = pl.hamiltonian(Y_ONE), pl.closure(Y_ONE)
    h.eigenbasis
    built = []
    init = SquareMatrix.__init__

    def counted(self, rows):
        built.append(self)
        init(self, rows)

    monkeypatch.setattr(SquareMatrix, "__init__", counted)
    verify_closure(h, trip.data)
    verify_ladder(h, trip.data)
    assert built == []


def test_certifications_survive_python_O():
    """Under -O the interpolation kernel's node certificate, the closure
    checks, the grid certificate of the r-table behind h_tilde and the
    eigenbasis certification still raise: none of them is an assert.  Two
    eigenpairs swapped pass the eigen-check and fail the dual recurrence."""
    script = textwrap.dedent(
        """
        from comparators import replace
        from dualracah import closure, multiindexed, poly, recurrence, dualsystem
        from dualracah.backend import rat
        from dualracah.errors import CrossCheckMismatch
        from dualracah.linalg import SquareMatrix
        from dualracah.params import make_params
        from dualracah.poly import Poly

        assert False, "asserts must be stripped"
        s = multiindexed.build_mi_system(make_params("R", 4, b=9, c=rat(1, 2), d=rat(2, 5)), (1,))
        xp = recurrence.build_X(s, Poly([rat(1)]))
        h = dualsystem.build_hamiltonians(
            xp, recurrence.extract_r(s, xp), dualsystem.dual_values(s))

        # every Lagrange weight of the kernel doubled
        prod = poly.prod
        poly.prod = lambda factors: 2 * prod(factors)
        try:
            closure.solve_closure(h)
        except CrossCheckMismatch as e:
            print("kernel:", e)
        finally:
            poly.prod = prod

        trip = closure.solve_closure(h)
        # the table behind h_tilde, its Gram entry (1, 2) bumped
        band = recurrence.gram_band
        recurrence.gram_band = lambda *args: {**band(*args), (1, 2): 1}
        try:
            recurrence.extract_r(s, xp)
        except CrossCheckMismatch as e:
            print("eigen:", e)
        finally:
            recurrence.gram_band = band

        a_dual = list(h.dual.a_dual)
        a_dual[2] += 1
        bad_dual = replace(h.dual, a_dual=tuple(a_dual))
        try:
            bad_dual.certify_recurrence()
        except CrossCheckMismatch as e:
            print("jacobi:", e)
        try:
            closure.verify_closure(replace(h, dual=bad_dual), trip.data)
        except CrossCheckMismatch as e:
            print("closure:", e)

        def run(tag, fn, bad, t=trip.data):
            try:
                fn(bad, t)
            except CrossCheckMismatch as e:
                print(f"{tag}:", e)

        rows = [list(r) for r in h.V.rows]
        for r in rows:
            r[1], r[2] = r[2], r[1]
        grid = dict(h.x_grid)
        grid[1], grid[2] = grid[2], grid[1]
        swapped = replace(h, x_grid=grid, dual=replace(h.dual, V=SquareMatrix(rows)))
        run("swapped", closure.verify_ladder, swapped)
        for field in ("norms", "weights"):
            values = list(getattr(h.dual, field))
            values[3] *= 2
            bad = replace(h, dual=replace(h.dual, **{field: tuple(values)}))
            print(f"{field} listed:", dualsystem.dual_ortho(bad.dual) != [])
        xp_eta = recurrence.build_X(s, Poly([rat(0), rat(1)]))
        h_eta = dualsystem.build_hamiltonians(xp_eta, recurrence.extract_r(s, xp_eta), h.dual)
        for fn in (closure.verify_closure, closure.verify_ladder):
            run(f"spectrum {fn.__name__}", fn, h_eta)
        """
    )
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert "kernel: interpolant misses its node value at j=0" in out
    assert "eigen: band recurrence misses the grid at (n,x)=(1,0)" in out
    assert "jacobi: diag(Ebar)*V differs from V*T at (x,n)=(0,2)" in out
    assert "closure: diag(Ebar)*V differs from V*T at (x,n)=(0,2)" in out
    assert "swapped: diag(Ebar)*V differs from V*T at (x,n)=(1,0)" in out
    for field in ("norms", "weights"):
        assert f"{field} listed: True" in out
    for fn in ("verify_closure", "verify_ladder"):
        assert f"spectrum {fn}: closure triple was solved on another spectrum" in out
