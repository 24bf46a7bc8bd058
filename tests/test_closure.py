"""Closure relation residuals and spectral-calculus ladder operators."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from dualracah import closure
from dualracah.backend import rat
from dualracah.closure import (
    build_ladder,
    eigen_inverse,
    verify_closure,
    verify_ladder,
)
from dualracah.errors import CrossCheckMismatch, SingularR0
from dualracah.linalg import SquareMatrix
from dualracah.params import QR, R
from dualracah.poly import Poly
from conftest import SEEDS, Y_ETA, Y_ONE, solve_overdetermined

FAMILIES = (R, QR)
CASES = [((1,), "1"), ((2,), "1"), ((1, 2), "1"), ((1,), "eta")]


# The generic routes the eigenbasis route replaced, kept as oracles.


def exact_inverse(a: SquareMatrix) -> SquareMatrix:
    """Inverse by one exact solve per column."""
    n = a.n
    cols = [solve_overdetermined(a.rows, [1 if i == j else 0 for i in range(n)])
            for j in range(n)]
    return SquareMatrix(list(zip(*cols)))


def vandermonde_closure(h):
    """(R0, R1, Rm1) by solving the square Vandermonde system of the
    spectrum for each of the three node-data vectors."""
    X, nodes = h.x_grid, h.energies
    beta0 = [(X[j + 1] - X[j]) * (X[j] - X[j - 1]) for j in range(len(nodes))]
    beta1 = [X[j + 1] - 2 * X[j] + X[j - 1] for j in range(len(nodes))]
    betam1 = [-b0 * h.dual.b_dual[j] for j, b0 in enumerate(beta0)]
    vm = [[z ** i for i in range(len(nodes))] for z in nodes]
    return tuple(Poly(solve_overdetermined(vm, beta)) for beta in (beta0, beta1, betam1))


def matrix_poly(coeffs, h: SquareMatrix) -> SquareMatrix:
    """sum_k coeffs[k] * h^k by matrix Horner, exactly."""
    n = h.n
    acc = SquareMatrix.identity(n).scale(rat(0))
    for c in reversed(list(coeffs)):
        acc = acc @ h + SquareMatrix.identity(n).scale(rat(c))
    return acc


def commutator(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """a*b - b*a."""
    return a @ b - b @ a


def _horner_residual(h, trip):
    """[h,[h,E]] - (E*R0(h) + [h,E]*R1(h) + Rm1(h)) by matrix Horner."""
    ht = h.h_tilde
    ebar = SquareMatrix.diagonal(list(h.ebar))
    inner = commutator(ht, ebar)
    rhs = (
        ebar @ matrix_poly(trip.R0.coeffs, ht)
        + inner @ matrix_poly(trip.R1.coeffs, ht)
        + matrix_poly(trip.Rm1.coeffs, ht)
    )
    return commutator(ht, inner) - rhs


def _spectral_ladder(h, trip):
    """Both ladder operators by V*diag*exact_inverse(V) spectral calculus."""
    N = h.h_tilde.n - 1
    X = h.x_grid
    vinv = exact_inverse(h.V)

    def fn(values):
        return h.V @ SquareMatrix.diagonal(values) @ vinv

    alpha_p = fn([X[n + 1] - X[n] for n in range(N + 1)])
    alpha_m = fn([X[n - 1] - X[n] for n in range(N + 1)])
    gap_inv = fn([1 / (X[n + 1] - X[n - 1]) for n in range(N + 1)])
    corr = fn([trip.Rm1(X[n]) / trip.R0(X[n]) for n in range(N + 1)])
    ebar = SquareMatrix.diagonal(list(h.ebar))
    inner = commutator(h.h_tilde, ebar)
    shifted = ebar + corr
    a_plus = (inner - shifted @ alpha_m) @ gap_inv
    a_minus = ((inner - shifted @ alpha_p) @ gap_inv).scale(-1)
    return a_plus, a_minus


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
    residual = verify_closure(h, trip)
    assert residual.is_zero()
    assert residual == _horner_residual(h, trip)


@pytest.mark.parametrize("family", FAMILIES)
def test_undeformed_control_degrees(family, pipe):
    """Without deformation the closure polynomials have the classical
    degree pattern (2, 1, 2) and the residual still vanishes."""
    h = pipe(family, 5, ()).hamiltonian(Y_ONE)
    trip = pipe(family, 5, ()).closure(Y_ONE)
    assert verify_closure(h, trip).is_zero()
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
def test_r0_vanishes_iff_degenerate_seed(family, pipe):
    assert not pipe(family, 5, (1,)).closure(Y_ONE).r0_vanishes_at_zero
    assert pipe(family, 5, (1,)).closure(Y_ETA).r0_vanishes_at_zero


def test_spectral_fn_reproduces_polynomials(pipe):
    h = pipe(R, 5, (1,)).hamiltonian(Y_ONE)
    # V diag(f(X)) V^(-1) is the function f of the Hamiltonian: for
    # f(X) = X^2 it is the matrix square
    sq = h.V.scale_cols([v * v for v in h.energies]) @ eigen_inverse(h)
    assert (sq - h.h_tilde @ h.h_tilde).is_zero()
    ident = h.V.scale_cols([rat(1)] * 6) @ eigen_inverse(h)
    assert (ident - SquareMatrix.identity(6)).is_zero()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", [(1,), (2,), (1, 2)])
def test_ladder_actions_exact(family, D, pipe):
    h = pipe(family, 6, D).hamiltonian(Y_ONE)
    trip = pipe(family, 6, D).closure(Y_ONE)
    lp = build_ladder(h, trip)
    assert verify_ladder(h, lp) == []


@pytest.mark.parametrize("family", FAMILIES)
def test_ladder_degenerate_seed_raises(family, pipe):
    h = pipe(family, 6, (1,)).hamiltonian(Y_ETA)
    trip = pipe(family, 6, (1,)).closure(Y_ETA)
    with pytest.raises(SingularR0):
        build_ladder(h, trip)


@pytest.mark.parametrize("family", FAMILIES)
def test_ladder_boundary_annihilation(family, pipe):
    h = pipe(family, 5, (1,)).hamiltonian(Y_ONE)
    lp = build_ladder(h, pipe(family, 5, (1,)).closure(Y_ONE))
    top = (lp.a_plus @ h.V).column(5)
    bottom = (lp.a_minus @ h.V).column(0)
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
    h = pipe(family, N, D).hamiltonian(SEEDS[y])
    trip = pipe(family, N, D).closure(SEEDS[y])
    assert eigen_inverse(h) == exact_inverse(h.V)
    if trip.r0_vanishes_at_zero:
        with pytest.raises(SingularR0):
            build_ladder(h, trip)
        return
    lp = build_ladder(h, trip)
    assert (lp.a_plus, lp.a_minus) == _spectral_ladder(h, trip)


@pytest.mark.parametrize("family", FAMILIES)
def test_corrupted_r1_residual_equals_horner(family, pipe):
    h = pipe(family, 5, (1, 2)).hamiltonian(Y_ONE)
    trip = pipe(family, 5, (1, 2)).closure(Y_ONE)
    bad = replace(trip, R1=Poly([trip.R1[0] + rat(1, 3)] + list(trip.R1.coeffs[1:])))
    residual = verify_closure(h, bad)
    assert not residual.is_zero()
    assert residual == _horner_residual(h, bad)


@pytest.mark.parametrize("family", FAMILIES)
def test_corrupted_inverse_data_raises(family, pipe):
    h = pipe(family, 5, (1,)).hamiltonian(Y_ONE)
    trip = pipe(family, 5, (1,)).closure(Y_ONE)
    # replace() copies h with an empty certification cache
    bad_v = replace(h, V=_corrupt(h.V, 2, 3))
    gw = list(h.ground_weight)
    gw[4] *= 2
    bad_gw = replace(h, ground_weight=tuple(gw))
    for bad in (bad_v, bad_gw):
        with pytest.raises(CrossCheckMismatch, match=r"V\*V\^\(-1\) = I"):
            eigen_inverse(bad)
        with pytest.raises(CrossCheckMismatch, match=r"V\*V\^\(-1\) = I"):
            verify_closure(bad, trip)
        with pytest.raises(CrossCheckMismatch, match=r"V\*V\^\(-1\) = I"):
            build_ladder(bad, trip)


@pytest.mark.parametrize("family", FAMILIES)
def test_corrupted_hamiltonian_fails_eigen_certification(family, pipe):
    h = pipe(family, 5, (1,)).hamiltonian(Y_ONE)
    trip = pipe(family, 5, (1,)).closure(Y_ONE)
    for fn in (verify_closure, build_ladder):
        bad = replace(h, h_tilde=_corrupt(h.h_tilde, 1, 2))
        with pytest.raises(CrossCheckMismatch, match=r"h_tilde\*V differs"):
            fn(bad, trip)


@pytest.mark.parametrize("family", FAMILIES)
def test_shifted_leading_coefficient_fails_node_check(family, pipe, monkeypatch):
    h = pipe(family, 5, (1, 2)).hamiltonian(Y_ONE)
    interpolate, calls = closure.interpolate, []

    def skewed(nodes, values):
        # shift the leading coefficient of R0, the first interpolant
        p = interpolate(nodes, values)
        calls.append(p)
        return Poly(p.coeffs[:-1] + (p.coeffs[-1] + 1,)) if len(calls) == 1 else p

    monkeypatch.setattr(closure, "interpolate", skewed)
    with pytest.raises(CrossCheckMismatch, match="closure polynomials miss their node data"):
        closure.solve_closure(h)


@pytest.mark.parametrize("family", FAMILIES)
def test_corrupted_dual_coefficient_fails_exactly_its_column(family, pipe):
    """verify_ladder checks a+ against a_dual and a- against c_dual column
    by column: one wrong coefficient is reported at its own column only."""
    h = pipe(family, 5, (1,)).hamiltonian(Y_ONE)
    lp = build_ladder(h, pipe(family, 5, (1,)).closure(Y_ONE))
    for k in (0, 2, 4):
        a_dual = list(h.dual.a_dual)
        a_dual[k] += rat(1, 3)
        bad = replace(h, dual=replace(h.dual, a_dual=tuple(a_dual)))
        assert verify_ladder(bad, lp) == [("plus", k)]
    for k in (1, 3, 5):
        c_dual = list(h.dual.c_dual)
        c_dual[k] += rat(1, 3)
        bad = replace(h, dual=replace(h.dual, c_dual=tuple(c_dual)))
        assert verify_ladder(bad, lp) == [("minus", k)]


def test_certifications_survive_python_O():
    """Under -O the closure checks still raise: none of them is an assert."""
    script = textwrap.dedent(
        """
        from dataclasses import replace
        from dualracah import closure, multiindexed, recurrence, dualsystem
        from dualracah.backend import rat
        from dualracah.errors import CrossCheckMismatch
        from dualracah.linalg import SquareMatrix
        from dualracah.params import make_params
        from dualracah.poly import Poly

        assert False, "asserts must be stripped"
        s = multiindexed.build_mi_system(make_params("R", 4, b=9, c=rat(1, 2), d=rat(2, 5)), (1,))
        xp = recurrence.build_X(s, Poly([rat(1)]), for_hamiltonian=True)
        h = dualsystem.build_hamiltonians(
            s, xp, recurrence.extract_r(s, xp), dualsystem.dual_values(s))

        interpolate = closure.interpolate

        def skewed_run(tag, which, skew):
            calls = []

            def skewed(nodes, values):
                p = interpolate(nodes, values)
                calls.append(p)
                return Poly(skew(p.coeffs)) if len(calls) == which + 1 else p

            closure.interpolate = skewed
            try:
                closure.solve_closure(h)
            except CrossCheckMismatch as e:
                print(f"{tag}:", e)
            finally:
                closure.interpolate = interpolate

        # corrupt the constant coefficient of R1, the second interpolant
        skewed_run("node", 1, lambda cs: (cs[0] + 1,) + cs[1:])
        # shift the leading coefficient of R0, the first interpolant
        skewed_run("lead", 0, lambda cs: cs[:-1] + (cs[-1] + 1,))

        trip = closure.solve_closure(h)
        rows = [list(r) for r in h.h_tilde.rows]
        rows[1][2] += 1
        try:
            closure.verify_closure(replace(h, h_tilde=SquareMatrix(rows)), trip)
        except CrossCheckMismatch as e:
            print("eigen:", e)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert "node: closure polynomials miss their node data" in out
    assert "lead: closure polynomials miss their node data" in out
    assert "eigen: h_tilde*V differs from V*diag(X)" in out
