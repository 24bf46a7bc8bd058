"""Dual tables, dual orthogonality, and the band Hamiltonians."""

import mpmath
import pytest

from dualracah.basefamily import racah_value
from dualracah.dualsystem import (
    DualTable,
    commutator_check,
    dual_ortho,
    dual_values,
    verify_spectrum,
)
from dualracah.errors import CrossCheckMismatch, ShapeMismatch
from dualracah.linalg import SquareMatrix
from dualracah.multiindexed import MISystem, sign_changes
from dualracah.params import QR, R

FAMILIES = (R, QR)
INDEX_SETS = ((1,), (2,), (1, 2))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_dual_table_edges(family, D, pipe):
    dual = pipe.dual(family, 6, D)
    for n in range(7):
        assert dual.q_vals[0][n] == 1
    for x in range(7):
        assert dual.q_vals[x][0] == 1
    assert dual.a_dual[6] == 0 and dual.c_dual[0] == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_base_dual_is_parameter_swap(family, pipe):
    """Undeformed dual values coincide with the original family at the
    swapped fourth parameter."""
    s = pipe.system(family, 6, ())
    dual = pipe.dual(family, 6, ())
    pd = s.params.dual()
    for x in range(7):
        for n in range(7):
            assert dual.q_vals[x][n] == racah_value(x, n, pd)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_dual_orthogonality(family, D, pipe):
    s = pipe.system(family, 6, D)
    assert dual_ortho(s, pipe.dual(family, 6, D)) == []


def test_dual_ortho_checker_sanity(pipe):
    s = pipe.system(R, 5, (1,))
    dual = pipe.dual(R, 5, (1,))
    rows = [list(r) for r in dual.q_vals]
    rows[2][3] = rows[2][3] + 1
    corrupt = DualTable(
        q_vals=tuple(tuple(r) for r in rows),
        a_dual=dual.a_dual, b_dual=dual.b_dual, c_dual=dual.c_dual,
    )
    fails = dual_ortho(s, corrupt)
    assert fails and all(2 in (x, y) for x, y, _ in fails)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_dual_oscillation(family, D, pipe):
    dual = pipe.dual(family, 6, D)
    for x in range(7):
        assert sign_changes([dual.q_vals[x][n] for n in range(7)]) == x


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_spectrum_exact(family, D, pipe):
    h = pipe.hamiltonian(family, 6, D)
    assert verify_spectrum(h) == []
    assert h.energies[0] == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_first_energy_single_step(family, pipe):
    """The first eigenvalue is the one-term telescoping sum."""
    s = pipe.system(family, 6, (1,))
    h = pipe.hamiltonian(family, 6, (1,))
    from dualracah.params import eta, shift
    p_m = shift(s.params, s.M, "delta")
    p_prev = shift(s.params, s.M - 1, "delta")
    assert h.energies[1] == eta(1, p_m) * s.xi_grid[1]  # Y = 1 at eta(1, prev)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_band_structure(family, D, pipe):
    h = pipe.hamiltonian(family, 6, D)
    for x in range(7):
        for y in range(7):
            if abs(x - y) > h.L:
                assert h.h_tilde[x, y] == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_symmetric_form(family, pipe):
    """Products of mirrored symmetric entries equal the exact rational
    mirror products; the symmetric matrix is numerically symmetric."""
    s = pipe.system(family, 5, (1,))
    t = pipe.rectable(family, 5, (1,), "1")
    h = pipe.hamiltonian(family, 5, (1,))
    from dualracah.bigreal import to_real
    with mpmath.workprec(256):
        tol = mpmath.mpf(2) ** -120
        for x in range(6):
            for y in range(6):
                assert abs(h.h_sym[x, y] - h.h_sym[y, x]) < tol
                k = y - x
                if (x, k) in t.r and (y, x - y) in t.r:
                    prod = to_real(t.r[(x, k)] * t.r[(y, -k)])
                    assert abs(h.h_sym[x, y] * h.h_sym[y, x] - prod) < tol


@pytest.mark.parametrize("family", FAMILIES)
def test_commutativity_of_seeds(family, pipe):
    h1 = pipe.hamiltonian(family, 6, (1,), "1")
    h2 = pipe.hamiltonian(family, 6, (1,), "eta")
    assert commutator_check(h1, h2) == []
    assert commutator_check(h1, h1) == []


def test_commutator_checker_sanity(pipe):
    h1 = pipe.hamiltonian(R, 5, (1,))
    rows = [list(r) for r in h1.h_tilde.rows]
    rows[0][1] = rows[0][1] + 1
    import dataclasses
    h2 = dataclasses.replace(h1, h_tilde=SquareMatrix(rows))
    assert commutator_check(h1, h2) != []


def test_commutator_shape_mismatch(pipe):
    h1 = pipe.hamiltonian(R, 5, (1,))
    h2 = pipe.hamiltonian(R, 6, (1,))
    with pytest.raises(ShapeMismatch):
        commutator_check(h1, h2)


@pytest.mark.parametrize("family", FAMILIES)
def test_eigenbasis_shared_across_seeds(family, pipe):
    """Both seed choices are diagonalized by the same dual eigenvector
    matrix, with eigenvalues given by their own X grids."""
    h1 = pipe.hamiltonian(family, 6, (1,), "1")
    h2 = pipe.hamiltonian(family, 6, (1,), "eta")
    assert h1.V.rows == h2.V.rows
    lhs = h2.h_tilde @ h2.V
    rhs = h2.V @ SquareMatrix.diagonal(list(h2.energies))
    assert (lhs - rhs).is_zero()


def test_spectrum_reports_each_entry_and_shares_hv(pipe, monkeypatch):
    from dataclasses import replace

    from dualracah import closure
    from dualracah.backend import rat

    h = pipe.hamiltonian(R, 5, (1,))
    trip = pipe.closure_triple(R, 5, (1,))
    fresh = replace(h)  # same matrices, empty cache
    calls = []
    matmul = SquareMatrix.__matmul__

    def counted(a, b):
        calls.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(SquareMatrix, "__matmul__", counted)
    assert verify_spectrum(fresh) == []
    assert closure.verify_closure(fresh, trip).is_zero()
    assert sum(a is fresh.h_tilde and b is fresh.V for a, b in calls) == 1
    monkeypatch.undo()

    rows = [list(r) for r in h.h_tilde.rows]
    rows[1][2] += rat(1, 7)
    bad = replace(h, h_tilde=SquareMatrix(rows))
    eigen = [f for f in verify_spectrum(bad) if f[0] == "eigen"]
    assert eigen == [("eigen", 1, j) for j in range(6) if h.V[2, j] != 0]


@pytest.mark.parametrize("family", FAMILIES)
def test_dual_edge_coefficients_must_vanish(family, pipe, monkeypatch):
    s = pipe.system(family, 5, (1,))
    birth = MISystem.bd
    monkeypatch.setattr(MISystem, "bd", lambda self, x: birth(self, x) + (x == 5))
    with pytest.raises(CrossCheckMismatch, match="do not vanish at the edges"):
        dual_values(s)
