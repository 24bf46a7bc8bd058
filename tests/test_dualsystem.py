"""Dual tables, dual orthogonality, and the band Hamiltonians."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import pytest

from dualracah import closure, dualsystem, linalg, recurrence, report
from dualracah.backend import rat, rat_to_str
from dualracah.basefamily import racah_value
from dualracah.bigreal import big_sqrt
from dualracah.dualsystem import (
    build_hamiltonians,
    commutator_check,
    dual_ortho,
    dual_values,
    verify_spectrum,
)
from dualracah.errors import (
    CrossCheckMismatch,
    NegativeRadicand,
    ShapeMismatch,
    ZeroDenominator,
)
from dualracah.linalg import SquareMatrix
from dualracah.multiindexed import sign_changes
from dualracah.params import QR, R
from dualracah.pipeline import Pipeline
from dualracah.poly import Poly
from comparators import (
    dense_commutator,
    dense_eigen_misses,
    identity_matrix,
    loop_recurrence_residual,
    matrix_is_zero,
    matrix_sub,
    replace,
    scale_cols,
    system_dual_ortho,
)
from conftest import Y_ETA, Y_ONE

FAMILIES = (R, QR)
INDEX_SETS = ((1,), (2,), (1, 2))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_dual_table_edges(family, D, pipe):
    """Row 0 of V is all ones, so no eigenvector column vanishes: dual_values
    divides P_0 by itself and the eigenbasis certificate does not check it."""
    dual = pipe(family, 6, D).dual()
    assert dual.V.column(0) == [1] * 7 and dual.V.rows[0] == [1] * 7


@pytest.mark.parametrize("family", FAMILIES)
def test_base_dual_is_parameter_swap(family, pipe):
    """Undeformed dual values coincide with the original family at the
    swapped fourth parameter."""
    s = pipe(family, 6, ()).system()
    dual = pipe(family, 6, ()).dual()
    pd = s.params.dual()
    for x in range(7):
        for n in range(7):
            assert dual.V[n, x] == racah_value(x, n, pd)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_dual_orthogonality(family, D, pipe):
    assert dual_ortho(pipe(family, 6, D).dual()) == []


def test_dual_ortho_checker_sanity(pipe):
    s = pipe(R, 5, (1,)).system()
    dual = pipe(R, 5, (1,)).dual()
    rows = [list(r) for r in dual.V.rows]
    rows[3][2] = rows[3][2] + 1
    corrupt = replace(dual, V=SquareMatrix(rows))
    fails = dual_ortho(corrupt)
    assert fails and all(2 in (x, y) for x, y, _ in fails)
    assert fails == system_dual_ortho(s, corrupt)


def _dual_suite_run(N, D):
    """The config of a dual-suite run of the R family, and a fresh pipeline."""
    cfg = report.parse_config({
        "family": "R", "N": N, "b": str(N + 5), "c": "1/2", "d": "2/5", "D": list(D),
        "suites": ["dual"],
    })
    return cfg, Pipeline(cfg.params(), cfg.D)


def test_one_gram_serves_the_dual_suite_and_every_ladder(monkeypatch):
    """The dual suite and the ladder checks for the seeds 1 and 1+eta, on
    one pipeline, form one Gram: the orthogonality of the shared dual
    table, which the ladder checks do not read."""
    cfg, pl = _dual_suite_run(6, (1, 2))
    seeds = (cfg.Y, Poly([rat(1), rat(1)]))
    for y in seeds:
        pl.closure(y)  # every stage before the Gram, built uncounted
    grams = []
    kernel = linalg._gram_ints  # the one Gram kernel of gram_band and gram_residuals

    def counted(*args):
        grams.append(args)
        return kernel(*args)

    monkeypatch.setattr(linalg, "_gram_ints", counted)
    assert report._suite_dual(cfg, pl)["pass"]
    for y in seeds:
        closure.verify_ladder(pl.hamiltonian(y), pl.closure(y).data)
    assert pl.hamiltonian(seeds[0]).energies != pl.hamiltonian(seeds[1]).energies
    assert len(grams) == 1


@pytest.mark.parametrize("field", ["norms", "weights"])
def test_dual_suite_lists_a_corrupted_norm_or_weight(field, monkeypatch):
    """Entry 3 of the dual table's squared norms or weights doubled: the
    dual suite lists exactly the orthogonality sums it moves."""
    build = dualsystem.dual_values

    def corrupted(s):
        t = build(s)
        values = list(getattr(t, field))
        values[3] *= 2
        return replace(t, **{field: tuple(values)})

    monkeypatch.setattr(dualsystem, "dual_values", corrupted)
    cfg, pl = _dual_suite_run(5, (1,))
    out = report._suite_dual(cfg, pl)
    t = pl.dual()
    if field == "norms":
        expect = [(3, 3, -t.norms[3] / 2)]
    else:
        w, v = t.weights[3] / 2, t.V.rows[3]
        expect = [(x, y, w * v[x] * v[y]) for x in range(6) for y in range(x, 6) if v[x] * v[y]]
    assert not out["pass"]
    assert out["failures"] == [[x, y, rat_to_str(r)] for x, y, r in expect]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_dual_oscillation(family, D, pipe):
    dual = pipe(family, 6, D).dual()
    for x in range(7):
        assert sign_changes(dual.V.column(x)) == x


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_spectrum_exact(family, D, pipe):
    """The eigen-check passes, and the spectrum starts at 0 and strictly
    increases, as build_X makes it, for both seeds."""
    for y in (Y_ONE, Y_ETA):
        h = pipe(family, 6, D).hamiltonian(y)
        assert verify_spectrum(h) == []
        X = h.energies
        assert X[0] == 0 and all(a < b for a, b in zip(X, X[1:]))


@pytest.mark.parametrize("family", FAMILIES)
def test_first_energy_single_step(family, pipe):
    """The first eigenvalue is the one-term telescoping sum."""
    s = pipe(family, 6, (1,)).system()
    h = pipe(family, 6, (1,)).hamiltonian(Y_ONE)
    from dualracah.params import eta, shift
    p_m = shift(s.params, s.M, "delta")
    p_prev = shift(s.params, s.M - 1, "delta")
    assert h.energies[1] == eta(1, p_m) * s.xi_grid[1]  # Y = 1 at eta(1, prev)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_band_structure(family, D, pipe):
    t = pipe(family, 6, D).rectable(Y_ONE)
    h = pipe(family, 6, D).hamiltonian(Y_ONE)
    for x in range(7):
        for y in range(7):
            if abs(x - y) > t.L:
                assert h.h_tilde[x, y] == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_symmetric_form(family, pipe):
    """Products of mirrored symmetric entries equal the exact rational
    mirror products; the symmetric matrix is numerically symmetric."""
    pl = pipe(family, 5, (1,))
    t = pl.rectable(Y_ONE)
    from dualracah.bigreal import to_real
    from dualracah.shapeinv import symmetric_form
    sym = symmetric_form(t.rows, pl.system().dDn_sq, 256)
    with mpmath.workprec(256):
        tol = mpmath.mpf(2) ** -120
        for x in range(6):
            for y in range(6):
                assert abs(sym[x][y] - sym[y][x]) < tol
                k = y - x
                if (x, k) in t.r and (y, x - y) in t.r:
                    prod = to_real(t.r[(x, k)] * t.r[(y, -k)], 256)
                    assert abs(sym[x][y] * sym[y][x] - prod) < tol


@pytest.mark.parametrize("family", FAMILIES)
def test_commutativity_of_seeds(family, pipe):
    h1 = pipe(family, 6, (1,)).hamiltonian(Y_ONE)
    h2 = pipe(family, 6, (1,)).hamiltonian(Y_ETA)
    commutator_check(h1, h2)
    commutator_check(h1, h1)
    assert dense_commutator(h1, h2) == []


def test_commutator_checker_sanity(pipe, monkeypatch):
    """One corrupted band entry of h2: the dense commutator no longer
    vanishes, and the spectrum listing names h2's row 0.  The commutator
    check rests on the grid certificate of the r-table that h_tilde is, so
    the corruption is stopped where that table is made: the Gram entry
    behind r[(0,1)] zeroed fails extract_r at (n,x) = (0,0)."""
    pl = pipe(R, 5, (1,))
    h1 = pl.hamiltonian(Y_ONE)
    rows = [list(r) for r in h1.h_tilde.rows]
    rows[0][1] = rows[0][1] + 1
    h2 = replace(h1, h_tilde=SquareMatrix(rows))
    assert dense_commutator(h1, h2) != []
    assert verify_spectrum(h2) == [("eigen", 0, j) for j in range(6) if h1.V[1, j] != 0]
    band = recurrence.gram_band
    monkeypatch.setattr(recurrence, "gram_band", lambda *args: {**band(*args), (0, 1): 0})
    with pytest.raises(
        CrossCheckMismatch, match=r"band recurrence misses the grid at \(n,x\)=\(0,0\)"
    ):
        recurrence.extract_r(pl.system(), pl.xpoly(Y_ONE))


@pytest.mark.parametrize("family", FAMILIES)
def test_commutator_refuses_two_eigenbases(family, pipe):
    """Two certified Hamiltonians of the same order on different index sets
    have different V: not a commuting pair, whatever their products."""
    h1 = pipe(family, 5, (1,)).hamiltonian(Y_ONE)
    h2 = pipe(family, 5, (2,)).hamiltonian(Y_ONE)
    assert h1.V != h2.V
    with pytest.raises(CrossCheckMismatch, match="the Hamiltonians are not diagonal in one eigenbasis V"):
        commutator_check(h1, h2)


def test_commutator_shape_mismatch(pipe):
    h1 = pipe(R, 5, (1,)).hamiltonian(Y_ONE)
    h2 = pipe(R, 6, (1,)).hamiltonian(Y_ONE)
    with pytest.raises(ShapeMismatch):
        commutator_check(h1, h2)


@pytest.mark.parametrize("family", FAMILIES)
def test_eigenbasis_shared_across_seeds(family, pipe):
    """Both seed choices are diagonalized by the same dual eigenvector
    matrix, with eigenvalues given by their own X grids."""
    h1 = pipe(family, 6, (1,)).hamiltonian(Y_ONE)
    h2 = pipe(family, 6, (1,)).hamiltonian(Y_ETA)
    assert h1.V.rows == h2.V.rows
    lhs = h2.h_tilde @ h2.V
    rhs = h2.V @ scale_cols(identity_matrix(h2.V.n), h2.energies)
    assert matrix_is_zero(matrix_sub(lhs, rhs))


def test_spectrum_reports_each_entry_in_one_kernel_run(pipe, monkeypatch):
    """The spectrum listing is one run of the eigen kernel, which forms no
    h_tilde*V product; the closure check does not run it, since the
    eigen identity is the r-table's grid certificate.  A skewed entry of
    h_tilde is reported at every position of its row that it reaches."""
    from dualracah import closure, dualsystem

    h = pipe(R, 5, (1,)).hamiltonian(Y_ONE)
    trip = pipe(R, 5, (1,)).closure(Y_ONE)
    h.dual.recurrence_residual  # the shared dual table's residual, formed uncounted
    fresh = replace(h)  # same matrices, no cached property carried over
    calls, kernel_calls = [], []
    matmul, kernel = SquareMatrix.__matmul__, dualsystem.eigen_misses

    def counted(a, b):
        calls.append((a, b))
        return matmul(a, b)

    def counted_kernel(*args):
        kernel_calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(SquareMatrix, "__matmul__", counted)
    monkeypatch.setattr(dualsystem, "eigen_misses", counted_kernel)
    closure.verify_closure(fresh, trip.data)
    assert kernel_calls == [] and "eigen_residual" not in vars(fresh)
    assert verify_spectrum(fresh) == []
    assert not any(a is fresh.h_tilde and b is fresh.V for a, b in calls)
    assert len(kernel_calls) == 1
    monkeypatch.undo()

    rows = [list(r) for r in h.h_tilde.rows]
    rows[1][2] += rat(1, 7)
    bad = replace(h, h_tilde=SquareMatrix(rows))
    assert verify_spectrum(bad) == [("eigen", 1, j) for j in range(6) if h.V[2, j] != 0]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("D", INDEX_SETS)
def test_eigen_residual_is_the_grid_certificate_over_the_ground_state(family, D, pipe):
    """h_tilde*V = V*diag(X) is extract_r's certificate R*P = P*diag(X)
    with column x divided by P_0(x).  With any one r-table entry corrupted,
    the grid misses and the eigen residual of the Hamiltonian built on that
    table name the same (n, x) entries, and each grid residual is P_0(x)
    times the eigen one."""
    pl = pipe(family, 5, D)
    s, xp, t = pl.system(), pl.xpoly(Y_ONE), pl.rectable(Y_ONE)
    X = [xp.grid[x] for x in range(6)]
    for key in t.r:
        bad = replace(t, r={**t.r, key: t.r[key] + rat(1, 3)})
        grid = linalg.eigen_misses(bad.rows, list(zip(*s.pdn_grid)), X)
        eigen = build_hamiltonians(xp, bad, pl.dual()).eigen_residual
        assert grid and [(n, x) for n, x, _ in grid] == [(n, x) for n, x, _ in eigen]
        assert all(g == s.pdn_grid[0][x] * e for (_, x, g), (_, _, e) in zip(grid, eigen))


def _bumped(m: SquareMatrix, i: int, j: int) -> SquareMatrix:
    rows = [list(r) for r in m.rows]
    rows[i][j] += rat(1, 7)
    return SquareMatrix(rows)


@pytest.mark.parametrize("family", FAMILIES)
def test_eigen_residual_equals_dense_oracle_under_single_corruptions(family, pipe):
    """Every single-entry corruption of h_tilde (in and out of its band), of
    V and of the X grid: the kernel's (x, n, r) entries are the dense
    product's, in the same order, and every corruption of h_tilde, V or
    X(0..N) is caught."""
    h = pipe(family, 5, (1,)).hamiltonian(Y_ONE)
    n1 = h.h_tilde.n
    assert pipe(family, 5, (1,)).rectable(Y_ONE).L < n1 - 1  # some entries lie outside the band
    caught = [
        replace(h, h_tilde=_bumped(h.h_tilde, i, j)) for i in range(n1) for j in range(n1)
    ] + [
        replace(h, dual=replace(h.dual, V=_bumped(h.V, i, j)))
        for i in range(n1) for j in range(n1)
    ] + [replace(h, x_grid={**h.x_grid, x: h.x_grid[x] + rat(1, 7)}) for x in range(n1)]
    unread = [replace(h, x_grid={**h.x_grid, x: h.x_grid[x] + rat(1, 7)}) for x in (-1, n1)]
    for bad in caught + unread:
        assert bad.eigen_residual == dense_eigen_misses(bad)
    assert all(bad.eigen_residual for bad in caught)
    assert not any(bad.eigen_residual for bad in unread)


def _bumped_entry(values: tuple, k: int) -> tuple:
    return values[:k] + (values[k] + rat(1, 7),) + values[k + 1:]


@pytest.mark.parametrize("family", FAMILIES)
def test_recurrence_residual_equals_loop_oracle_under_single_corruptions(family, pipe):
    """Every single-entry corruption of V, a_dual, b_dual, c_dual and Ebar:
    the band kernel on the rows of T^T gives the three-term loop's (x, n, r)
    entries, in the same order.  Only a_dual[N] and c_dual[0], which fall
    outside T, go unread.  Two corrupted columns of T put misses in several
    rows and columns, where the kernel's (n, x) order must be sorted back."""
    dual = pipe(family, 5, (1,)).dual()
    n1 = dual.V.n
    bad = [replace(dual, V=_bumped(dual.V, i, j)) for i in range(n1) for j in range(n1)]
    for name in ("a_dual", "b_dual", "c_dual", "ebar"):
        bad += [replace(dual, **{name: _bumped_entry(getattr(dual, name), k)}) for k in range(n1)]
    assert dual.recurrence_residual == [] == loop_recurrence_residual(dual)
    unread = [replace(dual, a_dual=_bumped_entry(dual.a_dual, n1 - 1)),
              replace(dual, c_dual=_bumped_entry(dual.c_dual, 0))]
    for t in bad:
        assert t.recurrence_residual == loop_recurrence_residual(t)
        assert (t.recurrence_residual == []) == any(t == u for u in unread)
    two = replace(dual, b_dual=_bumped_entry(_bumped_entry(dual.b_dual, 1), 3))
    assert [(x, n) for x, n, _ in two.recurrence_residual] == [
        (x, n) for x in range(n1) for n in (1, 3)
    ]
    assert two.recurrence_residual == loop_recurrence_residual(two)


@pytest.mark.parametrize("family", FAMILIES)
def test_dual_edge_coefficients_must_vanish(family, pipe):
    """a_dual[N] and c_dual[0] are exact zeros, unchecked by dual_values:
    B(N) carries the factor N + a (1 - a*q^N for qR) with a = -N (q^(-N)),
    and D(0) the factor x."""
    for N in (3, 5, 6):
        for D in ((),) + INDEX_SETS:
            dual = pipe(family, N, D).dual()
            assert dual.a_dual[N] == 0 and dual.c_dual[0] == 0


def test_big_sqrt_rejects_negative_rational():
    with pytest.raises(NegativeRadicand):
        big_sqrt(rat(-1, 3), 256)


@pytest.mark.parametrize("family", FAMILIES)
def test_skewed_band_entry_fails_mirror_and_eigen_checks(family, pipe):
    """One off-diagonal r-table entry skewed breaks the mirror identity,
    which extract_r keeps by construction; a Hamiltonian built from that
    table anyway fails the eigen-check in exactly the skewed row."""
    pl = pipe(family, 5, (1,))
    s, t = pl.system(), pl.rectable(Y_ONE)
    bad = replace(t, r={**t.r, (2, 1): t.r[(2, 1)] + rat(1, 3)})
    assert bad.r[(3, -1)] != s.dDn_sq[2] / s.dDn_sq[3] * bad.r[(2, 1)]
    h = build_hamiltonians(pl.xpoly(Y_ONE), bad, pl.dual())
    assert verify_spectrum(h) == [("eigen", 2, j) for j in range(6) if h.V[3, j] != 0]


def test_hamiltonian_keeps_one_spectrum_and_no_stale_certificate(pipe):
    """X is held once, in x_grid; the eigen residual and the certified
    eigenbasis are cached on the Hamiltonian, the orthogonality residual
    on its dual table, and each is formed afresh on a replace() copy."""
    h = pipe(R, 5, (1,)).hamiltonian(Y_ONE)
    assert "energies" not in vars(h)
    assert h.energies == tuple(h.x_grid[n] for n in range(6))
    assert h.eigenbasis is h.dual and h.dual.ortho_residual == []
    assert verify_spectrum(h) == []
    cached = {"eigen_residual", "eigenbasis"}
    assert cached <= set(vars(h))
    assert not cached & set(vars(replace(h)))
    table_cached = {"ortho_residual"}
    assert table_cached <= set(vars(h.dual))
    assert not table_cached & set(vars(replace(h.dual)))


def test_dual_table_keeps_no_stale_verdict(pipe):
    """replace() gives a table whose residual is formed afresh, and V is the
    dual table's own matrix on every Hamiltonian built from it."""
    pl = pipe(R, 5, (1,))
    dual = pl.dual()
    assert dual.recurrence_residual == [] and "recurrence_residual" in vars(dual)
    assert pl.hamiltonian(Y_ONE).V is dual.V is pl.hamiltonian(Y_ETA).V
    b_dual = list(dual.b_dual)
    b_dual[4] += rat(1, 5)
    bad = replace(dual, b_dual=tuple(b_dual))
    assert "recurrence_residual" not in vars(bad)
    assert [(x, n) for x, n, _ in bad.recurrence_residual] == [(x, 4) for x in range(6)]
    with pytest.raises(CrossCheckMismatch, match=r"V\*T at \(x,n\)=\(0,4\)"):
        bad.certify_recurrence()


@pytest.mark.parametrize("family", FAMILIES)
def test_vanishing_ground_state_raises_zero_denominator(family, pipe):
    s = pipe(family, 5, (1,)).system()
    ground = list(s.pdn_grid[0])
    ground[1] = 0
    bad = replace(s, pdn_grid=(tuple(ground),) + s.pdn_grid[1:])
    with pytest.raises(ZeroDenominator, match="ground-state polynomial vanishes at x=1"):
        dual_values(bad)


def test_commutator_certification_survives_python_O():
    """Under -O the commutator check still refuses two eigenbases and a
    dual table that misses its recurrence, a bumped Gram entry still stops
    extract_r, and one corrupted band entry of h2 is still listed by the
    spectrum check: none of them is an assert."""
    script = textwrap.dedent(
        """
        from comparators import replace
        from dualracah import dualsystem, multiindexed, recurrence
        from dualracah.backend import rat
        from dualracah.errors import CrossCheckMismatch
        from dualracah.linalg import SquareMatrix
        from dualracah.params import make_params
        from dualracah.poly import Poly

        assert False, "asserts must be stripped"
        p = make_params("R", 4, b=9, c=rat(1, 2), d=rat(2, 5))

        def hamiltonian(D):
            s = multiindexed.build_mi_system(p, D)
            xp = recurrence.build_X(s, Poly([rat(1)]))
            return dualsystem.build_hamiltonians(
                xp, recurrence.extract_r(s, xp), dualsystem.dual_values(s))

        h = hamiltonian((1,))
        rows = [list(r) for r in h.h_tilde.rows]
        rows[2][3] += 1
        print("listed:", dualsystem.verify_spectrum(replace(h, h_tilde=SquareMatrix(rows))))
        a_dual = list(h.dual.a_dual)
        a_dual[2] += 1
        bad = replace(h, dual=replace(h.dual, a_dual=tuple(a_dual)))
        for other in (bad, hamiltonian((2,))):
            try:
                dualsystem.commutator_check(h, other)
            except CrossCheckMismatch as e:
                print("commute:", e)

        # the table behind h, its Gram entry (2, 3) zeroed
        band = recurrence.gram_band
        recurrence.gram_band = lambda *args: {**band(*args), (2, 3): 0}
        try:
            s = multiindexed.build_mi_system(p, (1,))
            recurrence.extract_r(s, recurrence.build_X(s, Poly([rat(1)])))
        except CrossCheckMismatch as e:
            print("table:", e)
        """
    )
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert "listed: [('eigen', 2, 0)," in out
    assert "commute: diag(Ebar)*V differs from V*T at (x,n)=(0,2)" in out
    assert "commute: the Hamiltonians are not diagonal in one eigenbasis V" in out
    assert "table: band recurrence misses the grid at (n,x)=(2,0)" in out
