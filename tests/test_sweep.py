"""A seeded sweep over random admissible tuples.

Each case draws a family, N from 2 to 9, an index set D of up to three
indices from 1..5 and a seed Y of degree at most 2 with non-negative
coefficients, at parameters that pass ``params.validate``.  The bandwidth
L = ell_D + deg Y + 1 then often exceeds N, a range the fixed tuples of
the other tests never reach.  Every exact suite must pass (the q->1 suite
needs an additive reference and is left out), and every fast route must
equal its oracle at that size.
"""

import random
from fractions import Fraction

import pytest

from dualracah import report
from dualracah.basefamily import racah_value
from dualracah.multiindexed import GridTable
from dualracah.params import QR, R, ell, make_params, shift, twist, validate
from dualracah.pipeline import Pipeline
from dualracah.recurrence import verify_recurrence
from comparators import poly_recurrence_failures, tridiagonal_closure
from conftest import r_by_solve

SEED = 31
COUNT = 30
EXACT_SUITES = tuple(s for s in report.SUITES if s != "qlimit")


def _unit(rng) -> Fraction:
    """A rational strictly between 0 and 1."""
    den = rng.randint(2, 9)
    return Fraction(rng.randint(1, den - 1), den)


def _draw(rng) -> dict:
    """One admissible run config, drawn from rng.  The ranges are met by
    construction; a draw that ``params.validate`` refuses all the same (a
    virtual state that loses its degree) is drawn again."""
    family, N = rng.choice((R, QR)), rng.randint(2, 9)
    D = sorted(rng.sample(range(1, 6), rng.randint(0, 3)))
    top = max(D, default=0)
    if family == R:
        d = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        c = (1 + d) * _unit(rng)
        b = N + d + top + 1 + Fraction(rng.randint(1, 20), rng.randint(1, 4))
        q = None
    else:
        q, d = _unit(rng), _unit(rng)
        c = q * d + (1 - q * d) * _unit(rng)
        b = d * q ** (top + 1 + N) * _unit(rng)
    if validate(make_params(family, N, b=b, c=c, d=d, q=q), D):
        return _draw(rng)
    Y = [Fraction(rng.randint(0, 4), 2) for _ in range(rng.randint(1, 3))]
    Y[rng.randrange(len(Y))] += 1  # nonzero
    cfg = {"family": family, "N": N, "b": str(b), "c": str(c), "d": str(d), "D": D,
           "Y": [str(v) for v in Y], "suites": list(EXACT_SUITES)}
    if q is not None:
        cfg["q"] = str(q)
    return cfg


_rng = random.Random(SEED)
CASES = [_draw(_rng) for _ in range(COUNT)]


@pytest.mark.parametrize(
    "raw", CASES, ids=[f"{i}-{c['family']}-N{c['N']}-D{c['D']}" for i, c in enumerate(CASES)]
)
def test_random_tuple_passes_every_exact_suite_and_oracle(raw):
    cfg = report.parse_config(raw)
    pipe = Pipeline(cfg.params(), cfg.D)
    failed = [name for name in EXACT_SUITES if not report._SUITE_FNS[name](cfg, pipe)["pass"]]
    assert failed == []

    p, D, N, Y = pipe.params, pipe.D, cfg.N, cfg.Y
    s, xp, t = pipe.system(), pipe.xpoly(Y), pipe.rectable(Y)
    # the cofactor grid, past the grid as far as the interpolation reads
    cofactor, per_entry = GridTable(D, p), GridTable(D, p)
    top = ell(D) + N
    for n in range(N + 1):
        assert cofactor.pdn_row(n, top + 1) == [per_entry.pdn(n, x) for x in range(top + 1)]
    # r by the Gram band, against the overdetermined solves
    assert t.r == r_by_solve(s, xp)
    # the polynomial recurrence past the grid, against the Poly products
    assert verify_recurrence(s, xp, t) == poly_recurrence_failures(s, xp, t) == []
    # the closure's tridiagonal residual in the dual eigenbasis
    assert tridiagonal_closure(pipe.hamiltonian(Y), pipe.closure(Y)) == []


@pytest.mark.parametrize(
    "raw", CASES, ids=[f"{i}-{c['family']}-N{c['N']}-D{c['D']}" for i, c in enumerate(CASES)]
)
def test_virtual_state_rows_equal_their_sums(raw):
    """Each exact virtual-state value, read from its interpolated
    polynomial, is the hypergeometric sum it replaced, on the main and the
    shifted table, past the grid as far as the cofactor route reads."""
    cfg = report.parse_config(raw)
    p, D = cfg.params(), cfg.D
    for t in (p, shift(p, 1, "delta")):
        tab, tw = GridTable(D, t), twist(t)
        for y in range(ell(D) + cfg.N + len(D) + 2):
            assert tab.xi_row(y) == [racah_value(dk, y, tw) for dk in D]


def test_grid_zero_passes_every_exact_suite():
    """A polynomial that vanishes at a grid point: P_(D,3)(3) = 0 here (row
    3 of the mi table is 1, 1/19, -8/19, 0, 13/19, -143/133) and dual
    column 3 has the same zero.  The oscillation counts skip the zero, which
    lies between entries of opposite sign, so every exact suite passes."""
    raw = {"family": "R", "N": 5, "b": "19", "c": "2", "d": "3", "D": [],
           "Y": ["0", "2", "1/2"], "suites": list(EXACT_SUITES)}
    cfg = report.parse_config(raw)
    pipe = Pipeline(cfg.params(), cfg.D)
    assert pipe.system().pdn_grid[3][3] == 0 == pipe.dual().V[3, 3]
    results = {name: report._SUITE_FNS[name](cfg, pipe) for name in EXACT_SUITES}
    assert [name for name, r in results.items() if not r["pass"]] == []
    assert results["mi"]["sign_changes"] == [0, 1, 2, 3, 4, 5]
