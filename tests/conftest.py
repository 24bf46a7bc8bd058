"""Shared fixtures: standard parameter tuples and a cached pipeline builder.

Exact constructions are cheap at desk scale but not free; caching the built
systems per (family, N, D, Y) keeps the whole suite fast while letting
every test module ask for exactly the configurations it needs.
"""

import functools

import pytest

from dualracah import multiindexed
from dualracah.backend import rat
from dualracah.basefamily import racah_value, xi_v
from dualracah.linalg import generic_det
from dualracah.params import QR, R, make_params
from dualracah.pipeline import Pipeline
from dualracah.poly import Poly

Y_ONE = Poly([rat(1)])
Y_ETA = Poly([rat(0), rat(1)])
SEEDS = {"1": Y_ONE, "eta": Y_ETA}


def std_params(family: str, N: int):
    """An admissible tuple for either family, valid for max(D) <= 2."""
    if family == R:
        return make_params(R, N, b=N + 5, c=rat(1, 2), d=rat(2, 5))
    q = rat(1, 2)
    return make_params(QR, N, b=q ** (N + 5), c=rat(1, 2), d=rat(2, 5), q=q)


def per_entry_xi(x, D, p):
    """Denominator grid value, every factor evaluated afresh (the route
    ``multiindexed.GridTable`` replaced, kept as an oracle)."""
    M = len(D)
    if M == 0:
        return rat(1) if p.is_exact() else p.b * 0 + 1
    det = generic_det([[xi_v(dk, x + j, p) for dk in D] for j in range(M)])
    return det / (multiindexed.norm_const_cd(D, p) * multiindexed.varphi_m(x, M, p))


def per_entry_pdn(n, x, D, p):
    """Deformed polynomial grid value by the bordered determinant, every
    factor evaluated afresh (oracle, like ``per_entry_xi``)."""
    M = len(D)
    rows = []
    for j in range(1, M + 2):
        row = [xi_v(dk, x + j - 1, p) for dk in D]
        row.append(multiindexed.rj_factor(j, x, M, p) * racah_value(n, x + j - 1, p))
        rows.append(row)
    det = generic_det(rows)
    cdn = (-1) ** M * multiindexed.norm_const_cd(D, p) * multiindexed.dtn_sq_value(n, D, p)
    return det / (cdn * multiindexed.varphi_m(x, M + 1, p))


@pytest.fixture(scope="session")
def pipe():
    """Session map from (family, N, D) to the library ``Pipeline`` of the
    standard tuple; each stage is built once per session."""
    return functools.cache(lambda family, N, D: Pipeline(std_params(family, N), D))


#: (criterion number, verdict line) pairs filled in by the acceptance tests
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
