"""Shared fixtures: standard parameter tuples and a cached pipeline builder.

Exact constructions are cheap at desk scale but not free; caching the built
systems per (family, N, D, Y) keeps the whole suite fast while letting
every test module ask for exactly the configurations it needs.
"""

import pytest

from dualracah import closure, dualsystem, multiindexed, recurrence
from dualracah.backend import rat
from dualracah.basefamily import racah_value, xi_v
from dualracah.linalg import generic_det
from dualracah.params import QR, R, make_params
from dualracah.poly import Poly

Y_ONE = Poly([rat(1)])
Y_ETA = Poly([rat(0), rat(1)])
_Y = {"1": Y_ONE, "eta": Y_ETA}


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


class Pipeline:
    """Lazily built and memoized verification objects."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def system(self, family, N, D):
        D = tuple(D)
        return self._get(
            ("s", family, N, D),
            lambda: multiindexed.build_mi_system(std_params(family, N), D),
        )

    def xpoly(self, family, N, D, y="1"):
        return self._get(
            ("xp", family, N, tuple(D), y),
            lambda: recurrence.build_X(
                self.system(family, N, D), _Y[y], for_hamiltonian=True
            ),
        )

    def rectable(self, family, N, D, y="1"):
        return self._get(
            ("t", family, N, tuple(D), y),
            lambda: recurrence.extract_r(
                self.system(family, N, D), self.xpoly(family, N, D, y)
            ),
        )

    def dual(self, family, N, D):
        return self._get(
            ("dual", family, N, tuple(D)),
            lambda: dualsystem.dual_values(self.system(family, N, D)),
        )

    def hamiltonian(self, family, N, D, y="1"):
        return self._get(
            ("h", family, N, tuple(D), y),
            lambda: dualsystem.build_hamiltonians(
                self.system(family, N, D),
                self.xpoly(family, N, D, y),
                self.rectable(family, N, D, y),
                self.dual(family, N, D),
            ),
        )

    def closure_triple(self, family, N, D, y="1"):
        return self._get(
            ("cl", family, N, tuple(D), y),
            lambda: closure.solve_closure(self.hamiltonian(family, N, D, y)),
        )


@pytest.fixture(scope="session")
def pipe():
    return Pipeline()


#: (criterion number, verdict line) pairs filled in by the acceptance tests
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
