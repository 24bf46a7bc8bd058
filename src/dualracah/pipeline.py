"""The verification objects of one (parameters, index set) pair, built lazily.

The objects form one dependency chain: the deformed system, then per seed
polynomial Y the map X(eta), the (1+2L)-band table, the Hamiltonian, the
closure's node data and the closure polynomials.  The system and the dual
table serve every seed.  Each stage is built on first use and kept; stages
are called through their modules, so a replaced module function is what
the pipeline runs.
"""

from __future__ import annotations

from typing import Sequence

from . import closure, dualsystem, multiindexed, recurrence
from .params import ParamSet
from .poly import Poly


class Pipeline:
    def __init__(self, params: ParamSet, D: Sequence[int]):
        self.params, self.D = params, tuple(D)
        self._memo = {}

    def _get(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def system(self) -> multiindexed.MISystem:
        return self._get("system", lambda: multiindexed.build_mi_system(self.params, self.D))

    def dual(self) -> dualsystem.DualTable:
        return self._get("dual", lambda: dualsystem.dual_values(self.system()))

    def xpoly(self, Y: Poly) -> recurrence.XPoly:
        return self._get(("xpoly", Y), lambda: recurrence.build_X(self.system(), Y))

    def rectable(self, Y: Poly) -> recurrence.RecTable:
        return self._get(
            ("rectable", Y), lambda: recurrence.extract_r(self.system(), self.xpoly(Y))
        )

    def hamiltonian(self, Y: Poly) -> dualsystem.DualHamiltonian:
        return self._get(("hamiltonian", Y), lambda: dualsystem.build_hamiltonians(
            self.xpoly(Y), self.rectable(Y), self.dual()
        ))

    def closure_nodes(self, Y: Poly) -> closure.ClosureNodes:
        return self._get(("closure_nodes", Y), lambda: closure.closure_nodes(self.hamiltonian(Y)))

    def closure(self, Y: Poly) -> closure.ClosureTriple:
        return self._get(("closure", Y), lambda: closure.solve_closure(self.hamiltonian(Y)))
