"""The benchmark's workloads: one `dualracah verify` config each.

A workload fixes the family, N, b, D, Y and the suites; its pool holds
the pairs (c, d) it is verified at. Sample i of a run with seed s uses
entry (s + i) mod len(pool), so the seed sets the order in which a run
goes through the pool; seed 0 starts at c=1/2, d=2/5. Every pool entry is
admissible (``params.validate``), passes every suite, and carries the
sha256 of the report that the library wrote for it when the benchmark was
defined; a report with other bytes counts as a failed run.
"""

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # the run config without c and d
    pool: Tuple[Tuple[str, str, str], ...]  # (c, d, report sha256)

    def pick(self, seed: int) -> Tuple[str, str, str]:
        return self.pool[seed % len(self.pool)]

    def run_config(self, seed: int) -> dict:
        c, d, _ = self.pick(seed)
        return dict(self.config, c=c, d=d)


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload was chosen: see BENCHMARK.json
        Workload(
            "r-full-n14",
            {"family": "R", "N": 14, "b": "19", "D": [1, 2], "Y": ["1"],
             "suites": ["base", "mi", "recurrence", "dual", "closure", "ladder", "commute",
                        "shape", "qlimit"]},
            (
                ("1/2", "2/5",
                 "ca4b56cf376d0eb9e75a8a8777aa9b297aba9cebefda77f17843bb481c9dfffb"),
                ("3/2", "3/5",
                 "8408eff85b227f0b5d73a7b0922c5afb181df735c91bb994155b8973de8f5ea8"),
                ("1/2", "6/5",
                 "308666b865bbcb02531cb0b6c188e4f8f8bc141090f7e1ba00affb80f121c439"),
            ),
        ),
        Workload(
            "r-closure-n18",
            {"family": "R", "N": 18, "b": "23", "D": [1, 2], "Y": ["1"],
             "suites": ["mi", "recurrence", "dual", "closure", "ladder"]},
            (
                ("1/2", "2/5",
                 "478911324238109b5a4bbd46780e1b167fb9a4b8968baff75272635574fe5b8e"),
                ("1/2", "3/5",
                 "eb9a6c9fde6c8f38e7892af201a947af2cef8f398639b9d058764c36d9852bc4"),
            ),
        ),
    )
}
