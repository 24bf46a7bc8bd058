"""The library names that the benchmark in ``perfbench/`` reads still exist.

``perfbench/tracer.py`` names library functions as ``"layer.function"``
strings: the functions whose spans each per-layer time sums (``TIMES``),
whose calls each count counts (``CALLS``) and whose results a bit-size
probe reads (``_BIT_PROBES``).  A name the library no longer defines is
not an error there: its metric silently reads 0.  ``perfbench/child.py``
and the probes also read a few attributes.  This test parses the tracer
and checks every one of those names against the library, so a cleanup
that deletes or renames one fails here instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from dualracah import backend, params, report
from dualracah.linalg import SquareMatrix
from dualracah.params import R
from conftest import Y_ONE

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: traced names the library did not define when this guard was written;
#: the list may only shrink (a name that comes back leaves it)
MISSING = [
    "multiindexed.verify_difference_eq",
    "closure.build_ladder",
    "linalg.exact_solve",
    "linalg.exact_det",
    "linalg.exact_inverse",
]


def _tracer_dicts() -> dict:
    """The dict literals TIMES, CALLS and _BIT_PROBES of the tracer, as AST."""
    found = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("TIMES", "CALLS", "_BIT_PROBES"):
                    found[target.id] = node.value
    assert sorted(found) == ["CALLS", "TIMES", "_BIT_PROBES"]
    return found


def _traced_names() -> set:
    """Every "layer.function" the tracer's metrics and probes are read from."""
    d = _tracer_dicts()
    names = {ast.literal_eval(k) for k in d["_BIT_PROBES"].keys}
    names |= set(ast.literal_eval(d["CALLS"]).values())
    for fns in ast.literal_eval(d["TIMES"]).values():
        names |= set(fns)
    return names


def _defines(name: str) -> bool:
    """Whether the tracer would wrap `name`: a public module-level function
    defined in dualracah.<layer> itself."""
    layer, attr = name.split(".")
    mod = importlib.import_module(f"dualracah.{layer}")
    fn = getattr(mod, attr, None)
    return (
        not attr.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == mod.__name__
    )


def test_every_traced_name_is_a_library_function():
    names = _traced_names()
    assert "linalg.matmul" in names
    assert "__matmul__" in vars(SquareMatrix)
    absent = sorted(n for n in names - {"linalg.matmul"} - set(MISSING) if not _defines(n))
    assert absent == []


@pytest.mark.parametrize("name", MISSING)
def test_known_missing_names_are_still_missing(name):
    """A listed name that the library defines again leaves the list."""
    assert not _defines(name)


def test_attributes_the_benchmark_reads(pipe):
    p = pipe(R, 3, (1,))
    h = p.hamiltonian(Y_ONE)
    assert all(isinstance(row, (list, tuple)) for row in h.h_tilde.rows)
    trip = p.closure(Y_ONE)
    for poly in (trip.R0, trip.R1, trip.Rm1):
        assert isinstance(poly.coeffs, (list, tuple))
    assert isinstance(backend.BACKEND, str)
    for fn in (params.validate, report.load_config, report.run_suite, report.write_report):
        assert callable(fn)
