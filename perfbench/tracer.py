"""Spans and call counts at the library's layer boundaries, taken from outside.

The library has no spans of its own, so ``Tracer.install`` wraps, inside
the benchmark's own process, every public function of each layer module
(a module-level function defined there whose name does not start with
``_``) and ``SquareMatrix.__matmul__``. It rebinds every name in every
``dualracah`` module that refers to an original, so calls made through
``from .layer import f`` bindings are seen too. Each call becomes a span:
function name, parent span, start and end. Spans stay in memory until
``dump``.

``summarize`` turns a dumped trace into per-function rows and the
benchmark's per-layer metrics. This module imports no ``dualracah`` code at
import time, so the parent process can use ``summarize`` without the
library.
"""

import json
import sys
import time

LAYERS = (
    "basefamily", "multiindexed", "poly", "recurrence", "dualsystem",
    "closure", "linalg", "shapeinv", "qlimit", "report",
)


def _bits(values):
    """Largest numerator or denominator bit-length among exact rationals."""
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _entries(m):
    return [v for row in m.rows for v in row]


# function -> (bit-size metric, how to read it from the function's result)
_BIT_PROBES = {
    "dualsystem.build_hamiltonians": (
        "dualsystem.h_tilde_max_bits", lambda h: _bits(_entries(h.h_tilde))),
    "closure.solve_closure": (
        "closure.max_bits", lambda t: _bits([*t.R0.coeffs, *t.R1.coeffs, *t.Rm1.coeffs])),
    "closure.build_ladder": (
        "closure.max_bits", lambda lp: _bits(_entries(lp.a_plus) + _entries(lp.a_minus))),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.max_bits = {key: 0 for key, _ in _BIT_PROBES.values()}
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.monotonic
        probe = _BIT_PROBES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, parent, start, clock())
                stack.pop()
            if probe is not None:
                key, read = probe
                self.max_bits[key] = max(self.max_bits[key], read(result))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from dualracah.linalg import SquareMatrix

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dualracah"]
        for layer in LAYERS:
            mod = sys.modules["dualracah." + layer]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, name, wrapped)
        self._patch(
            SquareMatrix, "__matmul__", self._wrap("linalg.matmul", SquareMatrix.__matmul__)
        )

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path, t0, t1):
        """Write the spans, with times relative to t0, and the bit sizes."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        spans = [
            [ids[n], parent, round(s - t0, 7), round(e - t0, 7)]
            for n, parent, s, e in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"wall_s": t1 - t0, "names": names, "spans": spans,
                       "max_bits": self.max_bits}, f)


def functions(trace):
    """Per-function rows: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost of nested calls to the same
    function; self time is a span minus the spans it directly caused.
    """
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    rows = {}
    for i, (fid, parent, start, end) in enumerate(spans):
        row = rows.setdefault(names[fid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - child[i]
        while parent >= 0 and spans[parent][0] != fid:
            parent = spans[parent][1]
        if parent < 0:
            row["total_s"] += end - start
    return rows


def calls_under(trace, name, ancestor):
    """Number of calls to `name` made, at any depth, inside `ancestor`."""
    names, spans = trace["names"], trace["spans"]
    if name not in names or ancestor not in names:
        return 0
    fid, aid = names.index(name), names.index(ancestor)
    count = 0
    for f, parent, _, _ in spans:
        if f != fid:
            continue
        while parent >= 0 and spans[parent][0] != aid:
            parent = spans[parent][1]
        count += parent >= 0
    return count


def uncovered_share(trace):
    """Share of the traced wall time that no span below `report` covers."""
    names, spans = trace["names"], trace["spans"]
    below = [not names[f].startswith("report.") for f, _, _, _ in spans]
    covered = sum(
        end - start
        for i, (_, parent, start, end) in enumerate(spans)
        if below[i] and (parent < 0 or not below[parent])
    )
    return 1 - covered / trace["wall_s"]


# per-layer metric -> functions whose inclusive seconds it sums
TIMES = {
    "multiindexed.build_mi_system_s": ("multiindexed.build_mi_system",),
    "poly.interpolate_s": ("poly.interpolate",),
    "multiindexed.verify_s": ("multiindexed.verify_ortho", "multiindexed.verify_difference_eq"),
    "recurrence.build_X_s": ("recurrence.build_X",),
    "recurrence.extract_r_s": ("recurrence.extract_r",),
    "recurrence.verify_recurrence_s": ("recurrence.verify_recurrence",),
    "dualsystem.dual_values_s": ("dualsystem.dual_values",),
    "dualsystem.dual_ortho_s": ("dualsystem.dual_ortho",),
    "dualsystem.build_hamiltonians_s": ("dualsystem.build_hamiltonians",),
    "dualsystem.verify_spectrum_s": ("dualsystem.verify_spectrum",),
    "dualsystem.commutator_check_s": ("dualsystem.commutator_check",),
    "closure.solve_closure_s": ("closure.solve_closure",),
    "closure.verify_closure_s": ("closure.verify_closure",),
    "closure.build_ladder_s": ("closure.build_ladder",),
    "closure.verify_ladder_s": ("closure.verify_ladder",),
    "linalg.matmul_s": ("linalg.matmul",),
    "shapeinv.si_test_s": ("shapeinv.si_test",),
    "shapeinv.factor_upper_s": ("shapeinv.factor_upper",),
    "qlimit.qlimit_check_s": ("qlimit.qlimit_check",),
    "report.write_report_s": ("report.write_report",),
}

# per-layer metric -> function whose calls it counts over the whole run
CALLS = {
    "basefamily.racah_value_calls": "basefamily.racah_value",
    "multiindexed.build_mi_system_calls": "multiindexed.build_mi_system",
    "closure.solve_closure_calls": "closure.solve_closure",
    "linalg.matmul_calls": "linalg.matmul",
    "linalg.exact_solve_calls": "linalg.exact_solve",
    "linalg.exact_det_calls": "linalg.exact_det",
    "linalg.exact_inverse_calls": "linalg.exact_inverse",
}


def summarize(trace):
    """(per-function rows, {metric: value}) for the metrics this trace holds."""
    rows = functions(trace)
    metrics = {
        m: sum(rows[f]["total_s"] for f in fns if f in rows) for m, fns in TIMES.items()
    }
    metrics.update({m: rows[f]["calls"] if f in rows else 0 for m, f in CALLS.items()})
    metrics["shapeinv.build_mi_system_calls"] = calls_under(
        trace, "multiindexed.build_mi_system", "shapeinv.si_test"
    )
    metrics.update(trace["max_bits"])
    metrics["trace.uncovered_share"] = uncovered_share(trace)
    return rows, metrics
