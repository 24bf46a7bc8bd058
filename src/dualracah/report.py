"""Batch verification runs: config ingestion, suite orchestration, reports.

A run config pins one parameter tuple, one index set and one seed
polynomial; the requested suites then execute in dependency order and every
verdict lands in a single JSON report.  The config keys are the fields of
``RunConfig``, the working precision included, and nothing else; where the
output goes is the caller's choice.  Reports are byte-deterministic for a
given config: all timings go to stderr, never into the report.  The float
side (``bigreal``, ``qlimit``, ``shapeinv``, and mpmath with them) loads
only for a config that names the shape or qlimit suite.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import basefamily, closure, dualsystem, multiindexed, recurrence
from .backend import rat, rat_to_str, rat_from_str
from .errors import (
    ConfigError,
    CrossCheckMismatch,
    DualRacahError,
    InadmissibleParams,
    SingularR0,
)
from .linalg import gram_residuals
from .params import QR, R, index_set, make_params, validate
from .pipeline import Pipeline
from .poly import Poly

SUITES = ("base", "mi", "recurrence", "dual", "closure", "ladder", "commute", "shape", "qlimit")


def _lazy(name: str):
    """The module ``dualracah.<name>``: the one already imported, or one
    registered now whose body runs on its first attribute access."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


# the float side, and mpmath with it, loads only for a run that needs it
bigreal, qlimit, shapeinv = map(_lazy, ("bigreal", "qlimit", "shapeinv"))


def _load_float_side(what: str) -> None:
    """Run the float modules' bodies now, in the calling thread: a lazy
    module loads without a lock, so this comes before any worker starts.
    Where mpmath cannot be imported, a ConfigError names `what`."""
    try:
        for module in (bigreal, qlimit, shapeinv):
            module.__spec__  # any attribute read loads a lazy module
    except ImportError as e:
        raise ConfigError(f"{what} cannot run without mpmath ({e})") from e


def _load_for_suites(suites) -> None:
    named = [s for s in ("shape", "qlimit") if s in suites]
    if named:
        _load_float_side(f"the {' and '.join(named)} suite" + "s" * (len(named) > 1))


class RunConfig(NamedTuple):
    family: str
    N: int
    b: object
    c: object
    d: object
    q: Optional[object]
    D: Tuple[int, ...]
    Y: Poly
    precision: int
    suites: Tuple[str, ...]
    si_candidates: Tuple[Tuple[str, Tuple[object, object, object, object]], ...]  # (a, b, c, d)

    def params(self):
        return make_params(self.family, self.N, b=self.b, c=self.c, d=self.d, q=self.q)


_ALLOWED_KEYS = frozenset(RunConfig._fields)


def _cfg_rat(raw, key: str):
    if not isinstance(raw, str):
        raise ConfigError(f"{key!r} must be a rational string \"p/q\", got {raw!r}")
    try:
        return rat_from_str(raw)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad rational for {key!r}: {e}") from e


def _is_int(v) -> bool:
    # JSON true/false arrive as bool, which is an int subclass
    return isinstance(v, int) and not isinstance(v, bool)


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("family", "N", "b", "c", "d"):
        if key not in data:
            raise ConfigError(f"missing required key {key!r}")
    family = data["family"]
    if family not in (R, QR):
        raise ConfigError(f"family must be {R!r} or {QR!r}, got {family!r}")
    N = data["N"]
    if not _is_int(N) or N < 1:
        raise ConfigError(f"N must be a positive integer, got {N!r}")
    b = _cfg_rat(data["b"], "b")
    c = _cfg_rat(data["c"], "c")
    d = _cfg_rat(data["d"], "d")
    q = None
    if family == QR:
        if "q" not in data:
            raise ConfigError("q-family config requires 'q'")
        q = _cfg_rat(data["q"], "q")
    elif "q" in data:
        raise ConfigError("'q' is only valid for the q-family")
    d_raw = data.get("D", [])
    if not isinstance(d_raw, list) or not all(_is_int(v) for v in d_raw):
        raise ConfigError(f"D must be a list of integers, got {d_raw!r}")
    try:
        D = index_set(d_raw)
    except DualRacahError as e:
        raise ConfigError(str(e)) from e
    y_raw = data.get("Y", ["1"])
    if not isinstance(y_raw, list) or not y_raw:
        raise ConfigError("Y must be a non-empty coefficient list")
    Y = Poly([_cfg_rat(v, "Y") for v in y_raw])
    if Y.is_zero():
        raise ConfigError("Y must be a nonzero polynomial")
    if any(v < 0 for v in Y.coeffs):
        raise ConfigError("Y must have non-negative coefficients")
    precision = data.get("precision", 256)  # bits
    if not _is_int(precision) or precision < 53:
        raise ConfigError(f"precision must be an integer >= 53, got {precision!r}")
    suites_raw = data.get("suites", list(SUITES))
    if not isinstance(suites_raw, list) or not all(isinstance(s, str) for s in suites_raw):
        raise ConfigError(f"suites must be a list of suite names, got {suites_raw!r}")
    suites = tuple(suites_raw)
    if not suites:
        raise ConfigError("suites must name at least one suite")
    bad = [s for s in suites if s not in SUITES]
    if bad:
        raise ConfigError(f"unknown suites: {bad}")
    repeated = sorted({s for s in suites if suites.count(s) > 1})
    if repeated:
        raise ConfigError(f"suites named more than once: {repeated}")
    if "qlimit" in suites and family != R:
        raise ConfigError("the qlimit suite needs an additive-family reference tuple")
    cands_raw = data.get("si_candidates", [])
    if not isinstance(cands_raw, list):
        raise ConfigError(f"si_candidates must be a list, got {cands_raw!r}")
    cands = []
    for entry in cands_raw:
        if (
            not isinstance(entry, dict)
            or set(entry) != {"name", "slots"}
            or not isinstance(entry["name"], str)
        ):
            raise ConfigError(
                "si_candidates entries must be objects with exactly a string 'name'"
                f" and 'slots', got {entry!r}"
            )
        name, slots = entry["name"], entry["slots"]
        if not isinstance(slots, list) or len(slots) != 4:
            raise ConfigError(
                f"si_candidates slots must be four rational strings (a, b, c, d), got {slots!r}"
            )
        cands.append((name, tuple(_cfg_rat(v, "si_candidates slot") for v in slots)))
    _load_for_suites(suites)
    return RunConfig(
        family=family, N=N, b=b, c=c, d=d, q=q, D=D, Y=Y,
        precision=precision, suites=suites, si_candidates=tuple(cands),
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    except ValueError as e:  # e.g. an integer literal past the int<->str digit limit
        raise ConfigError(f"config cannot be read as JSON: {e}") from e
    except RecursionError as e:
        raise ConfigError("config is nested too deeply") from e
    return parse_config(data)


def _poly_str(pol: Poly) -> List[str]:
    return [rat_to_str(c) for c in pol.coeffs]


class _Timer:
    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        print(f"[timing] {self.label}: {dt:.3f}s", file=sys.stderr)


def _suite_base(cfg: RunConfig, pipe: Pipeline) -> dict:
    """Orthogonality of the base table and its duality P_n(x) = P_x(n) at the
    dual tuple.  Both sides are recurrence columns (in n at p, in x at the
    dual); the top row n = N, which every recurrence step feeds, is checked
    against the hypergeometric sum first."""
    p = pipe.params
    N = p.N
    grid = range(N + 1)
    fill = basefamily.RacahColumns(p)
    cols = [fill.column(x) for x in grid]
    for x in grid:
        if cols[x][N] != basefamily.racah_value(N, x, p):
            raise CrossCheckMismatch(
                f"base value P_{N}({x}) differs from the hypergeometric sum"
            )
    P = list(zip(*cols))
    dual = basefamily.RacahColumns(p.dual())
    phi0 = basefamily.phi0_sq_table(p)
    dn = basefamily.dn_sq_table(p)
    fails = [["ortho", n, m] for n, m, _ in gram_residuals(P, phi0, [1 / v for v in dn])]
    for n in grid:
        dual_col = dual.column(n)
        for x in grid:
            if P[n][x] != dual_col[x]:
                fails.append(["duality", n, x])
    return {"pass": not fails, "failures": fails}


def _suite_mi(cfg: RunConfig, pipe: Pipeline) -> dict:
    s = pipe.system()
    fails = [list(map(str, f)) for f in multiindexed.verify_ortho(s)]
    # the difference equation of P_n at x is P_0(x) times entry (n, x) of
    # the dual table's recurrence residual
    fails += [
        [str(n), str(x), str(s.pdn_grid[0][x] * r)]
        for n, x, r in pipe.dual().recurrence_residual
    ]
    signs = []
    for n in range(s.params.N + 1):
        k = multiindexed.sign_changes([s.pdn_grid[n][x] for x in range(s.params.N + 1)])
        if k != n:
            fails.append(["sign-changes", str(n), str(k)])
        signs.append(k)
    return {"pass": not fails, "failures": fails, "sign_changes": signs}


def _suite_recurrence(cfg: RunConfig, pipe: Pipeline) -> dict:
    s, xp = pipe.system(), pipe.xpoly(cfg.Y)
    t = pipe.rectable(cfg.Y)
    recurrence.xhat_minus1(xp, s)
    fails = [list(map(str, f)) for f in recurrence.verify_recurrence(s, xp, t)]
    return {
        "pass": not fails,
        "failures": fails,
        "L": t.L,
        "X_coeffs": _poly_str(xp.poly),
        "monotone": True,  # build_X raises NonMonotone otherwise
    }


def _suite_dual(cfg: RunConfig, pipe: Pipeline) -> dict:
    s = pipe.system()
    dual = pipe.dual()
    dual.certify_recurrence()
    fails = [[x, y, rat_to_str(r)] for x, y, r in dualsystem.dual_ortho(dual)]
    h = pipe.hamiltonian(cfg.Y)
    fails += [list(map(str, f)) for f in dualsystem.verify_spectrum(h)]
    for x in range(s.params.N + 1):
        k = multiindexed.sign_changes(dual.V.column(x))
        if k != x:
            fails.append(["dual-sign-changes", str(x), str(k)])
    return {"pass": not fails, "failures": fails}


def _suite_closure(cfg: RunConfig, pipe: Pipeline) -> dict:
    h = pipe.hamiltonian(cfg.Y)
    trip = pipe.closure(cfg.Y)
    closure.verify_closure(h, trip.data)
    return {
        "pass": True,
        "failures": [],
        "R0": _poly_str(trip.R0),
        "R1": _poly_str(trip.R1),
        "Rm1": _poly_str(trip.Rm1),
        "r0_vanishes_at_zero": trip.r0_vanishes_at_zero,
    }


def _suite_ladder(cfg: RunConfig, pipe: Pipeline) -> dict:
    h = pipe.hamiltonian(cfg.Y)
    try:
        closure.verify_ladder(h, pipe.closure_nodes(cfg.Y))
    except SingularR0 as e:
        # degenerate seed with Y(0)=0: documented outcome, not a failure
        return {"pass": True, "note": f"degenerate: {e}", "failures": []}
    return {"pass": True, "failures": []}


def _suite_commute(cfg: RunConfig, pipe: Pipeline) -> dict:
    other = Poly([rat(0), rat(1)]) if cfg.Y == Poly([rat(1)]) else Poly([rat(1)])
    dualsystem.commutator_check(pipe.hamiltonian(cfg.Y), pipe.hamiltonian(other))
    return {"pass": True, "failures": [], "other_seed": _poly_str(other)}


def _suite_shape(cfg: RunConfig, pipe: Pipeline) -> dict:
    p = pipe.params
    extra = [
        (name, p._replace(N=p.N - 1, a=a, b=b, c=c, d=d))
        for name, (a, b, c, d) in cfg.si_candidates
    ]
    rep = shapeinv.si_test(pipe, cfg.Y, precision=cfg.precision, extra_candidates=extra)
    verdicts = []
    for v in rep.verdicts:
        verdicts.append({
            "name": v.name,
            "admissible": v.admissible,
            "spectral_pass": v.spectral_pass,
            "kappa": rat_to_str(v.kappa) if v.kappa is not None else None,
            "first_fail_x": v.first_fail_x,
            "matrix_residual": bigreal.real_str(v.matrix_residual, rep.precision)
            if v.matrix_residual is not None else None,
        })
    return {"pass": True, "shape_invariant": rep.shape_invariant, "verdicts": verdicts,
            "failures": []}


def _suite_qlimit(cfg: RunConfig, pipe: Pipeline, ladder: qlimit.Ladder) -> dict:
    rep = qlimit.qlimit_check(pipe.system(), ladder=ladder)
    print(f"[timing] qlimit ladder {ladder.route}: {ladder.compute_s:.3f}s", file=sys.stderr)
    print(f"[timing] qlimit wait: {ladder.wait_s:.3f}s", file=sys.stderr)
    ok = rep.within_tolerance and rep.monotone
    return {
        "pass": ok,
        "failures": [] if ok else [["qlimit", "tolerance-or-monotonicity"]],
        "ks": list(rep.ks),
        "p_gaps": [bigreal.real_str(g, rep.precision) for g in rep.p_gaps],
        "q_gaps": [bigreal.real_str(g, rep.precision) for g in rep.q_gaps],
    }


_SUITE_FNS = {
    "base": _suite_base,
    "mi": _suite_mi,
    "recurrence": _suite_recurrence,
    "dual": _suite_dual,
    "closure": _suite_closure,
    "ladder": _suite_ladder,
    "commute": _suite_commute,
    "shape": _suite_shape,
}


def _config_echo(cfg: RunConfig) -> dict:
    echo = {
        "family": cfg.family,
        "N": cfg.N,
        "b": rat_to_str(cfg.b),
        "c": rat_to_str(cfg.c),
        "d": rat_to_str(cfg.d),
        "D": list(cfg.D),
        "Y": _poly_str(cfg.Y),
        "precision": cfg.precision,
        "suites": list(cfg.suites),
    }
    if cfg.q is not None:
        echo["q"] = rat_to_str(cfg.q)
    return echo


def run_suite(cfg: RunConfig) -> Tuple[dict, bool]:
    """Execute the configured suites; returns (report, all_passed).

    With the qlimit suite, its float ladder starts first (in a worker
    where one can be forked) and is read when that suite runs; no worker
    outlives the call.  Without the shape and qlimit suites the float
    side is never loaded."""
    bad = validate(cfg.params(), cfg.D)
    if bad:
        raise InadmissibleParams(f"config parameters violate ranges: {bad}")
    _load_for_suites(cfg.suites)
    pipe = Pipeline(cfg.params(), cfg.D)
    ladder = qlimit.Ladder(pipe.params, pipe.D, cfg.precision) if "qlimit" in cfg.suites else None
    suite_fns = dict(_SUITE_FNS, qlimit=functools.partial(_suite_qlimit, ladder=ladder))
    ordered = [s for s in SUITES if s in cfg.suites]
    results: Dict[str, dict] = {}
    all_ok = True
    try:
        if ladder is not None:
            ladder.start()
        for name in ordered:
            with _Timer(f"suite {name}"):
                results[name] = suite_fns[name](cfg, pipe)
            all_ok = all_ok and results[name]["pass"]
    finally:
        if ladder is not None:
            ladder.close()
    report = {"config": _config_echo(cfg), "suites": results, "pass": all_ok}
    return report, all_ok


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


TABLE_KINDS = ("polys", "rnk", "hamiltonian", "spectrum", "dual")


def emit_tables(cfg: RunConfig, what: str, out_dir: str) -> List[str]:
    """Write the requested table as CSV plus JSON; returns the paths.

    Every row and the payload are built before the directory is made or a
    file opened, so a run that fails leaves nothing behind."""
    import csv  # here: only a tables run pays for the module

    if what not in TABLE_KINDS:
        raise ConfigError(f"unknown table kind {what!r}; choose from {TABLE_KINDS}")
    if what == "hamiltonian":
        _load_float_side("tables --what hamiltonian")
    pipe = Pipeline(cfg.params(), cfg.D)
    s = pipe.system()
    grid = range(cfg.N + 1)
    if what == "polys":
        header = ["n", "x", "value"]
        rows = [[n, x, rat_to_str(s.pdn_grid[n][x])] for n in grid for x in grid]
        payload = {"coefficients": {str(n): _poly_str(s.pdn_polys[n]) for n in grid}}
    elif what == "rnk":
        t = pipe.rectable(cfg.Y)
        header = ["n", "k", "r"]
        rows = [[n, k, rat_to_str(t.r[(n, k)])] for n in grid for k in t.band(n)]
        payload = {"L": t.L, "rows": [{"n": n, "k": k, "r": r} for n, k, r in rows]}
    elif what == "hamiltonian":
        exact = pipe.rectable(cfg.Y).rows
        sym = shapeinv.symmetric_form(exact, s.dDn_sq, cfg.precision)
        header = ["x", "y", "exact", "symmetric"]
        rows = [
            [x, y, rat_to_str(exact[x][y]), bigreal.real_str(sym[x][y], cfg.precision)]
            for x in grid for y in grid
        ]
        payload = {
            "exact": [[rat_to_str(v) for v in row] for row in exact],
            "symmetric": [[bigreal.real_str(v, cfg.precision) for v in row] for row in sym],
            "precision": cfg.precision,
        }
    elif what == "spectrum":
        xp = pipe.xpoly(cfg.Y)
        header = ["n", "X"]
        rows = [[n, rat_to_str(xp.grid[n])] for n in grid]
        payload = {"X_coeffs": _poly_str(xp.poly),
                   "values": {str(n): rat_to_str(xp.grid[n]) for n in grid}}
    else:
        dual = pipe.dual()
        header = ["x", "n", "value"]
        rows = [[x, n, rat_to_str(dual.V[x, n])] for x in grid for n in grid]
        payload = {
            "a_dual": [rat_to_str(v) for v in dual.a_dual],
            "b_dual": [rat_to_str(v) for v in dual.b_dual],
            "c_dual": [rat_to_str(v) for v in dual.c_dual],
            "energies": [rat_to_str(v) for v in dual.ebar],
        }
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{what}.csv")
    json_path = os.path.join(out_dir, f"{what}.json")
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    with open(json_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return [csv_path, json_path]
