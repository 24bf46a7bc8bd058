"""Batch verification runs: config ingestion, suite orchestration, reports.

A run config pins one parameter tuple, one index set and one seed
polynomial; the requested suites then execute in dependency order and every
verdict lands in a single JSON report.  Reports are byte-deterministic for
a given config: all timings go to stderr, never into the report.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from . import basefamily, closure, dualsystem, multiindexed, qlimit, recurrence, shapeinv
from .backend import rat, rat_to_str, rat_from_str
from .bigreal import DEFAULT_PRECISION, real_str
from .errors import (
    ConfigError,
    DualRacahError,
    InadmissibleParams,
    SingularR0,
)
from .linalg import gram_residuals
from .params import QR, R, energy, index_set, make_params, validate
from .pipeline import Pipeline
from .poly import Poly

SUITES = ("base", "mi", "recurrence", "dual", "closure", "ladder", "commute", "shape", "qlimit")

_ALLOWED_KEYS = {
    "family", "N", "b", "c", "d", "q", "D", "Y",
    "precision", "suites", "si_candidates", "out",
}


@dataclass
class RunConfig:
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
    si_candidates: Tuple[Tuple[str, Tuple[str, str, str, str]], ...]
    out: Optional[str] = None

    def params(self):
        return make_params(self.family, self.N, b=self.b, c=self.c, d=self.d, q=self.q)


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
    precision = data.get("precision", DEFAULT_PRECISION)
    if not isinstance(precision, int) or precision < 53:
        raise ConfigError(f"precision must be an integer >= 53, got {precision!r}")
    suites_raw = data.get("suites", list(SUITES))
    if not isinstance(suites_raw, list) or not all(isinstance(s, str) for s in suites_raw):
        raise ConfigError(f"suites must be a list of suite names, got {suites_raw!r}")
    suites = tuple(suites_raw)
    bad = [s for s in suites if s not in SUITES]
    if bad:
        raise ConfigError(f"unknown suites: {bad}")
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
        for v in slots:
            _cfg_rat(v, "si_candidates slot")
        cands.append((name, tuple(slots)))
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")
    return RunConfig(
        family=family, N=N, b=b, c=c, d=d, q=q, D=D, Y=Y,
        precision=precision, suites=suites,
        si_candidates=tuple(cands), out=out,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return parse_config(data)


def _fmt(v) -> str:
    return rat_to_str(rat(0) + v)


def _poly_str(pol: Poly) -> List[str]:
    return [_fmt(c) for c in pol.coeffs]


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
    p = pipe.params
    N = p.N
    pd = p.dual()
    grid = range(N + 1)
    P = [[basefamily.racah_value(n, x, p) for x in grid] for n in grid]
    phi0 = [basefamily.phi0_sq(x, p) for x in grid]
    dn = [basefamily.dn_sq(n, p) for n in grid]
    fails = [["ortho", n, m] for n, m, _ in gram_residuals(P, phi0, [1 / v for v in dn])]
    for n in grid:
        for x in grid:
            if P[n][x] != basefamily.racah_value(x, n, pd):
                fails.append(["duality", n, x])
    return {"pass": not fails, "failures": fails}


def _suite_mi(cfg: RunConfig, pipe: Pipeline) -> dict:
    s = pipe.system()
    fails = [list(map(str, f)) for f in multiindexed.verify_ortho(s)]
    fails += [list(map(str, f)) for f in multiindexed.verify_difference_eq(s)]
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
        "monotone": xp.monotone,
    }


def _suite_dual(cfg: RunConfig, pipe: Pipeline) -> dict:
    s = pipe.system()
    dual = pipe.dual()
    fails = [[x, y, _fmt(r)] for x, y, r in dualsystem.dual_ortho(s, dual)]
    h = pipe.hamiltonian(cfg.Y)
    fails += [list(map(str, f)) for f in dualsystem.verify_spectrum(h)]
    for x in range(s.params.N + 1):
        k = multiindexed.sign_changes([dual.q_vals[x][n] for n in range(s.params.N + 1)])
        if k != x:
            fails.append(["dual-sign-changes", str(x), str(k)])
    return {"pass": not fails, "failures": fails}


def _suite_closure(cfg: RunConfig, pipe: Pipeline) -> dict:
    h = pipe.hamiltonian(cfg.Y)
    trip = pipe.closure(cfg.Y)
    residual = closure.verify_closure(h, trip)
    nz = residual.nonzero_entries()
    return {
        "pass": not nz,
        "failures": [[i, j, _fmt(v)] for i, j, v in nz],
        "R0": _poly_str(trip.R0),
        "R1": _poly_str(trip.R1),
        "Rm1": _poly_str(trip.Rm1),
        "r0_vanishes_at_zero": trip.r0_vanishes_at_zero,
    }


def _suite_ladder(cfg: RunConfig, pipe: Pipeline) -> dict:
    h = pipe.hamiltonian(cfg.Y)
    trip = pipe.closure(cfg.Y)
    try:
        lp = closure.build_ladder(h, trip)
    except SingularR0 as e:
        # degenerate seed with Y(0)=0: documented outcome, not a failure
        return {"pass": True, "note": f"degenerate: {e}", "failures": []}
    fails = [list(map(str, f)) for f in closure.verify_ladder(h, lp)]
    return {"pass": not fails, "failures": fails}


def _suite_commute(cfg: RunConfig, pipe: Pipeline) -> dict:
    other = Poly([rat(0), rat(1)]) if cfg.Y == Poly([rat(1)]) else Poly([rat(1)])
    nz = dualsystem.commutator_check(pipe.hamiltonian(cfg.Y), pipe.hamiltonian(other))
    return {
        "pass": not nz,
        "failures": [[i, j, _fmt(v)] for i, j, v in nz],
        "other_seed": _poly_str(other),
    }


def _suite_shape(cfg: RunConfig, pipe: Pipeline) -> dict:
    extra = []
    p = pipe.params
    for name, slots in cfg.si_candidates:
        vals = [rat_from_str(v) for v in slots]
        extra.append((name, replace(p, N=p.N - 1, a=vals[0], b=vals[1], c=vals[2], d=vals[3])))
    rep = shapeinv.si_test(pipe, cfg.Y, extra_candidates=extra)
    verdicts = []
    for v in rep.verdicts:
        verdicts.append({
            "name": v.name,
            "admissible": v.admissible,
            "spectral_pass": v.spectral_pass,
            "kappa": _fmt(v.kappa) if v.kappa is not None else None,
            "first_fail_x": v.first_fail_x,
            "matrix_residual": real_str(v.matrix_residual, rep.precision)
            if v.matrix_residual is not None else None,
        })
    return {"pass": True, "shape_invariant": rep.shape_invariant, "verdicts": verdicts,
            "failures": []}


def _suite_qlimit(cfg: RunConfig, pipe: Pipeline) -> dict:
    rep = qlimit.qlimit_check(pipe.system(), precision=cfg.precision)
    ok = rep.within_tolerance and rep.monotone
    return {
        "pass": ok,
        "failures": [] if ok else [["qlimit", "tolerance-or-monotonicity"]],
        "ks": list(rep.ks),
        "p_gaps": [real_str(g, rep.precision) for g in rep.p_gaps],
        "q_gaps": [real_str(g, rep.precision) for g in rep.q_gaps],
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
    "qlimit": _suite_qlimit,
}


def _config_echo(cfg: RunConfig) -> dict:
    echo = {
        "family": cfg.family,
        "N": cfg.N,
        "b": _fmt(cfg.b),
        "c": _fmt(cfg.c),
        "d": _fmt(cfg.d),
        "D": list(cfg.D),
        "Y": _poly_str(cfg.Y),
        "precision": cfg.precision,
        "suites": list(cfg.suites),
    }
    if cfg.q is not None:
        echo["q"] = _fmt(cfg.q)
    return echo


def run_suite(cfg: RunConfig) -> Tuple[dict, bool]:
    """Execute the configured suites; returns (report, all_passed)."""
    bad = validate(cfg.params(), cfg.D)
    if bad:
        raise InadmissibleParams(f"config parameters violate ranges: {bad}")
    pipe = Pipeline(cfg.params(), cfg.D, cfg.precision)
    ordered = [s for s in SUITES if s in cfg.suites]
    results: Dict[str, dict] = {}
    all_ok = True
    for name in ordered:
        with _Timer(f"suite {name}"):
            results[name] = _SUITE_FNS[name](cfg, pipe)
        all_ok = all_ok and results[name]["pass"]
    report = {"config": _config_echo(cfg), "suites": results, "pass": all_ok}
    return report, all_ok


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


TABLE_KINDS = ("polys", "rnk", "hamiltonian", "spectrum", "dual")


def emit_tables(cfg: RunConfig, what: str, out_dir: str) -> List[str]:
    """Write the requested table as CSV plus JSON; returns the paths."""
    if what not in TABLE_KINDS:
        raise ConfigError(f"unknown table kind {what!r}; choose from {TABLE_KINDS}")
    os.makedirs(out_dir, exist_ok=True)
    pipe = Pipeline(cfg.params(), cfg.D, cfg.precision)
    s = pipe.system()
    N = cfg.N
    csv_path = os.path.join(out_dir, f"{what}.csv")
    json_path = os.path.join(out_dir, f"{what}.json")
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        if what == "polys":
            w.writerow(["n", "x", "value"])
            for n in range(N + 1):
                for x in range(N + 1):
                    w.writerow([n, x, _fmt(s.pdn_grid[n][x])])
            payload = {"coefficients": {str(n): _poly_str(s.pdn_polys[n]) for n in range(N + 1)}}
        elif what == "rnk":
            t = pipe.rectable(cfg.Y)
            w.writerow(["n", "k", "r"])
            rows = []
            for n in range(N + 1):
                for k in t.band(n):
                    w.writerow([n, k, _fmt(t.r[(n, k)])])
                    rows.append({"n": n, "k": k, "r": _fmt(t.r[(n, k)])})
            payload = {"L": t.L, "rows": rows}
        elif what == "hamiltonian":
            h = pipe.hamiltonian(cfg.Y)
            w.writerow(["x", "y", "exact", "symmetric"])
            for x in range(N + 1):
                for y in range(N + 1):
                    w.writerow([
                        x, y, _fmt(h.h_tilde[x, y]),
                        real_str(h.h_sym[x, y], cfg.precision),
                    ])
            payload = {
                "exact": [[_fmt(v) for v in row] for row in h.h_tilde.rows],
                "symmetric": [[real_str(v, cfg.precision) for v in row] for row in h.h_sym.rows],
                "precision": cfg.precision,
            }
        elif what == "spectrum":
            xp = pipe.xpoly(cfg.Y)
            w.writerow(["n", "X"])
            for n in range(N + 1):
                w.writerow([n, _fmt(xp.grid[n])])
            payload = {"X_coeffs": _poly_str(xp.poly),
                       "values": {str(n): _fmt(xp.grid[n]) for n in range(N + 1)}}
        else:
            dual = pipe.dual()
            w.writerow(["x", "n", "value"])
            for x in range(N + 1):
                for n in range(N + 1):
                    w.writerow([x, n, _fmt(dual.q_vals[x][n])])
            payload = {
                "a_dual": [_fmt(v) for v in dual.a_dual],
                "b_dual": [_fmt(v) for v in dual.b_dual],
                "c_dual": [_fmt(v) for v in dual.c_dual],
                "energies": [_fmt(energy(n, cfg.params())) for n in range(N + 1)],
            }
    with open(json_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return [csv_path, json_path]
