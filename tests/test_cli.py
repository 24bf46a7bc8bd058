"""Config ingestion, suite orchestration, reports, tables, exit codes."""

import argparse
import csv
import hashlib
import importlib.util
import inspect
import json
import marshal
import os
import re
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualracah import bigreal, cli, multiindexed, qlimit, shapeinv
from dualracah.backend import rat
from dualracah.cli import main
from dualracah.errors import ConfigError, CrossCheckMismatch, ZeroDenominator
from dualracah.linalg import SquareMatrix
from dualracah.report import (
    _ALLOWED_KEYS,
    SUITES,
    RunConfig,
    load_config,
    parse_config,
    run_suite,
    write_report,
)

BASE_CFG = {
    "family": "R", "N": 5, "b": "10", "c": "1/2", "d": "2/5",
    "D": [1], "Y": ["1"],
}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_round_trip():
    cfg = parse_config(dict(BASE_CFG))
    assert cfg.family == "R" and cfg.N == 5
    assert cfg.D == (1,) and cfg.Y.degree == 0
    assert cfg.precision == 256


@pytest.mark.parametrize("mutation,msg", [
    ({"frobnicate": 1}, "unknown config keys"),
    ({"family": "X"}, "family"),
    ({"N": 0}, "N"),
    ({"b": 10}, "rational string"),
    ({"q": "1/2"}, "only valid"),
    ({"Y": []}, "non-empty"),
    ({"Y": ["0"]}, "nonzero"),
    ({"suites": ["base", "frob"]}, "unknown suites"),
    ({"precision": 10}, "precision"),
    ({"D": [2, 1]}, "increasing"),
])
def test_bad_configs_rejected(mutation, msg):
    data = dict(BASE_CFG)
    data.update(mutation)
    with pytest.raises(ConfigError, match=msg):
        parse_config(data)


def test_zero_denominator_is_config_error():
    data = dict(BASE_CFG)
    data["d"] = "3/0"
    with pytest.raises(ConfigError, match="zero denominator"):
        parse_config(data)


def test_qlimit_requires_additive_family():
    data = dict(BASE_CFG, family="qR", b="1/2048", q="1/2",
                suites=["qlimit"])
    with pytest.raises(ConfigError):
        parse_config(data)


def test_verify_full_run(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=[
        "base", "mi", "recurrence", "dual", "closure", "ladder",
        "commute", "shape", "qlimit",
    ]))
    out = str(tmp_path / "report.json")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["pass"] is True
    assert set(report["suites"]) == {
        "base", "mi", "recurrence", "dual", "closure", "ladder",
        "commute", "shape", "qlimit",
    }
    assert report["suites"]["shape"]["shape_invariant"] is False


def test_closure_report_past_the_digit_limit(tmp_path):
    """At N=38 the closure coefficients pass the interpreter's 4300-digit
    int->str limit; the run still ends in exit 0 and a passing report."""
    cfg_path = _write(tmp_path, "cfg.json", {
        "family": "R", "N": 38, "b": "43", "c": "1/2", "d": "2/5",
        "D": [1, 2], "Y": ["1"], "suites": ["closure"],
    })
    out = str(tmp_path / "report.json")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["pass"] is True
    assert max(len(v) for v in report["suites"]["closure"]["R0"]) > 4300


def test_reports_are_byte_deterministic(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=["mi", "dual"]))
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["verify", "--config", cfg_path, "--out", out1]) == 0
    assert main(["verify", "--config", cfg_path, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_degenerate_ladder_is_pass_with_note(tmp_path):
    cfg_path = _write(
        tmp_path, "cfg.json",
        dict(BASE_CFG, Y=["0", "1"], suites=["recurrence", "closure", "ladder"]),
    )
    out = str(tmp_path / "report.json")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["suites"]["ladder"]["pass"] is True
    assert "degenerate" in report["suites"]["ladder"]["note"]


def test_malformed_q_exits_2(tmp_path):
    cfg_path = _write(
        tmp_path, "cfg.json",
        dict(BASE_CFG, family="qR", b="1/2048", q="3/0"),
    )
    assert main(["verify", "--config", cfg_path]) == 2


@pytest.mark.parametrize("q", ["2", "1"])
@pytest.mark.parametrize("command", ["verify", "tables"])
def test_q_outside_unit_interval_exits_2(tmp_path, capsys, command, q):
    """q must lie in (0,1): bad parameters, not a failed verification, and
    nothing is written."""
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, family="qR", b="1/2048", q=q, suites=["mi"]))
    out = tmp_path / "out"
    if command == "verify":
        argv = ["verify", "--config", cfg_path, "--out", str(out)]
    else:
        out.mkdir()
        argv = ["tables", "--config", cfg_path, "--what", "spectrum", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: q must lie in (0,1), got {q}"
    assert "Traceback" not in err
    assert not out.exists() if command == "verify" else not any(out.iterdir())


@pytest.mark.parametrize("suites,msg", [
    (["mi", "mi"], "suites named more than once: ['mi']"),
    ([], "suites must name at least one suite"),
], ids=["repeated", "empty"])
def test_suite_list_is_not_coerced(tmp_path, capsys, suites, msg):
    """A suite named twice would run once but be echoed twice, and an empty
    list would pass having checked nothing: both are config errors, and no
    report is written."""
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=suites))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {msg}"
    assert not out.exists()


def test_inadmissible_params_exit_2(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, b="5"))
    assert main(["verify", "--config", cfg_path]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("raw,msg", [
    (b"\xff\xfe{\x00}\x00", "config is not UTF-8"),
    (b"[" * 200_000 + b"]" * 200_000, "config is nested too deeply"),
    (b'{"N": 1' + b"0" * 5000 + b"}", "config cannot be read as JSON"),
], ids=["not-utf8", "nested-200k-deep", "int-5001-digits"])
@pytest.mark.parametrize("command", ["verify", "tables"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, raw, msg):
    """A config that is not UTF-8, JSON nested past the parser's recursion
    limit, or an integer literal past the interpreter's int<->str digit
    limit is a bad config: exit 2 with a message, no traceback."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(raw)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if command == "tables":
        argv += ["--what", "spectrum"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {msg}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", [
    "9_0", "1_0/2_0", "\u0661\u0662", "1 / 2", "1" * 5000 + "_0", "1/2" + "_0" * 2500,
], ids=["separator", "separated-fraction", "arabic-indic", "inner-space", "long-separator",
        "long-separated-denominator"])
@pytest.mark.parametrize("key", ["b", "Y"])
@pytest.mark.parametrize("command", ["verify", "tables"])
def test_rational_outside_the_grammar_exits_2(tmp_path, capsys, command, key, raw):
    """A config rational that int() would coerce (digit separators,
    non-ASCII digits, spaces around "/") is refused, short or past the
    digit limit: exit 2 with a message naming the key, no traceback."""
    value = [raw] if key == "Y" else raw
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, **{key: value}))
    argv = [command, "--config", cfg_path, "--out", str(tmp_path / "out")]
    if command == "tables":
        argv += ["--what", "spectrum"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: bad rational for {key!r}: not a rational")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_qr_full_run(tmp_path):
    cfg = {
        "family": "qR", "N": 4, "b": "1/512", "c": "1/2", "d": "2/5",
        "q": "1/2", "D": [1], "Y": ["1"],
        "suites": ["base", "mi", "recurrence", "dual", "closure", "ladder"],
    }
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "r.json")]) == 0


def test_tables_emission(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG))
    out = str(tmp_path / "tabs")
    for what in ("polys", "rnk", "hamiltonian", "spectrum", "dual"):
        assert main(["tables", "--config", cfg_path, "--what", what, "--out", out]) == 0
        with open(f"{out}/{what}.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) > 1 and rows[0][0] in ("n", "x")
        json.loads(open(f"{out}/{what}.json").read())


def test_spectrum_table_contents(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG))
    out = str(tmp_path / "tabs")
    main(["tables", "--config", cfg_path, "--what", "spectrum", "--out", out])
    with open(f"{out}/spectrum.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["n", "X"]
    assert len(rows) == 7  # header + N+1 levels
    assert rows[1] == ["0", "0/1"]


def test_dual_table_rows_are_label_then_degree(tmp_path):
    """Row (x, n) of dual.csv is V[x][n], x the label and n the degree, as
    in the dual table: an asymmetric entry tells it from the transpose."""
    cfg = dict(BASE_CFG, N=4, b="9")
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "tabs")
    assert main(["tables", "--config", cfg_path, "--what", "dual", "--out", out]) == 0
    with open(f"{out}/dual.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["x", "n", "value"]
    values = {(x, n): v for x, n, v in rows[1:]}
    assert values[("1", "2")] == "249487/948000"
    assert values[("2", "1")] == "17774/41625"


def test_precision_override(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, precision=128))
    report, ok = run_suite(load_config(cfg_path))
    assert ok and report["config"]["precision"] == 128


@pytest.mark.parametrize("command", ["verify", "tables"])
def test_low_precision_exits_2_with_one_message(tmp_path, capsys, command):
    """A config precision below 53 bits ends in exit 2 with one message,
    and nothing is written."""
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, precision=10))
    out = tmp_path / "out"
    if command == "verify":
        argv = ["verify", "--config", cfg_path, "--out", str(out)]
    else:
        out.mkdir()
        argv = ["tables", "--config", cfg_path, "--what", "spectrum", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: precision must be an integer >= 53, got 10"
    assert "Traceback" not in err
    assert not out.exists() if command == "verify" else not any(out.iterdir())


@pytest.mark.parametrize("command", ["verify", "tables"])
def test_config_out_key_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    """Where the output goes is the command line's alone: a config naming a
    report path under ``out`` is refused before anything is written, so no
    table directory of that name appears and no report reaches stdout."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=["base"], out="report.json"))
    argv = [command, "--config", "cfg.json"]
    if command == "tables":
        argv += ["--what", "spectrum"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.splitlines()[-1] == "error: unknown config keys: ['out']"
    assert out == "" and os.listdir(tmp_path) == ["cfg.json"]


def test_tables_without_out_write_into_the_working_directory(tmp_path, capsys, monkeypatch):
    cfg_path = _write(tmp_path, "cfg.json", BASE_CFG)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["tables", "--config", cfg_path, "--what", "spectrum"]) == 0
    assert sorted(os.listdir(work)) == ["spectrum.csv", "spectrum.json"]
    paths = capsys.readouterr().err.splitlines()
    assert paths == [os.path.join(".", "spectrum.csv"), os.path.join(".", "spectrum.json")]


def test_tables_of_an_inadmissible_tuple_leave_no_directory(tmp_path, capsys):
    """Inadmissible parameters end the tables command with exit 2 before
    the output directory is made."""
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, b="5"))
    out = tmp_path / "outdir"
    assert main(["tables", "--config", cfg_path, "--what", "rnk", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_tables_that_fail_while_building_leave_no_csv(tmp_path, capsys, monkeypatch):
    """A table that fails while it is built ends with exit 1 and leaves
    neither its CSV nor its JSON, nor the output directory."""
    from dualracah import recurrence

    def broken(*args):
        raise CrossCheckMismatch("r-table broken on purpose")

    monkeypatch.setattr(recurrence, "extract_r", broken)
    cfg_path = _write(tmp_path, "cfg.json", BASE_CFG)
    out = tmp_path / "t2"
    assert main(["tables", "--config", cfg_path, "--what", "rnk", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "verification error: r-table broken on purpose"
    )
    assert not out.exists()
    out.mkdir()
    assert main(["tables", "--config", cfg_path, "--what", "rnk", "--out", str(out)]) == 1
    assert list(out.iterdir()) == []


def test_run_config_is_frozen_and_hashed_by_value():
    """A parsed config refuses assignment; two parses of one config are
    equal records with equal hashes, and a changed field makes another."""
    data = dict(BASE_CFG, si_candidates=[{"name": "w", "slots": ["1"] * 4}])
    cfg, again = parse_config(data), parse_config(data)
    with pytest.raises(AttributeError):
        cfg.suites = ("mi",)
    assert again is not cfg and again == cfg and hash(again) == hash(cfg)
    assert cfg._replace(precision=128) != cfg
    assert len({cfg, again, cfg._replace(precision=128)}) == 2


def test_the_config_is_the_only_source_of_a_run_setting():
    """The config schema is RunConfig's fields, frozen once parsed; the
    command line names the config and the outputs only; and no float
    helper below the config falls back to a precision of its own."""
    assert _ALLOWED_KEYS == set(RunConfig._fields)
    cfg = parse_config(dict(BASE_CFG))
    with pytest.raises(AttributeError):
        cfg.precision = 128

    sub = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert options == {"verify": {"--config", "--out"},
                       "tables": {"--config", "--out", "--what"}}

    checked = set()
    for mod in (bigreal, qlimit, shapeinv):
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != mod.__name__:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.name in ("prec", "precision"):
                    assert param.default is inspect.Parameter.empty, f"{mod.__name__}.{name}"
                    checked.add(name)
    assert {"to_real", "big_sqrt", "real_str", "matched_q_params", "float_tables",
            "si_test", "symmetric_form", "factor_upper"} <= checked


def test_si_candidates_are_parsed_once_to_rationals():
    """The config holds the candidate slots as rationals, and the shape
    suite reads them as they are: a candidate with the slots of the
    built-in delta shift gets the delta verdict."""
    cfg = parse_config(dict(
        BASE_CFG, suites=["shape"],
        si_candidates=[{"name": "mine", "slots": ["-4", "11", "3/2", "7/5"]}],
    ))
    assert cfg.si_candidates == (("mine", (rat(-4), rat(11), rat(3, 2), rat(7, 5))),)
    report, _ = run_suite(cfg)
    verdicts = {v.pop("name"): v for v in report["suites"]["shape"]["verdicts"]}
    assert verdicts["mine"]["admissible"] and verdicts["mine"] == verdicts["delta"]


@pytest.mark.parametrize("mutation,msg", [
    ({"si_candidates": [{"name": "short", "slots": ["-4", "11", "3/2"]}]}, "four rational"),
    ({"si_candidates": [{"name": "bad", "slots": ["-4", "11", "3/2", "z"]}]}, "bad rational"),
    ({"N": True}, "N must be a positive integer"),
    ({"D": [1.7]}, "D must be a list of integers"),
    ({"D": ["2"]}, "D must be a list of integers"),
    ({"D": [True]}, "D must be a list of integers"),
    ({"suites": "mi"}, "suites must be a list"),
    ({"suites": ["mi", 3]}, "suites must be a list"),
    ({"Y": ["1", "-1"]}, "Y must have non-negative coefficients"),
    ({"si_candidates": [{"name": 5, "slots": ["-4", "11", "3/2", "2/5"]}]}, "string 'name'"),
    ({"si_candidates": [{"name": None, "slots": ["-4", "11", "3/2", "2/5"]}]},
     "string 'name'"),
    ({"si_candidates": [{"name": "x", "slots": ["-4", "11", "3/2", "2/5"], "frob": 1}]},
     "exactly a string 'name'"),
    ({"si_candidates": [{"slots": ["-4", "11", "3/2", "2/5"]}]}, "exactly a string 'name'"),
    ({"si_candidates": ["x"]}, "si_candidates entries must be objects"),
])
def test_malformed_config_exits_2_with_message(tmp_path, capsys, mutation, msg):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, **mutation))
    assert main(["verify", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and msg in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,out", [
    ("verify", "dir"),
    ("verify", "missing/dir/r.json"),
    ("tables", "file"),
])
def test_unwritable_out_exits_2_with_message(tmp_path, capsys, command, out):
    """A directory as report path, a report path under a missing directory
    and an existing file as table directory are bad configuration, not a
    failed verification."""
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=["base"]))
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    argv = [command, "--config", cfg_path, "--out", str(tmp_path / out)]
    if command == "tables":
        argv += ["--what", "spectrum"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: cannot write ")
    assert "Traceback" not in err
    if command == "verify":
        assert "[timing] suite" not in err  # found before any suite runs


def test_verify_out_gets_the_report_bytes_or_nothing(tmp_path, monkeypatch):
    """The early write check leaves a writable path to the report; a
    verification error leaves no report file behind."""
    from dualracah import cli
    from dualracah.errors import CrossCheckMismatch

    data = dict(BASE_CFG, suites=["mi", "dual"])
    cfg_path = _write(tmp_path, "cfg.json", data)
    out, want = tmp_path / "r.json", tmp_path / "want.json"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    write_report(run_suite(parse_config(data))[0], str(want))
    assert out.read_bytes() == want.read_bytes()

    def broken(cfg):
        raise CrossCheckMismatch("corrupted on purpose")

    monkeypatch.setattr(cli, "run_suite", broken)
    out.unlink()
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 1
    assert not out.exists()


# sha256 of the report bytes; any change to a verdict, a table entry or the
# report layout changes them
PINNED_REPORTS = [
    (
        {"family": "R", "N": 6, "b": "11", "c": "1/2", "d": "2/5", "D": [1, 2], "Y": ["1"]},
        "cec03477d9139d0f1e99f9a1b45c26eaf1b512eb48ccf7da2de16870452630e9",
    ),
    (
        {"family": "qR", "N": 6, "b": "1/2048", "c": "1/2", "d": "2/5", "q": "1/2",
         "D": [1, 2], "Y": ["1"], "suites": [s for s in SUITES if s != "qlimit"]},
        "dee37016b82ca5654b7c5356e31a0c49538e23f24e06325a33f72b88b09e8afd",
    ),
    # N=14, where the Hamiltonian's band (L=3) is narrower than the matrix:
    # the shape residuals and the q->1 gaps are printed to every digit of
    # the working precision
    (
        {"family": "R", "N": 14, "b": "19", "c": "1/2", "d": "2/5", "D": [1, 2], "Y": ["1"],
         "suites": ["base", "mi", "recurrence", "dual", "closure", "ladder", "commute",
                    "shape", "qlimit"]},
        "ca4b56cf376d0eb9e75a8a8777aa9b297aba9cebefda77f17843bb481c9dfffb",
    ),
    # N=18, the exact suites from mi to ladder: the closure polynomials
    # printed in full
    (
        {"family": "R", "N": 18, "b": "23", "c": "1/2", "d": "2/5", "D": [1, 2], "Y": ["1"],
         "suites": ["mi", "recurrence", "dual", "closure", "ladder"]},
        "478911324238109b5a4bbd46780e1b167fb9a4b8968baff75272635574fe5b8e",
    ),
    # N=48, the same suites: closure integers large enough that any change
    # of route in the interpolation or the node data shows in the bytes
    (
        {"family": "R", "N": 48, "b": "53", "c": "1/2", "d": "2/5", "D": [1, 2], "Y": ["1"],
         "suites": ["mi", "recurrence", "dual", "closure", "ladder"]},
        "2dddda81eec73ee3cadb7f2bdfe181374dc27721a4ebfed8da92cf0a2eef4a90",
    ),
    # qR at N=24, base to shape: qR closure integers and the shape suite's
    # float conversions of a q-family system
    (
        {"family": "qR", "N": 24, "b": "1/35184372088832", "q": "1/2", "c": "1/2",
         "d": "2/5", "D": [1, 2], "Y": ["1"],
         "suites": ["base", "mi", "recurrence", "dual", "closure", "ladder", "commute",
                    "shape"]},
        "a5d93bd09ef835d72c2c70f445c1074d27d023b81873dceb2d1471ce2755f4dc",
    ),
]


@pytest.mark.parametrize(
    "data,digest", PINNED_REPORTS, ids=["R", "qR", "R-n14", "R-n18", "R-n48", "qR-n24"]
)
def test_report_bytes_are_pinned(tmp_path, data, digest):
    report, ok = run_suite(parse_config(data))
    assert ok
    path = tmp_path / "report.json"
    write_report(report, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _refuse_product(a, b):
    raise AssertionError("dense SquareMatrix product in a verify run")


@pytest.mark.parametrize("data,digest", PINNED_REPORTS[:3], ids=["R", "qR", "R-n14"])
def test_passing_runs_form_no_dense_product(tmp_path, monkeypatch, data, digest):
    """Every suite certifies on the band or the Gram kernel: with the dense
    product refused before any stage is built, all nine suites pass on R
    (N=6 and N=14), and the exact suites and the shape suite on qR, with
    the pinned report bytes."""
    monkeypatch.setattr(SquareMatrix, "__matmul__", _refuse_product)
    report, ok = run_suite(parse_config(data))
    assert ok and len(report["suites"]) == (8 if data["family"] == "qR" else 9)
    path = tmp_path / "report.json"
    write_report(report, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.fixture(params=["worker", "inline"])
def ladder_route(request, monkeypatch):
    """The route of the q->1 ladder: a forked worker (as on a host with a
    second CPU, whatever this host has) or inline (no os.fork)."""
    if request.param == "worker":
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    return request.param


@pytest.mark.parametrize("data,digest", PINNED_REPORTS[:3], ids=["R", "qR", "R-n14"])
def test_pinned_reports_on_both_ladder_routes(tmp_path, capsys, ladder_route, data, digest):
    """The pinned report bytes hold whether the q->1 ladder runs in the
    forked worker or inline.  A run with the qlimit suite prints one timing
    line for the ladder, naming its route; a run without it prints none."""
    cfg_path = _write(tmp_path, "cfg.json", data)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    lines = [line for line in capsys.readouterr().err.splitlines() if "qlimit ladder" in line]
    if "qlimit" in data.get("suites", SUITES):
        assert len(lines) == 1
        assert re.fullmatch(rf"\[timing\] qlimit ladder {ladder_route}: \d+\.\d{{3}}s", lines[0])
    else:
        assert lines == []


def test_ladder_error_exits_1_with_the_same_line_on_both_routes(
    tmp_path, capsys, monkeypatch, ladder_route
):
    """A library error raised while the ladder is computed is raised again
    at the qlimit suite: exit 1 and the message of the inline run."""
    def pole(*args):
        raise ZeroDenominator("pole of the q-tuple, raised on purpose")

    monkeypatch.setattr(qlimit, "float_tables", pole)
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=["mi", "qlimit"]))
    assert main(["verify", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "verification error: pole of the q-tuple, raised on purpose"
    assert "[timing] suite mi" in err and "Traceback" not in err


def _forks_counted(monkeypatch) -> list:
    """Offer a second CPU and record the pid of every child forked."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_failing_suite_leaves_no_worker(monkeypatch):
    """The mi suite raises while the ladder worker runs: run_suite kills
    and reaps it, and the error comes through."""
    def broken(s):
        raise CrossCheckMismatch("orthogonality broken on purpose")

    forks = _forks_counted(monkeypatch)
    monkeypatch.setattr(multiindexed, "verify_ortho", broken)
    with pytest.raises(CrossCheckMismatch, match="orthogonality broken on purpose"):
        run_suite(parse_config(dict(BASE_CFG, suites=["mi", "qlimit"])))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fault,message", [
    ("kill", f"the q->1 ladder worker ended without a result (signal {signal.SIGKILL.value})"),
    ("divide", "the q->1 ladder worker raised ZeroDivisionError: division by zero"),
], ids=["killed", "not-a-library-error"])
def test_worker_fault_exits_1_with_a_message(tmp_path, capsys, monkeypatch, fault, message):
    """A worker killed by a signal, or one whose error is not a library
    error, ends the run with exit 1 and a message naming what happened."""
    parent = os.getpid()

    def broken(*args):
        if os.getpid() == parent:
            raise AssertionError("the ladder ran in the test process")
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return 1 / 0

    forks = _forks_counted(monkeypatch)
    monkeypatch.setattr(qlimit, "float_tables", broken)
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=["qlimit"]))
    assert main(["verify", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"verification error: {message}"
    assert "Traceback" not in err and len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("data", [
    b"\x8f garbage!",
    marshal.dumps(("done", [[[(0, 1, 0, 1)]]] * 4, 0.5))[:-7],
    b"",
    marshal.dumps(("done", [], 0.5)),
    marshal.dumps(7),
], ids=["garbage", "truncated", "empty", "no-tables", "not-a-record"])
def test_malformed_worker_data_exits_1_with_a_message(tmp_path, capsys, monkeypatch, data):
    """A worker that exits 0 but whose data ends early or is not one record
    of the worker's shape ends the run with exit 1 and a message, not a
    traceback."""
    def send(args, f):
        f.write(data)

    forks = _forks_counted(monkeypatch)
    monkeypatch.setattr(qlimit, "_send_ladder", send)
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=["qlimit"]))
    assert main(["verify", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "verification error: the q->1 ladder worker ended without a result"
        f" ({len(data)} bytes of data that are not one record)"
    )
    assert "Traceback" not in err and len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_without_qlimit_never_forks(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called by a run without the qlimit suite")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", refuse)
    suites = [s for s in SUITES if s != "qlimit"]
    report, ok = run_suite(parse_config(dict(BASE_CFG, suites=suites)))
    assert ok


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_ladder_faults_survive_python_O(tmp_path):
    """Under -O: a ladder error exits 1 with one message on both routes, a
    killed worker exits 1 with a message, and a suite that raises while the
    worker runs leaves no child."""
    script = textwrap.dedent(
        """
        import json, os, signal, sys

        from dualracah import multiindexed, qlimit
        from dualracah.cli import main
        from dualracah.errors import CrossCheckMismatch, ZeroDenominator
        from dualracah.report import parse_config, run_suite

        assert False, "asserts must be stripped"
        cfg = sys.argv[1]
        os.sched_getaffinity = lambda pid: {0, 1}
        fork, parent, tables = os.fork, os.getpid(), qlimit.float_tables

        def pole(*args):
            raise ZeroDenominator("pole of the q-tuple, raised on purpose")

        qlimit.float_tables = pole
        print("worker", main(["verify", "--config", cfg]), flush=True)
        del os.fork
        print("inline", main(["verify", "--config", cfg]), flush=True)
        os.fork = fork

        def killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return tables(*args)

        qlimit.float_tables = killed
        print("killed", main(["verify", "--config", cfg]), flush=True)

        def broken(s):
            raise CrossCheckMismatch("orthogonality broken on purpose")

        qlimit.float_tables = tables
        multiindexed.verify_ortho = broken
        try:
            run_suite(parse_config(json.load(open(cfg))))
        except CrossCheckMismatch as e:
            print("mi:", e)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
        """
    )
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=["mi", "qlimit"]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, cfg_path], env=env, capture_output=True,
        text=True, check=True,
    )
    assert proc.stdout.splitlines() == [
        "worker 1", "inline 1", "killed 1", "mi: orthogonality broken on purpose", "no child left",
    ]
    errors = [line for line in proc.stderr.splitlines() if line.startswith("verification")]
    assert errors == ["verification error: pole of the q-tuple, raised on purpose"] * 2 + [
        "verification error: the q->1 ladder worker ended without a result"
        f" (signal {signal.SIGKILL.value})"
    ]
    assert "Traceback" not in proc.stderr


def _python(*argv, script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports the library from
    this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *argv], env=env, capture_output=True,
        text=True,
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_float_module_imported_first_is_the_one_report_calls(tmp_path):
    """A float module imported before the report front-end is the object
    the front-end holds, so a patch of it reaches run_suite on both ladder
    routes."""
    script = """
        import os, sys

        from dualracah import qlimit
        from dualracah import report
        from dualracah.cli import main
        from dualracah.errors import ZeroDenominator

        print(all(getattr(report, n) is sys.modules["dualracah." + n]
                  for n in ("bigreal", "qlimit", "shapeinv")))
        print(report.qlimit is qlimit)

        def pole(*args):
            raise ZeroDenominator("pole of the q-tuple, raised on purpose")

        qlimit.float_tables = pole
        fork, forks = os.fork, []

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        os.fork, os.sched_getaffinity = counted, lambda pid: {0, 1}
        print("worker", main(["verify", "--config", sys.argv[1]]), len(forks), flush=True)
        del os.fork
        print("inline", main(["verify", "--config", sys.argv[1]]), flush=True)
        """
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=["mi", "qlimit"]))
    proc = _python(cfg_path, script=script)
    assert proc.stdout.splitlines() == ["True", "True", "worker 1 1", "inline 1"], proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("verification")]
    assert errors == ["verification error: pole of the q-tuple, raised on purpose"] * 2


_NO_MPMATH = """
    import sys

    sys.modules["mpmath"] = None
    from dualracah.cli import main

    code = main(sys.argv[1:])
    print(code, "mpmath" in sys.modules and sys.modules["mpmath"] is not None)
    """


@pytest.mark.parametrize("suites,needs", [
    (["mi", "shape"], "the shape suite"),
    (["qlimit"], "the qlimit suite"),
    (["base", "shape", "qlimit"], "the shape and qlimit suites"),
])
def test_float_suite_without_mpmath_is_a_config_error(tmp_path, suites, needs):
    """Where mpmath cannot be imported, a config that names a float suite
    ends in exit 2 with one line naming the suite and mpmath."""
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=suites))
    proc = _python("verify", "--config", cfg_path, script=_NO_MPMATH)
    assert proc.stdout.splitlines() == ["2 False"], proc.stderr
    assert re.fullmatch(rf"error: {needs} cannot run without mpmath \(.+\)\n", proc.stderr)


def test_hamiltonian_table_without_mpmath_is_a_config_error(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=["mi"]))
    out = tmp_path / "tables"
    proc = _python("tables", "--config", cfg_path, "--what", "hamiltonian", "--out", str(out),
                   script=_NO_MPMATH)
    assert proc.stdout.splitlines() == ["2 False"], proc.stderr
    assert re.fullmatch(
        r"error: tables --what hamiltonian cannot run without mpmath \(.+\)\n", proc.stderr
    )
    assert not out.exists()


def test_exact_run_without_mpmath_writes_its_pinned_bytes(tmp_path):
    data, digest = PINNED_REPORTS[3]
    cfg_path = _write(tmp_path, "cfg.json", data)
    out = tmp_path / "report.json"
    proc = _python("verify", "--config", cfg_path, "--out", str(out), script=_NO_MPMATH)
    assert proc.stdout.splitlines() == ["0 False"], proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _tracer_layers() -> tuple:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("suites,loads", [
    (["base", "mi", "recurrence", "dual", "closure", "ladder", "commute"], False),
    (["mi", "qlimit"], True),
], ids=["exact", "qlimit"])
def test_float_side_loads_only_for_a_float_suite(tmp_path, suites, loads):
    """A cost guard the host's noise cannot move.  In a fresh interpreter,
    an exact-only verify never imports mpmath, and every layer module the
    benchmark's tracer looks up is still registered; a config naming the
    qlimit suite has mpmath loaded once it is read, before any worker
    forks."""
    script = """
        import json, sys

        import dualracah.cli
        from dualracah import report

        cfg = report.load_config(sys.argv[1])
        after_load = "mpmath" in sys.modules
        rep, ok = report.run_suite(cfg)
        report.write_report(rep, sys.argv[2])
        print(json.dumps({
            "ok": ok, "after_load": after_load, "after_run": "mpmath" in sys.modules,
            "registered": [n for n in sys.modules if n.startswith("dualracah.")],
        }))
        """
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=suites))
    proc = _python(cfg_path, str(tmp_path / "report.json"), script=script)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["ok"] and got["after_load"] is loads and got["after_run"] is loads
    assert {f"dualracah.{layer}" for layer in _tracer_layers()} <= set(got["registered"])


@pytest.mark.parametrize("suites", [
    ["base", "mi", "recurrence", "dual", "closure", "ladder", "commute"],
    ["mi", "qlimit"],
], ids=["exact", "qlimit"])
def test_setup_loads_no_dataclasses_inspect_or_csv(tmp_path, suites):
    """A cost guard the host's noise cannot move.  In a fresh interpreter,
    importing the command line and reading a config, the float side
    included, loads neither the records' former class machinery
    (dataclasses, and inspect with it) nor csv, which only a tables run
    writes."""
    script = """
        import json, sys

        import dualracah.cli
        from dualracah import report

        report.load_config(sys.argv[1])
        print(json.dumps([m for m in ("dataclasses", "inspect", "csv") if m in sys.modules]))
        """
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=suites))
    proc = _python(cfg_path, script=script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# sha256 of hamiltonian.csv and hamiltonian.json from `tables --what
# hamiltonian` for the pinned report configs, at the default precision and
# at a config precision of 128 bits; they cover the exact and the symmetric
# columns
PINNED_HAMILTONIAN_TABLES = [
    (PINNED_REPORTS[0][0], None,
     ("5d327ba6ac318d9ed5de4d33f2a12736a846ceaf8a60857481a2552ea7724d8a",
      "c27f0256d6010976896b089314a1c13ede8c02003fdcfc93ef1dd0a4ca5e098b")),
    (PINNED_REPORTS[0][0], 128,
     ("d00cb77b365a797be072c625a92ee40345194631e8ad1ecf789fde143db4d513",
      "b6c9898bd71501c500ac4a6957cb292d9731c370001c519a3393126579aa8edf")),
    (PINNED_REPORTS[1][0], None,
     ("1599c5011fc3f5d5731e27d52d49cd382d78a9c8d615ec140dd421639fec9cb0",
      "664843ef5857824fdb78d21d63c98f48798c4fc96c56f39c5d2a76381197b570")),
]


@pytest.mark.parametrize("data,precision,digests", PINNED_HAMILTONIAN_TABLES,
                         ids=["R", "R-128", "qR"])
def test_hamiltonian_table_bytes_are_pinned(tmp_path, data, precision, digests):
    if precision is not None:
        data = dict(data, precision=precision)
    cfg_path = _write(tmp_path, "cfg.json", data)
    argv = ["tables", "--config", cfg_path, "--what", "hamiltonian", "--out", str(tmp_path)]
    assert main(argv) == 0
    got = tuple(
        hashlib.sha256((tmp_path / f"hamiltonian.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "json")
    )
    assert got == digests


def test_exact_suites_do_no_float_work(monkeypatch):
    """Without the shape and qlimit suites a run never enters a working
    precision: the exact pipeline carries no floats."""
    import mpmath

    def refuse(*args, **kwargs):
        raise RuntimeError("mpmath.workprec entered by an exact suite")

    monkeypatch.setattr(mpmath, "workprec", refuse)
    suites = ["base", "mi", "recurrence", "dual", "closure", "ladder", "commute"]
    report, ok = run_suite(parse_config(dict(BASE_CFG, suites=suites)))
    assert ok and set(report["suites"]) == set(suites)


def test_corrupted_base_value_fails_ortho_and_duality(monkeypatch):
    """The base suite reads one column fill of p in both loops, so one wrong
    P_2(3) shows up in the orthogonality sums and in the duality check
    against the columns of the dual tuple."""
    from dualracah.basefamily import RacahColumns

    cfg = parse_config(dict(BASE_CFG, suites=["base"]))
    p = cfg.params()
    orig = RacahColumns.column

    def corrupted(self, y):
        col = orig(self, y)
        return col[:2] + (col[2] + 1,) + col[3:] if (self.p, y) == (p, 3) else col

    monkeypatch.setattr(RacahColumns, "column", corrupted)
    report, ok = run_suite(cfg)
    fails = report["suites"]["base"]["failures"]
    assert not ok
    assert [f for f in fails if f[0] == "duality"] == [["duality", 2, 3]]
    ortho = {tuple(f[1:]) for f in fails if f[0] == "ortho"}
    assert {(0, 2), (2, 2), (2, 5)} <= ortho and all(2 in nm for nm in ortho)


def test_corrupted_spot_row_raises(monkeypatch):
    """One wrong hypergeometric value in the spot row n = N stops the base
    suite: the recurrence columns no longer match the sum."""
    from dualracah import basefamily
    from dualracah.errors import CrossCheckMismatch

    cfg = parse_config(dict(BASE_CFG, suites=["base"]))
    p = cfg.params()
    orig = basefamily.racah_value

    def corrupted(n, x, q):
        v = orig(n, x, q)
        return v + 1 if (n, x, q) == (p.N, 3, p) else v

    monkeypatch.setattr(basefamily, "racah_value", corrupted)
    msg = r"base value P_5\(3\) differs from the hypergeometric sum"
    with pytest.raises(CrossCheckMismatch, match=msg):
        run_suite(cfg)


@pytest.mark.parametrize("family", ["R", "qR"])
def test_exact_suites_sum_only_virtual_states_and_spot_row(family, monkeypatch):
    """Over a run of every exact suite, the only single-value hypergeometric
    sums are the virtual-state values (at twisted parameters,
    ``params.twist``) and the base suite's spot row n = N; every other base
    value comes from a column fill."""
    import sys
    from collections import Counter

    from dualracah import basefamily, params

    orig_value, orig_twist = basefamily.racah_value, params.twist
    calls, twisted = Counter(), set()

    def counted_value(n, x, p):
        calls[(n, x, p)] += 1
        return orig_value(n, x, p)

    def counted_twist(p):
        t = orig_twist(p)
        twisted.add(t)
        return t

    # every module-level binding, so an import by name cannot hide a call
    wrap = {"racah_value": (orig_value, counted_value), "twist": (orig_twist, counted_twist)}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("dualracah"):
            for name, (fn, counted) in wrap.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted)
    data = dict(BASE_CFG, suites=[s for s in SUITES if s != "qlimit"])
    if family == "qR":
        data.update(family="qR", b="1/2048", q="1/2")
    cfg = parse_config(data)
    report, ok = run_suite(cfg)
    p = cfg.params()
    virtual = Counter({key: k for key, k in calls.items() if key[2] in twisted})
    assert ok and virtual
    assert calls == virtual + Counter((p.N, x, p) for x in range(p.N + 1))


@pytest.mark.parametrize("suites", [["dual"], ["closure"], ["mi", "dual"]])
def test_corrupted_potential_fails_the_dual_recurrence(tmp_path, capsys, monkeypatch, suites):
    """A wrong deformed potential B_D(3) breaks the dual recurrence at
    column 3 in every row but row 0 (all ones: a_dual and b_dual move by
    opposite amounts).  The dual suite and the closure certification stop
    there, exit 1; the mi suite before them lists the residuals."""
    from dualracah.multiindexed import MISystem

    birth = MISystem.bd
    monkeypatch.setattr(MISystem, "bd", lambda self, x: birth(self, x) + (x == 3))
    cfg = _write(tmp_path, "cfg.json", dict(BASE_CFG, suites=suites))
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "verification error: diag(Ebar)*V differs from V*T at (x,n)=(1,3)" in err


def test_run_builds_each_system_once(monkeypatch):
    """One system for the pipeline (shared with the qlimit suite) and one per
    admissible shape candidate."""
    from dualracah import multiindexed

    built = []
    build = multiindexed.build_mi_system

    def counted(p, D):
        built.append(p)
        return build(p, D)

    monkeypatch.setattr(multiindexed, "build_mi_system", counted)
    report, ok = run_suite(parse_config(dict(BASE_CFG, suites=["mi", "shape", "qlimit"])))
    assert ok
    admissible = [v for v in report["suites"]["shape"]["verdicts"] if v["admissible"]]
    assert admissible and len(built) == 1 + len(admissible)
    assert len(set(built)) == len(built)


def test_shape_suite_reuses_the_pipeline_hamiltonian(monkeypatch):
    """extract_r runs once for the pipeline and once per admissible shape
    candidate; the original system's Hamiltonian is not built again."""
    from dualracah import recurrence

    calls = []
    extract = recurrence.extract_r

    def counted(s, xp):
        calls.append(s.params)
        return extract(s, xp)

    monkeypatch.setattr(recurrence, "extract_r", counted)
    cfg = parse_config(dict(BASE_CFG, suites=["recurrence", "shape"]))
    report, ok = run_suite(cfg)
    assert ok
    admissible = [v for v in report["suites"]["shape"]["verdicts"] if v["admissible"]]
    assert admissible and len(calls) == 1 + len(admissible)
    assert calls.count(cfg.params()) == 1


def test_commute_suite_reuses_the_system_and_dual_table(monkeypatch):
    """The commute suite's second seed shares the pipeline's system and
    dual table; only the seed-dependent stages run once per seed."""
    from dualracah import dualsystem, multiindexed, recurrence

    calls = {}
    for mod, name in ((multiindexed, "build_mi_system"), (dualsystem, "dual_values"),
                      (recurrence, "extract_r")):
        def counted(*args, _name=name, _fn=getattr(mod, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(mod, name, counted)
    report, ok = run_suite(parse_config(dict(BASE_CFG, suites=["dual", "commute"])))
    assert ok and report["suites"]["commute"]["other_seed"] == ["0/1", "1/1"]
    assert calls == {"build_mi_system": 1, "dual_values": 1, "extract_r": 2}


# JSON-like values: what json.load can hand to parse_config
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.sampled_from(["1/2", "3/0", "-4", "1/2/3", "R", "qR", "mi"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _json,
    st.dictionaries(st.sampled_from(sorted(_ALLOWED_KEYS)), _json, max_size=4)
    .map(lambda patch: dict(BASE_CFG, **patch)),
))
def test_parse_config_fuzz_only_raises_config_error(data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
