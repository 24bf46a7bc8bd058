"""Config ingestion, suite orchestration, reports, tables, exit codes."""

import csv
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualracah.cli import main
from dualracah.errors import ConfigError
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


def test_inadmissible_params_exit_2(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG, b="5"))
    assert main(["verify", "--config", cfg_path]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2


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


def test_precision_override(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", dict(BASE_CFG))
    cfg = load_config(cfg_path)
    cfg.precision = 128
    report, ok = run_suite(cfg)
    assert ok and report["config"]["precision"] == 128
    assert main(["verify", "--config", cfg_path, "--precision", "10"]) == 2


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
]


@pytest.mark.parametrize("data,digest", PINNED_REPORTS, ids=["R", "qR"])
def test_report_bytes_are_pinned(tmp_path, data, digest):
    report, ok = run_suite(parse_config(data))
    assert ok
    path = tmp_path / "report.json"
    write_report(report, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_corrupted_base_value_fails_ortho_and_duality(monkeypatch):
    """The base suite reads one filled table in both loops, so one wrong
    P_n(x) shows up in the orthogonality sums and in the duality check."""
    from dualracah import basefamily

    cfg = parse_config(dict(BASE_CFG, suites=["base"]))
    p = cfg.params()
    orig = basefamily.racah_value

    def corrupted(n, x, q):
        v = orig(n, x, q)
        return v + 1 if (n, x, q) == (2, 3, p) else v

    monkeypatch.setattr(basefamily, "racah_value", corrupted)
    report, ok = run_suite(cfg)
    fails = report["suites"]["base"]["failures"]
    assert not ok
    assert [f for f in fails if f[0] == "duality"] == [["duality", 2, 3]]
    ortho = {tuple(f[1:]) for f in fails if f[0] == "ortho"}
    assert {(0, 2), (2, 2), (2, 5)} <= ortho and all(2 in nm for nm in ortho)


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
