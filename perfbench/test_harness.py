"""Self-test of the benchmark harness (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_harness.py

Shows that a tampered digest, a report without ``pass: true`` and bytes
that change between repeats each count as a failed run, that traced counts
repeat exactly, that the metric names match ``BENCHMARK.json`` and that a
run cycles through its pool from the seed's entry. It runs
the library on a tiny config, so it takes a few seconds.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from dualracah.params import validate  # noqa: E402
from dualracah.report import parse_config  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = Workload(
    "tiny",
    {"family": "R", "N": 3, "b": "8", "D": [1], "Y": ["1"],
     "suites": ["base", "mi", "recurrence", "dual", "closure", "ladder"]},
    (("1/2", "2/5", ""),),
)

GOOD = json.dumps({"pass": True, "suites": {}}).encode()
GOOD_SHA = hashlib.sha256(GOOD).hexdigest()


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def with_digest(workload, digest):
    (c, d, _), = workload.pool
    return Workload(workload.name, workload.config, ((c, d, digest),))


def test_report_failure_rules():
    assert run.report_failure(GOOD, GOOD_SHA) is None
    assert run.report_failure(GOOD, "") is None
    assert "recorded" in run.report_failure(GOOD, "0" * 64)
    assert "repeat" in run.report_failure(GOOD, "", "0" * 64)
    failed = json.dumps({"pass": False}).encode()
    assert "pass" in run.report_failure(failed, hashlib.sha256(failed).hexdigest())
    assert run.report_failure(b"not json", "") == "report is not JSON"


def test_tampered_digest_counts_as_failure():
    good = run.measure(TINY, 0, 0, False)
    assert good["failed"] == 0 and good["verify_fail_ratio"] == 0
    digest = good["verify_samples"][0]["sha256"]
    assert run.measure(with_digest(TINY, digest), 0, 0, False)["failed"] == 0

    bad = run.measure(with_digest(TINY, "0" * 64), 0, 0, False)
    assert bad["failed"] == 1 and bad["verify_fail_ratio"] == 1
    assert "recorded" in bad["failure"]


def test_traced_counts_repeat_and_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    first, second = (run.measure(TINY, 0, 0, True) for _ in range(2))
    assert first["failed"] == 0
    assert set(first["per_layer"]) == {m["name"] for m in bench["per_layer"]}
    assert set(first["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
    exact = [k for k in first["per_layer"]
             if k.endswith(("_calls", "max_bits", "_bytes"))]
    assert exact
    assert {k: first["per_layer"][k] for k in exact} == {
        k: second["per_layer"][k] for k in exact}
    assert first["per_layer"]["basefamily.base_suite_s"] > 0


def test_pool_entries_are_admissible():
    for w in WORKLOADS.values():
        for seed, (c, d, digest) in enumerate(w.pool):
            cfg = parse_config(w.run_config(seed))
            assert validate(cfg.params(), cfg.D) == [], (w.name, c, d)
            assert len(digest) == 64, (w.name, c, d)


def test_run_cycles_through_the_pool_from_the_seed():
    pair = Workload(TINY.name, TINY.config, (("1/2", "2/5", ""), ("1/2", "3/5", "")))
    rec = run.measure(pair, 1, 0, False)
    assert rec["failed"] == 0
    assert [s["entry"] for s in rec["verify_samples"]] == [["1/2", "3/5"], ["1/2", "2/5"]]
    assert rec["verify_samples"][0]["sha256"] != rec["verify_samples"][1]["sha256"]
