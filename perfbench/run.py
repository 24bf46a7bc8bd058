"""Benchmark of `dualracah verify` on the workloads in ``workloads.py``.

    python3 perfbench/run.py --workload r-full-n14 --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 60

The checkout is the parent of this file's directory; the library is
imported from its ``src/``, nothing is built. The load is a closed loop
with one client: one process runs one verify at a time, each in a fresh
interpreter (``child.py``), so no state carries between samples, as for a
CLI user. Samples run until one more would pass ``--seconds`` (at least
two). Before each, ``SETUP_PROBES`` interpreters only set up. Sample i
of a run with seed s verifies pool entry (s + i) mod (pool size) of the
workload, so every run cycles through the whole pool and its medians do
not hang on which entry the seed picks.

End-to-end metrics (``--trace 0``), medians over the run:

* ``verify_s``: wall time of ``run_suite`` + ``write_report``;
* ``setup_s``: interpreter start through ``import dualracah.cli``,
  ``load_config`` and ``params.validate``;
* ``peak_rss_mb``: peak resident memory of the verify process, in MiB.

A sample fails if its exit status is not 0, if its report does not say
``pass: true``, or if the report bytes differ from the sha256 recorded for
the workload's pool entry or from an earlier repeat. ``failed`` /
``attempted`` in the result line is the verify failure ratio.

``--trace 1`` first runs the base suite alone in a fresh interpreter
(``basefamily.base_suite_s``) and one traced verify (``tracer.py``) of
pool entry s, then measures as above in the rest of ``--seconds``, and
reports the per-layer metrics. ``trace.overhead_s`` is the traced verify
time minus the untraced ``verify_s`` median.

Metric names and units come from ``BENCHMARK.json``. Each run writes
``perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json`` with the backend,
Python version, nproc, every sample, every metric and, when traced, the
per-function trace table; the spans go to ``trace_*.json`` beside it. The
last line of standard output is the result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
MIN_SAMPLES = 2
RUN_LIMIT_S = 170  # a run of one workload ends within this, finished or failed


class SampleFailed(Exception):
    pass


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_failure(data: bytes, expected: str, first: str = None):
    """Why a report counts as a failed run, or None when it is good.

    `expected` is the recorded sha256 (empty: none recorded); `first` is the
    sha256 of an earlier repeat in the same run.
    """
    try:
        rep = json.loads(data)
    except ValueError:
        return "report is not JSON"
    if not isinstance(rep, dict) or rep.get("pass") is not True:
        return "report does not say pass: true"
    digest = sha256(data)
    if expected and digest != expected:
        return f"report sha256 {digest} differs from the recorded {expected}"
    if first and digest != first:
        return f"report sha256 {digest} differs from the earlier repeat {first}"
    return None


def spawn(deadline: float, config: Path, mode: str, *extra) -> dict:
    """Run child.py once; its result with `setup_s` measured from the spawn."""
    cmd = [sys.executable, "-E", "-s", str(HERE / "child.py"), str(SRC), str(config), mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [str(e) for e in extra], cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - t0, 1),
        )
    except subprocess.TimeoutExpired:
        raise SampleFailed(f"{mode} did not finish within {RUN_LIMIT_S} s of the run's start")
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = {}
    if proc.returncode != 0 or "setup_end" not in out:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise SampleFailed(f"{mode} exited with {proc.returncode}: {tail}")
    out["setup_s"] = out["setup_end"] - t0
    return out


def checked_verify(deadline, config: Path, report: Path, expected: str, first=None, trace=None):
    """One verify sample, traced into `trace` if given, whose report passed
    `report_failure`; its result with the report's digest and size added."""
    report.unlink(missing_ok=True)
    if trace is None:
        out = spawn(deadline, config, "verify", report)
    else:
        out = spawn(deadline, config, "trace", report, trace)
    try:
        data = report.read_bytes()
    except OSError as e:
        raise SampleFailed(f"no report: {e}")
    why = report_failure(data, expected, first)
    if why:
        raise SampleFailed(why)
    out.update(sha256=sha256(data), report_bytes=len(data))
    return out


def tail_percentile(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it, or None."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None
    return {"percentile": 100 * (k + 1) / len(ordered), "value": ordered[k]}


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run: verify samples, cycling through the workload's pool from
    entry `seed`, until one more would pass `seconds` (at least
    MIN_SAMPLES); with `trace`, the traced verifies come first and count
    towards `seconds`."""
    size = len(workload.pool)
    configs, reports, first = [], [], {}
    for k in range(size):
        config = OUT / f"{workload.name}_entry{k}_config.json"
        config.write_text(json.dumps(workload.run_config(k)))
        configs.append(config)
        reports.append(OUT / f"{workload.name}_entry{k}_report.json")
    stem = f"{workload.name}_seed{seed}"
    rec = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
           "attempted": 0, "failed": 0, "failure": None,
           "setup_samples_s": [], "verify_samples": []}
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        spawn(deadline, configs[0], "setup")  # untimed: lets Python write its byte-code caches
        if trace:
            k = seed % size
            layers, traced_s = traced(deadline, workload, configs[k], reports[k], stem,
                                      workload.pool[k][2], rec)
        while True:
            k = (seed + len(rec["verify_samples"])) % size
            c, d, expected = workload.pool[k]
            rec["attempted"] += 1
            rec["setup_samples_s"] += [spawn(deadline, configs[k], "setup")["setup_s"]
                                       for _ in range(SETUP_PROBES)]
            s = checked_verify(deadline, configs[k], reports[k], expected, first.get(k))
            first.setdefault(k, s["sha256"])
            s["entry"] = [c, d]
            rec["verify_samples"].append(s)
            rec["setup_samples_s"].append(s["setup_s"])
            taken = [v["verify_s"] for v in rec["verify_samples"]]
            if (len(taken) >= MIN_SAMPLES
                    and time.monotonic() - start + statistics.median(taken) > seconds):
                break
        samples = rec["verify_samples"]
        verify = [s["verify_s"] for s in samples]
        rec["backend"] = samples[0]["backend"]
        rec["end_to_end"] = {
            "verify_s": statistics.median(verify),
            "setup_s": statistics.median(rec["setup_samples_s"]),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
        rec["verify_s_tail"] = tail_percentile(verify)
        rec["setup_s_tail"] = tail_percentile(rec["setup_samples_s"])
        if trace:
            layers["trace.overhead_s"] = traced_s - rec["end_to_end"]["verify_s"]
            rec["per_layer"] = layers
    except SampleFailed as e:
        rec["failed"] += 1
        rec["attempted"] = max(rec["attempted"], 1)
        rec["failure"] = str(e)
    rec["verify_fail_ratio"] = rec["failed"] / rec["attempted"]
    return rec


def traced(deadline, workload, config, report, stem, expected, rec):
    """A base-suite-only verify, then one traced verify: the per-layer
    metrics but `trace.overhead_s`, and the traced verify's time."""
    base_s = 0.0
    if "base" in workload.config["suites"]:
        base_config = OUT / f"{stem}_base_config.json"
        base_config.write_text(json.dumps(dict(json.loads(config.read_text()), suites=["base"])))
        rec["attempted"] += 1
        base_report = OUT / f"{stem}_base_report.json"
        base_s = checked_verify(deadline, base_config, base_report, "")["verify_s"]
    trace_path = OUT / f"trace_{stem}.json"
    rec["attempted"] += 1
    t = checked_verify(deadline, config, report, expected, trace=trace_path)
    rows, metrics = tracer.summarize(json.loads(trace_path.read_text()))
    rec["functions"] = rows
    metrics["basefamily.base_suite_s"] = base_s
    metrics["report.report_bytes"] = t["report_bytes"]
    return metrics, t["verify_s"]


def result_metrics(rec, specs) -> dict:
    values = rec.get("per_layer" if rec["trace"] else "end_to_end", {})
    if values and set(values) != {s["name"] for s in specs}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs if s["name"] in values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dualracah" / "cli.py").is_file():
        print(f"error: no dualracah sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        rec = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        rec.update(python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
                   machine=platform.machine())
        metrics = result_metrics(rec, specs)
        rec["metrics"] = metrics
        path = OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(f"{name}: seed {args.seed}, (c, d) from pool entry "
              f"{args.seed % len(WORKLOADS[name].pool)} on, backend {rec.get('backend')}, "
              f"{len(rec['verify_samples'])} verify samples, record {path.relative_to(ROOT)}")
        for key, m in metrics.items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        print(f"  verify_fail_ratio = {rec['verify_fail_ratio']:.6g} "
              f"({rec['failed']} of {rec['attempted']})")
        if rec["failure"]:
            print(f"  FAILED: {rec['failure']}")
        result["correct"] = result["correct"] and not rec["failed"]
        result["attempted"] += rec["attempted"]
        result["failed"] += rec["failed"]
        prefix = "" if len(names) == 1 else f"{name}:"
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
