"""One `dualracah verify` sample in a fresh interpreter.

    python3 perfbench/child.py SRC CONFIG MODE [REPORT TRACE]

MODE is one of

* ``setup``: import ``dualracah.cli``, load CONFIG and validate its
  parameters, then stop;
* ``verify``: set up as above, then time ``run_suite`` + ``write_report``;
* ``trace``: as ``verify``, with every public function of the library's
  layers wrapped in a span (see ``tracer.py``); the spans go to TRACE.

The last line of standard output is one JSON object. ``setup_end`` is the
``time.monotonic()`` reading after validation, so the parent can charge
interpreter start-up to set-up. Exit status 0 means the report says
``pass: true``.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    src, config, mode = argv[:3]
    sys.path.insert(0, src)
    import dualracah.cli  # noqa: F401  (the import a CLI user pays for)
    from dualracah import backend, params, report

    pkg = os.path.dirname(os.path.abspath(dualracah.cli.__file__))
    if pkg != os.path.join(os.path.abspath(src), "dualracah"):
        print(f"dualracah imported from {pkg}, not from {src}", file=sys.stderr)
        return 2
    cfg = report.load_config(config)
    bad = params.validate(cfg.params(), cfg.D)
    out = {"setup_end": time.monotonic(), "backend": backend.BACKEND}
    if bad:
        print(f"inadmissible parameters: {bad}", file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps(out))
        return 0

    report_path, tracer = argv[3], None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.monotonic()
    rep, ok = report.run_suite(cfg)
    report.write_report(rep, report_path)
    t1 = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(argv[4], t0, t1)
    out.update(
        verify_s=t1 - t0,
        ok=bool(ok),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
