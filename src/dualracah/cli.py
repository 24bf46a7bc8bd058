"""Command-line entry point.

Two subcommands:

* ``verify``: run the verification suites from a JSON config and write a
  deterministic JSON report.
* ``tables``: emit CSV/JSON tables (polynomial grids, recurrence
  coefficients, Hamiltonians, spectra, dual tables).

Exit status: 0 all checks passed, 1 a verification failed, 2 bad
configuration (an unwritable ``--out`` included) or inadmissible
parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import ConfigError, DualRacahError, InadmissibleParams
from .report import TABLE_KINDS, emit_tables, load_config, run_suite, write_report


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualracah",
        description="Exact verification lab for multi-indexed (q-)Racah systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON run config")
    common.add_argument("--precision", type=int, default=None,
                        help="override the working precision (bits)")

    vp = sub.add_parser("verify", parents=[common], help="run verification suites")
    vp.add_argument("--out", default=None,
                    help="path of the JSON report (default: standard output)")
    tp = sub.add_parser("tables", parents=[common], help="emit data tables")
    tp.add_argument("--out", default=None,
                    help="directory for the CSV/JSON tables (default: current directory)")
    tp.add_argument("--what", required=True, choices=TABLE_KINDS,
                    help="which table to emit")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.precision is not None:
            if args.precision < 53:
                raise ConfigError("precision must be >= 53 bits")
            cfg.precision = args.precision
        if args.out is not None:
            cfg.out = args.out

        if args.command == "verify":
            report, ok = run_suite(cfg)
            if cfg.out:
                try:
                    write_report(report, cfg.out)
                except OSError as e:
                    raise ConfigError(f"cannot write report: {e}") from e
                print(f"report written to {cfg.out}", file=sys.stderr)
            else:
                json.dump(report, sys.stdout, indent=2, sort_keys=True)
                sys.stdout.write("\n")
            return 0 if ok else 1

        try:
            paths = emit_tables(cfg, args.what, cfg.out or ".")
        except OSError as e:
            raise ConfigError(f"cannot write tables: {e}") from e
        for path in paths:
            print(path, file=sys.stderr)
        return 0
    except (ConfigError, InadmissibleParams) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DualRacahError as e:
        print(f"verification error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
