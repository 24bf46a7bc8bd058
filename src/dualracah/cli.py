"""Command-line entry point.

Two subcommands:

* ``verify``: run the verification suites from a JSON config and write a
  deterministic JSON report.
* ``tables``: emit CSV/JSON tables (polynomial grids, recurrence
  coefficients, Hamiltonians, spectra, dual tables).

The config file is the whole run, its working precision included; the
command line only names the config and, with ``--out``, where the output
goes.

Exit status: 0 all checks passed, 1 a verification failed, 2 bad
configuration (an unwritable ``--out`` included, and a float suite or the
hamiltonian table where mpmath cannot be imported) or inadmissible
parameters.  A ``verify`` report path is checked before any suite runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .errors import ConfigError, DualRacahError, InadmissibleParams
from .report import (
    TABLE_KINDS, emit_tables, load_config, run_suite, write_report,
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualracah",
        description="Exact verification lab for multi-indexed (q-)Racah systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON run config")

    vp = sub.add_parser("verify", parents=[common], help="run verification suites")
    vp.add_argument("--out", default=None,
                    help="path of the JSON report (default: standard output)")
    tp = sub.add_parser("tables", parents=[common], help="emit data tables")
    tp.add_argument("--out", default=None,
                    help="directory for the CSV/JSON tables (default: current directory)")
    tp.add_argument("--what", required=True, choices=TABLE_KINDS,
                    help="which table to emit")
    return ap


def _check_writable(path: str) -> None:
    """Open the report path for appending, then remove it again if it did
    not exist, so a failed run leaves no empty report behind."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as e:
        raise ConfigError(f"cannot write report: {e}") from e
    if not existed:
        os.remove(path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "verify":
            if args.out:
                _check_writable(args.out)
            report, ok = run_suite(cfg)
            if args.out:
                try:
                    write_report(report, args.out)
                except OSError as e:
                    raise ConfigError(f"cannot write report: {e}") from e
                print(f"report written to {args.out}", file=sys.stderr)
            else:
                json.dump(report, sys.stdout, indent=2, sort_keys=True)
                sys.stdout.write("\n")
            return 0 if ok else 1

        try:
            paths = emit_tables(cfg, args.what, args.out or ".")
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
