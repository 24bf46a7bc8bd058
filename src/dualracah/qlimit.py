"""Continuity of the q-family toward the additive family as q -> 1.

For a rational additive parameter tuple (-N, b, c, d), the matched q-tuple
is (q^-N, q^b, q^c, q^d).  As q approaches 1 the normalized polynomial
tables of the q-family converge entrywise to the additive ones.  This
module drives the very same determinant formulas with high-precision
binary floats instead of rationals and measures the entrywise gap on a
ladder q = 1 - 10^-k.

The ladder (`ladder_tables`, one float P table per k) needs only the
parameters, D and the precision, and feeds nothing else, so a `Ladder`
can compute it in one forked worker while the exact suites run.  It forks
where `os.fork` exists, more than one CPU is available to the process and
no other thread runs; otherwise the same function runs inline when the
tables are first read.  The worker sends each float back as its raw
(sign, mantissa, exponent, bit count) tuple, so both routes give the same
bits.  The dual ratio table P_n(x)/P_0(x) is formed from the P table only
where the gaps are taken.  The exact reference is always the caller's own
built system.
"""

from __future__ import annotations

import marshal
import os
import threading
import time
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import mpmath

from . import errors
from .bigreal import to_real
from .multiindexed import GridTable, MISystem
from .params import QR, ParamSet, R
from .errors import DualRacahError, InadmissibleParams


def matched_q_params(p_r: ParamSet, k: int, precision: int) -> ParamSet:
    """The q-family tuple (q^-N, q^b, q^c, q^d) at q = 1 - 10^-k, in floats."""
    if p_r.family != R or not p_r.is_exact():
        raise InadmissibleParams("the q->1 reference must be an exact additive-family tuple")
    with mpmath.workprec(precision):
        q = 1 - mpmath.mpf(10) ** (-k)
        return ParamSet(
            QR,
            p_r.N,
            a=q ** to_real(-p_r.N + q * 0, precision),
            b=q ** to_real(p_r.b, precision),
            c=q ** to_real(p_r.c, precision),
            d=q ** to_real(p_r.d, precision),
            q=q,
        )


def float_tables(p: ParamSet, D: Sequence[int], precision: int):
    """Normalized polynomial table P[n][x] in floats."""
    N = p.N
    with mpmath.workprec(precision):
        tab = GridTable(D, p)
        return [[tab.pdn(n, x) for x in range(N + 1)] for n in range(N + 1)]


#: exponents k of the ladder q = 1 - 10^-k
LADDER_KS = (3, 4, 5, 6)


def ladder_tables(p_r: ParamSet, D: Sequence[int], precision: int) -> Iterator[list]:
    """The float P table of the matched q-tuple at each k in LADDER_KS, one
    at a time."""
    for k in LADDER_KS:
        yield float_tables(matched_q_params(p_r, k, precision), D, precision)


def _forks() -> bool:
    """Whether to fork: a second CPU is available to the process, and no
    other thread runs, whose locks a forked child could inherit held."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _raw(v) -> tuple:
    """The raw tuple of an mpf, its mantissa a Python int (mpmath may hold
    a gmpy2 integer there, which marshal cannot write)."""
    sign, man, exp, bc = v._mpf_
    return sign, int(man), exp, bc


def _send_ladder(args, f) -> None:
    """The worker's frames on f, one marshal record each: ("table", raw
    table) for each k, then ("done", compute seconds); or ("error", class
    name, message) alone.
    Every table is computed before the first is written, so the worker
    does not wait for its reader while work is left."""
    t0 = time.perf_counter()
    try:
        tables = [[[_raw(v) for v in row] for row in t] for t in ladder_tables(*args)]
    except Exception as e:
        marshal.dump(("error", type(e).__name__, str(e)), f)
        return
    seconds = time.perf_counter() - t0
    for t in tables:
        marshal.dump(("table", t), f)
    marshal.dump(("done", seconds), f)


class Ladder:
    """The P tables of `ladder_tables(p_r, D, precision)`.

    `start` forks one worker that computes them (where the process may
    fork and has a second CPU); `tables` yields them one at a time, read
    from the worker or, if no worker was started, computed inline; `close`
    kills and reaps a worker that was not read to the end.  The worker
    always ends in `os._exit`; a library error in it comes back as its
    class name and message and is raised again by `tables`.  `route` and
    `compute_s` (the ladder's own compute time, set once the last table is
    read) describe the run; `precision` is the tables' working precision."""

    def __init__(self, p_r: ParamSet, D: Sequence[int], precision: int):
        self._args = (p_r, tuple(D), precision)
        self.precision = precision
        self.route = "inline"
        self.compute_s = None
        self._pid = self._pipe = None

    def start(self) -> None:
        if not _forks():
            return
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the ladder runs inline
            os.close(r)
            os.close(w)
            return
        if pid == 0:
            status = 1
            try:
                os.close(r)
                with open(w, "wb") as f:
                    _send_ladder(self._args, f)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self._pid, self._pipe, self.route = pid, open(r, "rb"), "worker"

    def tables(self) -> Iterator[list]:
        if self._pid is not None:
            yield from self._read()
            return
        self.compute_s, t0 = 0.0, time.perf_counter()
        for table in ladder_tables(*self._args):
            self.compute_s += time.perf_counter() - t0
            yield table
            t0 = time.perf_counter()

    def _frame(self):
        """The worker's next frame, or None where its data ends early."""
        try:
            return marshal.load(self._pipe)
        except (EOFError, ValueError, TypeError):
            return None

    def _read(self) -> Iterator[list]:
        frame = self._frame()
        while frame is not None and frame[0] == "table":
            with mpmath.workprec(self._args[2]):
                table = [[mpmath.mpf(t) for t in row] for row in frame[1]]
            yield table
            frame = self._frame()
        self._pipe.read()  # to EOF, before the wait
        self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        self._pid = self._pipe = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise DualRacahError(f"the q->1 ladder worker ended without a result ({how})")
        if frame[0] == "error":
            _, name, message = frame
            cls = getattr(errors, name, None)
            if isinstance(cls, type) and issubclass(cls, DualRacahError):
                raise cls(message)
            raise DualRacahError(f"the q->1 ladder worker raised {name}: {message}")
        self.compute_s = frame[1]

    def close(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self._pid is not None:
            import signal  # here: only a run that forked pays for the module

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _ratios(pdn) -> list:
    """The dual ratio table P_n(x)/P_0(x) of a P table, in its [n][x] order."""
    return [[v / v0 for v, v0 in zip(row, pdn[0])] for row in pdn]


def _gap(table, ref):
    """The largest entrywise |table - ref|."""
    return max(abs(v - r) for row, ref_row in zip(table, ref) for v, r in zip(row, ref_row))


@dataclass
class QLimitReport:
    ks: Tuple[int, ...]
    p_gaps: Tuple          # max entrywise |q-family - additive| of the P table, per k
    q_gaps: Tuple          # same for the dual ratio table
    within_tolerance: bool  # gap < 10^(-k+2) at every k
    monotone: bool          # both gap sequences strictly decreasing in k
    precision: int


def qlimit_check(s: MISystem, ladder: Ladder) -> QLimitReport:
    """Gap ladder of the q-family tables against the built additive system s,
    at q = 1 - 10^-k for k in LADDER_KS, at the ladder's precision.
    `ladder` holds the float tables for (s.params, s.D), built by the
    caller at the run's precision."""
    precision = ladder.precision
    with mpmath.workprec(precision):
        ref_p = [[to_real(v, precision) for v in row] for row in s.pdn_grid]
        ref_q = _ratios(ref_p)
        p_gaps, q_gaps = [], []
        for pdn in ladder.tables():
            p_gaps.append(_gap(pdn, ref_p))
            q_gaps.append(_gap(_ratios(pdn), ref_q))
        within = all(
            g < mpmath.mpf(10) ** (-k + 2)
            for gaps in (p_gaps, q_gaps)
            for k, g in zip(LADDER_KS, gaps)
        )
        mono = all(
            gaps[i] > gaps[i + 1]
            for gaps in (p_gaps, q_gaps)
            for i in range(len(gaps) - 1)
        )
    return QLimitReport(
        ks=LADDER_KS,
        p_gaps=tuple(p_gaps),
        q_gaps=tuple(q_gaps),
        within_tolerance=within,
        monotone=mono,
        precision=precision,
    )
