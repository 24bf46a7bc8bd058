"""Continuity of the q-family toward the additive family as q -> 1.

For a rational additive parameter tuple (-N, b, c, d), the matched q-tuple
is (q^-N, q^b, q^c, q^d).  As q approaches 1 the normalized polynomial
tables of the q-family converge entrywise to the additive ones.  This
module drives the very same determinant formulas with high-precision
binary floats instead of rationals and measures the entrywise gap on a
ladder q = 1 - 10^-k.

The float base columns of those formulas, the O(N^3) terminating q-sum,
live here (``QSumColumns``, handed to ``multiindexed.GridTable``, which
stays float-free): they run on raw ``mpmath.libmp`` tuples, each
operation in the order, at the precision and with the rounding of the
mpf sum, so every value is the mpf one bit for bit.  The Casoratians
stay on mpf: one elimination per x carries every n
(``GridTable.pdn_column``).

The ladder (`ladder_tables`, one float P table per k, as raw
(sign, mantissa, exponent, bit count) tuples) needs only the parameters,
D and the precision, and feeds nothing else, so a `Ladder` can compute it
in one forked worker while the exact suites run.  It forks where
`os.fork` exists, more than one CPU is available to the process and no
other thread runs; otherwise the same function runs inline when the
tables are first read.  The worker computes every table, then sends them
all in one marshal record, which the reader takes to EOF and decodes from
bytes; both routes hand over the same raw tables, so they give the same
bits.  The reference table, the dual ratio tables P_n(x)/P_0(x) and the
gaps are formed on raw tuples too, where the gaps are taken; only the
gaps become mpf.  The exact reference is always the caller's own built
system.
"""

from __future__ import annotations

import marshal
import os
import threading
import time
from typing import Iterator, NamedTuple, Sequence, Tuple

import mpmath
from mpmath.libmp import (
    fone,
    from_int,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sub,
    round_nearest,
)

from . import errors
from .bigreal import real_tuple, to_real
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
            a=q ** to_real(-p_r.N, precision),
            b=q ** to_real(p_r.b, precision),
            c=q ** to_real(p_r.c, precision),
            d=q ** to_real(p_r.d, precision),
            q=q,
        )


def _ipow(u: tuple, k: int, prec: int) -> tuple:
    """``params.ipow`` on a raw tuple: u**k, and 1/u**(-k) for k < 0."""
    if k >= 0:
        return mpf_pow_int(u, k, prec, round_nearest)
    return mpf_rdiv_int(1, mpf_pow_int(u, -k, prec, round_nearest), prec, round_nearest)


def _one_minus(u: tuple, v: tuple, prec: int) -> tuple:
    """1 - u*v on raw tuples."""
    return mpf_sub(fone, mpf_mul(u, v, prec, round_nearest), prec, round_nearest)


class QSumColumns:
    """Float base values P_0(y)..P_N(y) of a q-family tuple, filled one
    column (one y, on or off the grid) at a time, for ``GridTable``.

    The terminating q-sum of ``basefamily.racah_value``, with its k, (n, k)
    and (y, k) factors each formed once and combined in the sum's own
    operation order, term = ((term * ((f * y0) * y1)) / den_k) * q, then
    total + term, on raw tuples: every value equals ``racah_value``'s bit
    for bit.  The working precision is read once, when the instance is
    made; use it only inside that precision.  Each entry is returned as an
    mpf, for ``GridTable.pdn_column``.
    """

    def __init__(self, p: ParamSet):
        if p.family == R:
            raise InadmissibleParams("float base columns are filled for the q-family only")
        N, prec = p.N, mpmath.mp.prec
        a, b, c, q, dt = p.a._mpf_, p.b._mpf_, p.c._mpf_, p.q._mpf_, p.dtilde._mpf_
        self._prec, self._q, self._d = prec, q, p.d._mpf_
        self._qk = qk = [fone]  # q^k, k < N, by repeated products as in the sum
        while len(qk) < N:
            qk.append(mpf_mul(qk[-1], q, prec, round_nearest))
        self._den = []
        for u in qk:
            den = mpf_mul(_one_minus(a, u, prec), _one_minus(b, u, prec), prec, round_nearest)
            den = mpf_mul(den, _one_minus(c, u, prec), prec, round_nearest)
            self._den.append(mpf_mul(den, _one_minus(u, q, prec), prec, round_nearest))
        self._nk = []
        for n in range(N + 1):
            qmn, dtqn = _ipow(q, -n, prec), mpf_mul(dt, _ipow(q, n, prec), prec, round_nearest)
            self._nk.append([
                mpf_mul(_one_minus(qmn, u, prec), _one_minus(dtqn, u, prec), prec, round_nearest)
                for u in qk[:n]
            ])

    def column(self, y: int) -> tuple:
        """(P_0(y), ..., P_N(y))."""
        prec, rnd, q = self._prec, round_nearest, self._q
        mul, div, add = mpf_mul, mpf_div, mpf_add
        qmx, dqx = _ipow(q, -y, prec), mul(self._d, _ipow(q, y, prec), prec, rnd)
        yk = [(_one_minus(qmx, u, prec), _one_minus(dqx, u, prec)) for u in self._qk]
        make = mpmath.mp.make_mpf
        col = []
        for nk in self._nk:
            term = total = fone
            for f, (y0, y1), den in zip(nk, yk, self._den):
                term = mul(div(mul(term, mul(mul(f, y0, prec, rnd), y1, prec, rnd), prec, rnd),
                               den, prec, rnd), q, prec, rnd)
                total = add(total, term, prec, rnd)
            col.append(make(total))
        return tuple(col)


def float_tables(p: ParamSet, D: Sequence[int], precision: int):
    """Normalized polynomial table P[n][x] in floats (mpf), built one x at
    a time (``GridTable.pdn_column``) and transposed."""
    with mpmath.workprec(precision):
        tab = GridTable(D, p, QSumColumns)
        columns = [tab.pdn_column(x) for x in range(p.N + 1)]
    return [list(row) for row in zip(*columns)]


#: exponents k of the ladder q = 1 - 10^-k
LADDER_KS = (3, 4, 5, 6)


def ladder_tables(p_r: ParamSet, D: Sequence[int], precision: int) -> Iterator[list]:
    """The float P table of the matched q-tuple at each k in LADDER_KS, one
    at a time, each entry its raw tuple (``_raw``)."""
    for k in LADDER_KS:
        table = float_tables(matched_q_params(p_r, k, precision), D, precision)
        yield [[_raw(v) for v in row] for row in table]


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


def _compute(args) -> tuple:
    """(every table of ``ladder_tables(*args)``, their compute seconds):
    the ladder's one compute path, in the worker and inline."""
    t0 = time.perf_counter()
    tables = list(ladder_tables(*args))
    return tables, time.perf_counter() - t0


def _send_ladder(args, f) -> None:
    """The worker's one marshal record on f: ("done", raw tables, compute
    seconds), or ("error", class name, message).
    Every table is computed before the record is written, so the worker
    does not wait for its reader while work is left."""
    try:
        tables, seconds = _compute(args)
    except Exception as e:
        marshal.dump(("error", type(e).__name__, str(e)), f)
        return
    marshal.dump(("done", tables, seconds), f)


def _record(data: bytes):
    """The worker's record decoded from its bytes, or None where the data
    ends early or is not a record of the shape ``_send_ladder`` writes."""
    try:
        record = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        return None
    if type(record) is not tuple or len(record) != 3:
        return None
    kind, first, second = record
    if kind == "done" and type(first) is list and len(first) == len(LADDER_KS):
        return record if type(second) is float else None
    if kind == "error" and type(first) is str and type(second) is str:
        return record
    return None


class Ladder:
    """The P tables of `ladder_tables(p_r, D, precision)`.

    `start` forks one worker that computes them (where the process may
    fork and has a second CPU); `tables` returns them, one per k, as raw
    tuples, read from the worker's one record or, if no worker was
    started, computed inline by the same ``_compute``; `close` kills and
    reaps a worker that was not read.  The worker always ends in
    `os._exit`; a library error in it comes back as its class name and
    message and is raised again by `tables`, and a record that ends early
    or is malformed raises DualRacahError.  `route` and `compute_s` (the
    ladder's own compute time, set when the tables are read) describe the
    run; `precision` is the tables' working precision."""

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

    def tables(self) -> list:
        tables, self.compute_s = self._result() if self._pid is not None else _compute(self._args)
        return tables

    def _result(self) -> tuple:
        """The worker's (tables, compute seconds), read to EOF once it has
        ended and reaped; raises where it failed."""
        data = self._pipe.read()  # to EOF, before the wait
        self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        self._pid = self._pipe = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise DualRacahError(f"the q->1 ladder worker ended without a result ({how})")
        record = _record(data)
        if record is None:
            raise DualRacahError(
                f"the q->1 ladder worker ended without a result ({len(data)} bytes of"
                " data that are not one record)"
            )
        kind, first, second = record
        if kind == "error":
            cls = getattr(errors, first, None)
            if isinstance(cls, type) and issubclass(cls, DualRacahError):
                raise cls(second)
            raise DualRacahError(f"the q->1 ladder worker raised {first}: {second}")
        return first, second

    def close(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self._pid is not None:
            import signal  # here: only a run that forked pays for the module

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _ratios(pdn, prec: int) -> list:
    """The dual ratio table P_n(x)/P_0(x) of a raw P table, in its [n][x]
    order."""
    return [[mpf_div(v, v0, prec, round_nearest) for v, v0 in zip(row, pdn[0])] for row in pdn]


def _gap(table, ref, prec: int) -> tuple:
    """The largest entrywise |table - ref| of raw tables; of equal maxima
    the first, as ``max`` keeps it."""
    gap = None
    for row, ref_row in zip(table, ref):
        for v, r in zip(row, ref_row):
            d = mpf_abs(mpf_sub(v, r, prec, round_nearest), prec, round_nearest)
            if gap is None or mpf_lt(gap, d):
                gap = d
    return gap


class QLimitReport(NamedTuple):
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
    prec = ladder.precision
    ref_p = [[real_tuple(v, prec) for v in row] for row in s.pdn_grid]
    ref_q = _ratios(ref_p, prec)
    p_gaps, q_gaps = [], []
    for pdn in ladder.tables():
        p_gaps.append(_gap(pdn, ref_p, prec))
        q_gaps.append(_gap(_ratios(pdn, prec), ref_q, prec))
    ten = from_int(10, prec, round_nearest)
    within = all(
        mpf_lt(g, mpf_pow_int(ten, -k + 2, prec, round_nearest))
        for gaps in (p_gaps, q_gaps)
        for k, g in zip(LADDER_KS, gaps)
    )
    mono = all(
        mpf_lt(gaps[i + 1], gaps[i])
        for gaps in (p_gaps, q_gaps)
        for i in range(len(gaps) - 1)
    )
    make = mpmath.mp.make_mpf
    return QLimitReport(
        ks=LADDER_KS,
        p_gaps=tuple(map(make, p_gaps)),
        q_gaps=tuple(map(make, q_gaps)),
        within_tolerance=within,
        monotone=mono,
        precision=prec,
    )
