"""Continuity of the q-family toward the additive family as q -> 1.

For a rational additive parameter tuple (-N, b, c, d), the matched q-tuple
is (q^-N, q^b, q^c, q^d).  As q approaches 1 the normalized polynomial
tables of the q-family converge entrywise to the additive ones.  This
module drives the very same determinant formulas with high-precision
binary floats instead of rationals and measures the entrywise gap on a
ladder q = 1 - 10^-k.

The float tables run on raw ``mpmath.libmp`` tuples from start to
finish, in the design of ``multiindexed.GridTable`` (which takes exact
tuples only): the O(N^3) terminating q-sum (``QSumColumns``) fills the
base columns and, at the twisted tuple and the degrees in D only, the
virtual-state values; r_j(x), varphi, C_(D,n) and the energy pairs are
formed once per table, each power of q once (``_FloatCasoratian``); one
elimination per x carries every n (``_leading_dets``), and each entry is
divided once.  Every operation keeps the order, the precision and the
rounding of the per-entry mpf formulas, so every value is theirs bit for
bit: the printed gaps pin that rounding.  Those formulas live in the
tests as oracles.  A q-sum stops at its first term that is exactly zero,
since every later term is zero too (the sum terminates on the grid).

The ladder (`ladder_tables`, one float P table per k, as raw
(sign, mantissa, exponent, bit count) tuples) needs only the parameters,
D and the precision, and feeds nothing else, so a `Ladder` can compute it
in one forked worker while the exact suites run.  It forks where
`os.fork` exists, more than one CPU is available to the process and no
other thread runs; otherwise the same function runs inline when the
tables are first read.  The worker computes every table, then sends them
all in one marshal record, which the reader takes to EOF and decodes from
bytes; both routes hand over the same raw tables, so they give the same
bits.  ``Ladder.wait_s`` is how long the reader blocked on the worker (0
inline).  The reference table, the dual ratio tables P_n(x)/P_0(x) and the
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
    fzero,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sub,
    round_nearest,
)

from . import errors
from .bigreal import real_tuple, to_real
from .multiindexed import MISystem
from .params import QR, ParamSet, R
from .errors import DualRacahError, InadmissibleParams, ZeroDenominator


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


class _Powers(dict):
    """q^k on raw tuples (``_ipow``), each k made once, on first use."""

    def __init__(self, q: tuple, prec: int):
        super().__init__()
        self._q, self._prec = q, prec

    def __missing__(self, k: int) -> tuple:
        v = self[k] = _ipow(self._q, k, self._prec)
        return v


class QSumColumns:
    """Float base values P_n(y) of a q-family tuple (mpf entries) at the
    degrees n in ``degrees`` (default 0..N), filled one column (one y, on
    or off the grid) at a time, at ``prec`` bits.

    The terminating q-sum of ``basefamily.racah_value``, with its k, (n, k)
    and (y, k) factors each formed once and combined in the sum's own
    operation order, term = ((term * ((f * y0) * y1)) / den_k) * q, then
    total + term, on raw tuples: every value equals ``racah_value``'s bit
    for bit, at any degree, also above N.  A sum ends at its first term
    that is exactly zero, since every later one is zero too and adds
    nothing (on the grid 1 - q^-y q^k often rounds to 0 at k = y, where
    (q^-y; q)_k vanishes); a denominator that rounds to zero raises
    ZeroDenominator.  ``powers`` holds the powers of q (``_Powers``) and
    may be shared with other tables of the same q.
    """

    def __init__(self, p: ParamSet, prec: int, degrees: Sequence[int] = None, powers=None):
        if p.family == R:
            raise InadmissibleParams("float base columns are filled for the q-family only")
        a, b, c, d, q = (v._mpf_ for v in (p.a, p.b, p.c, p.d, p.q))
        degrees = range(p.N + 1) if degrees is None else degrees
        pw = _Powers(q, prec) if powers is None else powers
        dt = mpf_div(mpf_mul(mpf_mul(a, b, prec, round_nearest), c, prec, round_nearest),
                     mpf_mul(d, q, prec, round_nearest), prec, round_nearest)
        self._prec, self._q, self._d, self._pw = prec, q, d, pw
        self._qk = qk = [fone]  # q^k below the top degree, by repeated products as in the sum
        while len(qk) < max(degrees, default=0):
            qk.append(mpf_mul(qk[-1], q, prec, round_nearest))
        self._den = []
        for k, u in enumerate(qk):
            den = mpf_mul(_one_minus(a, u, prec), _one_minus(b, u, prec), prec, round_nearest)
            den = mpf_mul(den, _one_minus(c, u, prec), prec, round_nearest)
            den = mpf_mul(den, _one_minus(u, q, prec), prec, round_nearest)
            if den == fzero:
                raise ZeroDenominator(f"the q-sum's denominator vanishes at k={k}")
            self._den.append(den)
        self._nk = []
        for n in degrees:
            qmn, dtqn = pw[-n], mpf_mul(dt, pw[n], prec, round_nearest)
            self._nk.append([
                mpf_mul(_one_minus(qmn, u, prec), _one_minus(dtqn, u, prec), prec, round_nearest)
                for u in qk[:n]
            ])

    def column(self, y: int) -> tuple:
        """(P_n(y) for n in degrees), raw tuples."""
        prec, rnd, q, pw = self._prec, round_nearest, self._q, self._pw
        mul, div, add = mpf_mul, mpf_div, mpf_add
        qmx, dqx = pw[-y], mul(self._d, pw[y], prec, rnd)
        yk = [(_one_minus(qmx, u, prec), _one_minus(dqx, u, prec)) for u in self._qk]
        col = []
        for nk in self._nk:
            term = total = fone
            for f, (y0, y1), den in zip(nk, yk, self._den):
                term = mul(div(mul(term, mul(mul(f, y0, prec, rnd), y1, prec, rnd), prec, rnd),
                               den, prec, rnd), q, prec, rnd)
                if term == fzero:  # so is every later term: the sum ends
                    break
                total = add(total, term, prec, rnd)
            col.append(total)
        return tuple(col)


def _leading_dets(rows, prec: int) -> list:
    """The Gaussian ``bordered_dets`` on raw tuples: the n-1 leading
    columns eliminated once, first nonzero entry as pivot, every further
    column carried through the same steps (multiplier row[k]/top[k], then
    v - f*t), the last pivot multiplied onto the running product last and
    the sign applied as an integer product, so each determinant rounds as
    one elimination of the whole matrix with that column last.  A leading
    column without a pivot makes every one zero."""
    rnd, mul, sub = round_nearest, mpf_mul, mpf_sub
    m = [list(r) for r in rows]
    n = len(m)
    sign, product = 1, None
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k] != fzero), None)
        if pivot is None:
            return [fzero] * (len(m[0]) - n + 1)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        tail = top[k + 1:]
        for row in m[k + 1:]:
            f = mpf_div(row[k], top[k], prec, rnd)
            row[k + 1:] = [sub(v, mul(f, t, prec, rnd), prec, rnd)
                           for v, t in zip(row[k + 1:], tail)]
        product = top[k] if product is None else mul(product, top[k], prec, rnd)
    last = m[-1][n - 1:]
    if product is not None:
        last = [mul(product, v, prec, rnd) for v in last]
    return [mpf_mul_int(v, sign, prec, rnd) for v in last]


def _poch_prefix(u: tuple, n: int, powers: _Powers, prec: int) -> list:
    """(u; q)_i for i = 0..n on raw tuples, from 1, each the one before
    times 1 - u*q^(i-1): the q-Pochhammer symbol's products from the left,
    so one list serves every length up to n."""
    out = [fone]
    for i in range(n):
        out.append(mpf_mul(out[-1], _one_minus(u, powers[i], prec), prec, round_nearest))
    return out


class _FloatCasoratian:
    """The grid values P_(D,n)(x) of a float q-family tuple, on raw tuples
    at ``prec`` bits: the design of ``multiindexed.GridTable`` for floats.

    Each piece is formed once per table, every operation in the order and
    at the rounding of the per-entry formulas, which the printed q->1 gaps
    pin (their mpf forms are the tests' oracles): the powers of q
    (``_Powers``); the base columns and, from the same q-sum at the twisted
    tuple (dq/a, dq/b, c, d), the virtual-state values xi_(d_k)(y), filled
    at the degrees in D only (``QSumColumns``); the prefix products of the
    Pochhammer symbols of r_j(x); the factors of varphi_m(x); the energy
    pairs (etilde_(d_j), alpha*B'(j)) and with them C_D and every C_(D,n).
    ``column(x)`` is one elimination that carries every n
    (``_leading_dets``), then one division per entry.
    """

    def __init__(self, p: ParamSet, D: Sequence[int], prec: int):
        rnd, mul, div, sub = round_nearest, mpf_mul, mpf_div, mpf_sub
        a, b, c, d, q = (v._mpf_ for v in (p.a, p.b, p.c, p.d, p.q))
        self.prec, self.M = prec, len(D)
        self._a, self._b, self._c, self._d, self._q = a, b, c, d, q
        self._pw = pw = _Powers(q, prec)
        dq = mul(d, q, prec, rnd)
        ta, tb = div(dq, a, prec, rnd), div(dq, b, prec, rnd)
        make = mpmath.mp.make_mpf
        self._base = QSumColumns(p, prec, powers=pw)
        self._xi = QSumColumns(p._replace(a=make(ta), b=make(tb)), prec, D, pw)
        self._columns, self._pochs, self._varphis = {}, {}, {}
        al = div(mul(a, b, prec, rnd), dq, prec, rnd)  # alpha = ab/(dq)
        dt = div(mul(mul(a, b, prec, rnd), c, prec, rnd), dq, prec, rnd)
        M = self.M
        # r_j(x)'s denominator: (ab/(dq))^(j-1) q^(Mx) (dq/a; q)_M (dq/b; q)_M
        self._alpha_powers = [mpf_pow_int(al, j, prec, rnd) for j in range(M + 1)]
        self._qa, self._qb = (_poch_prefix(u, M, pw, prec)[M] for u in (ta, tb))
        pairs = []
        for j, dj in enumerate(D):
            et = mul(mpf_neg(_one_minus(c, pw[dj], prec), prec, rnd),
                     sub(fone, div(mul(dt, pw[-dj], prec, rnd), c, prec, rnd), prec, rnd),
                     prec, rnd)
            pairs.append((et, mul(al, self._bprime(j), prec, rnd)))
        cd = div(fone, self._varphi(0, M), prec, rnd)
        for j, (et, alb) in enumerate(pairs):
            for et_k, _ in pairs[j + 1:]:
                cd = div(mul(cd, sub(et, et_k, prec, rnd), prec, rnd), alb, prec, rnd)
        ratio = div(self._varphi(0, M), self._varphi(0, M + 1), prec, rnd)
        signed = mpf_mul_int(cd, (-1) ** M, prec, rnd)
        self._cdn = []
        for n in range(p.N + 1):
            en = mul(sub(pw[-n], fone, prec, rnd), _one_minus(dt, pw[n], prec), prec, rnd)
            acc = ratio
            for et, alb in pairs:
                acc = div(mul(acc, sub(en, et, prec, rnd), prec, rnd), alb, prec, rnd)
            self._cdn.append(mul(signed, acc, prec, rnd))

    def _bprime(self, x: int) -> tuple:
        """B'(x), the potential B at the twisted tuple, by its per-family
        formula: -(1 - dq^x q/a)(1 - dq^x q/b)(1 - cq^x)(1 - dq^x) over
        (1 - dq^(2x))(1 - dq^(2x+1))."""
        prec, rnd, mul, div, pw = self.prec, round_nearest, mpf_mul, mpf_div, self._pw
        dqx = mul(self._d, pw[x], prec, rnd)
        dqxq = mul(dqx, self._q, prec, rnd)
        num = mpf_neg(mpf_sub(fone, div(dqxq, self._a, prec, rnd), prec, rnd), prec, rnd)
        num = mul(num, mpf_sub(fone, div(dqxq, self._b, prec, rnd), prec, rnd), prec, rnd)
        num = mul(num, _one_minus(self._c, pw[x], prec), prec, rnd)
        num = mul(num, mpf_sub(fone, dqx, prec, rnd), prec, rnd)
        den = mul(_one_minus(self._d, pw[2 * x], prec), _one_minus(self._d, pw[2 * x + 1], prec),
                  prec, rnd)
        if num == fzero:
            return num
        if den == fzero:
            raise ZeroDenominator(f"potential Bprime denominator vanishes at x={x}")
        return div(num, den, prec, rnd)

    def _varphi(self, x: int, m: int) -> tuple:
        """varphi_m(x): 1, times each factor varphi(x+j-1) at the shifted
        tuple lambda + (k-j-1)*delta, j < k, for k = 2..m in turn."""
        acc = fone
        for k in range(2, m + 1):
            for j in range(1, k):
                acc = mpf_mul(acc, self._varphi_factor(x + j - 1, k - j - 1), self.prec,
                              round_nearest)
        return acc

    def _varphi_factor(self, y: int, i: int) -> tuple:
        """(q^-y - d_i q^(y+1)) / (1 - d_i q) with d_i = d q^i, the d of
        lambda + i*delta."""
        key = (y, i)
        if key not in self._varphis:
            prec, rnd, pw = self.prec, round_nearest, self._pw
            di = mpf_mul(self._d, pw[i], prec, rnd)
            num = mpf_sub(pw[-y], mpf_mul(di, pw[y + 1], prec, rnd), prec, rnd)
            self._varphis[key] = mpf_div(num, _one_minus(di, self._q, prec), prec, rnd)
        return self._varphis[key]

    def _sums(self, y: int) -> tuple:
        """(xi_(d_k)(y) for k = 1..M, P_n(y) for n = 0..N)."""
        if y not in self._columns:
            self._columns[y] = (self._xi.column(y), self._base.column(y))
        return self._columns[y]

    def _pochs_of(self, key: tuple) -> tuple:
        """The Pochhammer prefix products (``_poch_prefix``) of
        (a q^x, b q^x) for key ("x", x), of (d q^s/a, d q^s/b) for key
        ("s", s)."""
        if key not in self._pochs:
            prec, rnd, (kind, e) = self.prec, round_nearest, key
            qe = self._pw[e]
            if kind == "x":
                us = mpf_mul(self._a, qe, prec, rnd), mpf_mul(self._b, qe, prec, rnd)
            else:
                dqe = mpf_mul(self._d, qe, prec, rnd)
                us = mpf_div(dqe, self._a, prec, rnd), mpf_div(dqe, self._b, prec, rnd)
            self._pochs[key] = tuple(_poch_prefix(u, self.M, self._pw, prec) for u in us)
        return self._pochs[key]

    def rj(self, j: int, x: int) -> tuple:
        """r_j(x) = (aq^x; q)_(j-1) (bq^x; q)_(j-1) (dq^(x+j)/a; q)_(M+1-j)
        (dq^(x+j)/b; q)_(M+1-j) over (ab/(dq))^(j-1) q^(Mx) (dq/a; q)_M
        (dq/b; q)_M, each product from the left."""
        prec, rnd, mul, M = self.prec, round_nearest, mpf_mul, self.M
        pa, pb = self._pochs_of(("x", x))
        sa, sb = self._pochs_of(("s", x + j))
        num = mul(mul(mul(pa[j - 1], pb[j - 1], prec, rnd), sa[M + 1 - j], prec, rnd),
                  sb[M + 1 - j], prec, rnd)
        den = mul(mul(mul(self._alpha_powers[j - 1], self._pw[M * x], prec, rnd), self._qa,
                      prec, rnd), self._qb, prec, rnd)
        return mpf_div(num, den, prec, rnd)

    def column(self, x: int) -> list:
        """P_(D,n)(x), n = 0..N: row j of the bordered Casoratian is the
        virtual-state values at x+j-1, then r_j(x) P_n(x+j-1) for every n;
        each determinant over C_(D,n) varphi_(M+1)(x)."""
        prec, rnd, mul, M = self.prec, round_nearest, mpf_mul, self.M
        rows = []
        for j in range(1, M + 2):
            r = self.rj(j, x)
            xi, base = self._sums(x + j - 1)
            rows.append(list(xi) + [mul(r, v, prec, rnd) for v in base])
        phi = self._varphi(x, M + 1)
        return [mpf_div(det, mul(cdn, phi, prec, rnd), prec, rnd)
                for det, cdn in zip(_leading_dets(rows, prec), self._cdn)]


def float_tables(p: ParamSet, D: Sequence[int], precision: int) -> list:
    """Normalized polynomial table P[n][x] of a float q-family tuple, raw
    tuples at ``precision`` bits, built one x at a time
    (``_FloatCasoratian.column``) and transposed."""
    tab = _FloatCasoratian(p, tuple(D), precision)
    return [list(row) for row in zip(*(tab.column(x) for x in range(p.N + 1)))]


#: exponents k of the ladder q = 1 - 10^-k
LADDER_KS = (3, 4, 5, 6)


def ladder_tables(p_r: ParamSet, D: Sequence[int], precision: int) -> Iterator[list]:
    """The float P table of the matched q-tuple at each k in LADDER_KS, one
    at a time, each entry a raw tuple that marshal can write (``_raw``)."""
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


def _raw(v: tuple) -> tuple:
    """A raw tuple with its mantissa a Python int (mpmath may hold a gmpy2
    integer there, which marshal cannot write)."""
    sign, man, exp, bc = v
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
    or is malformed raises DualRacahError.  `route`, `compute_s` (the
    ladder's own compute time) and `wait_s` (how long reading the tables
    blocked on the worker; 0 inline), both set when the tables are read,
    describe the run; `precision` is the tables' working precision."""

    def __init__(self, p_r: ParamSet, D: Sequence[int], precision: int):
        self._args = (p_r, tuple(D), precision)
        self.precision = precision
        self.route = "inline"
        self.compute_s = self.wait_s = None
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
        if self._pid is not None:
            tables, self.compute_s = self._result()
        else:
            (tables, self.compute_s), self.wait_s = _compute(self._args), 0.0
        return tables

    def _result(self) -> tuple:
        """The worker's (tables, compute seconds), read to EOF once it has
        ended and reaped; raises where it failed.  Sets ``wait_s``."""
        t0 = time.perf_counter()
        data = self._pipe.read()  # to EOF, before the wait
        self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        self.wait_s = time.perf_counter() - t0
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
