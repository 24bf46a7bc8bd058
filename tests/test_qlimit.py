"""Convergence of the q-family to the additive family as q -> 1."""

import os
import time

import mpmath
import pytest
from mpmath.libmp import fone

from dualracah import qlimit
from dualracah.backend import rat
from dualracah.bigreal import big_sqrt, to_real
from dualracah.errors import InadmissibleParams, NegativeRadicand
from dualracah.multiindexed import build_mi_system
from dualracah.params import QR, R, make_params
from dualracah.qlimit import LADDER_KS, float_tables, matched_q_params, qlimit_check
from dualracah.report import parse_config, run_suite, write_report
from comparators import (
    workprec_big_sqrt,
    workprec_to_real,
    wrapper_float_tables,
    wrapper_qlimit_gaps,
)
from conftest import per_entry_pdn, std_params


def _raw_table(table) -> list:
    """The raw tuples of an mpf table."""
    return [[v._mpf_ for v in row] for row in table]


def _mpf_tables(tables) -> list:
    """Raw tables as mpf tables."""
    return [[[mpmath.mp.make_mpf(v) for v in row] for row in t] for t in tables]


@pytest.mark.parametrize("D", [(), (1,), (1, 2)])
def test_convergence_ladder(D, pipe):
    s = pipe(R, 5, D).system()
    rep = qlimit_check(s, qlimit.Ladder(s.params, s.D, 256))
    assert rep.within_tolerance
    assert rep.monotone
    with mpmath.workprec(rep.precision):
        for k, gap in zip(rep.ks, rep.p_gaps):
            assert gap < mpmath.mpf(10) ** (-k + 2)


def test_matched_tuple_shape():
    p = std_params(R, 4)
    pq = matched_q_params(p, 4, 256)
    with mpmath.workprec(256):
        assert abs(pq.q - (1 - mpmath.mpf(10) ** -4)) < mpmath.mpf(10) ** -70
        assert abs(pq.a * pq.q ** 4 - 1) < mpmath.mpf(10) ** -70
        assert 0 < pq.d < 1


def test_float_tables_normalization():
    p = std_params(R, 4)
    pq = matched_q_params(p, 3, 256)
    pdn = float_tables(pq, (1,), 256)
    with mpmath.workprec(256):
        for n in range(5):
            assert abs(mpmath.mp.make_mpf(pdn[n][0]) - 1) < mpmath.mpf(10) ** -70
        assert qlimit._ratios(pdn, 256)[0] == [fone] * 5


def test_inadmissible_reference_rejected(pipe):
    bad = make_params(R, 5, b=5, c=rat(1, 2), d=rat(2, 5))
    with pytest.raises(InadmissibleParams):
        s = build_mi_system(bad, (1,))
        qlimit_check(s, qlimit.Ladder(s.params, s.D, 256))
    s = pipe(QR, 5, (1,)).system()
    with pytest.raises(InadmissibleParams):
        qlimit_check(s, qlimit.Ladder(s.params, s.D, 256))  # no additive reference


def test_matched_tuple_needs_exact_additive_reference():
    with pytest.raises(InadmissibleParams):
        matched_q_params(std_params(QR, 4), 3, 256)


@pytest.mark.parametrize("D", [(1,), (1, 2), (1, 2, 3)])
def test_float_tables_equal_per_entry_route(D):
    """The raw table route reproduces every float of the per-entry mpf
    route, bit for bit: same rows, same order, same working precision."""
    p = std_params(R, 4)
    pq = matched_q_params(p, 4, 256)
    pdn = float_tables(pq, D, 256)
    with mpmath.workprec(256):
        ratios = qlimit._ratios(pdn, 256)
        want = [[per_entry_pdn(n, x, D, pq) for x in range(5)] for n in range(5)]
        for n in range(5):
            for x in range(5):
                assert pdn[n][x] == want[n][x]._mpf_
                assert ratios[n][x] == (want[n][x] / want[0][x])._mpf_


def test_float_columns_stay_at_their_precision(pipe):
    """qlimit_check at 53, 256 and again 53 bits in one process; after each,
    the float tables of every ladder step equal the per-entry racah_value
    route at that precision: the pieces of one table never reach another
    table or precision."""
    s = pipe(R, 5, (1,)).system()
    D = s.D
    for prec in (53, 256, 53):
        qlimit_check(s, qlimit.Ladder(s.params, D, prec))
        for k in LADDER_KS:
            pq = matched_q_params(s.params, k, prec)
            pdn = float_tables(pq, D, prec)
            with mpmath.workprec(prec):
                want = [[per_entry_pdn(n, x, D, pq)._mpf_ for x in range(6)] for n in range(6)]
            assert pdn == want


def _column_route_gaps(s, tables, precision):
    """The gaps of each float P table against s, formed as before the
    ratio helper: both dual ratio tables in [x][n] order, each gap the max
    over x, then n."""
    N = s.params.N
    with mpmath.workprec(precision):
        ref_p = [
            [to_real(s.pdn_grid[n][x], precision) for x in range(N + 1)] for n in range(N + 1)
        ]
        ref_q = [[ref_p[n][x] / ref_p[0][x] for n in range(N + 1)] for x in range(N + 1)]
        p_gaps, q_gaps = [], []
        for pdn in tables:
            qvals = [[pdn[n][x] / pdn[0][x] for n in range(N + 1)] for x in range(N + 1)]
            p_gaps.append(
                max(abs(pdn[n][x] - ref_p[n][x]) for n in range(N + 1) for x in range(N + 1))
            )
            q_gaps.append(
                max(abs(qvals[x][n] - ref_q[x][n]) for x in range(N + 1) for n in range(N + 1))
            )
    return p_gaps, q_gaps


@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("D", [(), (1,), (1, 2)])
def test_gaps_equal_the_column_route(N, D, pipe):
    """qlimit_check's gaps are, bit for bit, those of the [x][n] column
    route on the same ladder tables."""
    s = pipe(R, N, D).system()
    rep = qlimit_check(s, qlimit.Ladder(s.params, s.D, 256))
    tables = _mpf_tables(qlimit.ladder_tables(s.params, s.D, 256))
    p_gaps, q_gaps = _column_route_gaps(s, tables, 256)
    assert [g._mpf_ for g in rep.p_gaps] == [g._mpf_ for g in p_gaps]
    assert [g._mpf_ for g in rep.q_gaps] == [g._mpf_ for g in q_gaps]


def _qlimit_run(data, tmp_path, monkeypatch):
    """The report bytes of a run of `data`, the QLimitReport of its qlimit
    suite as raw floats, and the route its ladder took."""
    seen = []
    check = qlimit.qlimit_check

    def recorded(s, **kw):
        rep = check(s, **kw)
        seen.append(((rep.ks, [g._mpf_ for g in rep.p_gaps], [g._mpf_ for g in rep.q_gaps],
                      rep.within_tolerance, rep.monotone, rep.precision), kw["ladder"].route))
        return rep

    monkeypatch.setattr(qlimit, "qlimit_check", recorded)
    report, ok = run_suite(parse_config(data))
    assert ok
    write_report(report, str(tmp_path / "report.json"))
    (rep, route), = seen
    return (tmp_path / "report.json").read_bytes(), rep, route


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
@pytest.mark.parametrize("N", [4, 8, 14])
@pytest.mark.parametrize("D", [(), (1,), (1, 2)])
def test_worker_and_inline_routes_agree(N, D, tmp_path, monkeypatch):
    """The ladder computed in the forked worker and inline gives the same
    gaps, bit for bit, and the same report bytes."""
    data = {"family": "R", "N": N, "b": str(N + 5), "c": "1/2", "d": "2/5", "D": list(D),
            "Y": ["1"], "suites": ["qlimit"]}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    worker = _qlimit_run(data, tmp_path, monkeypatch)
    monkeypatch.delattr(os, "fork")
    inline = _qlimit_run(data, tmp_path, monkeypatch)
    assert (worker[2], inline[2]) == ("worker", "inline")
    assert worker[:2] == inline[:2]


@pytest.mark.parametrize("cpus,fork_error", [({0}, None), ({0, 1}, BlockingIOError)],
                         ids=["one-cpu", "fork-fails"])
def test_ladder_runs_inline_without_a_worker(cpus, fork_error, pipe, monkeypatch):
    """With one CPU available start forks nothing; a fork that fails leaves
    no open pipe.  Either way the tables are those of ladder_tables,
    computed on first read."""
    forks = []

    def fork():
        forks.append(1)
        raise fork_error("no process to spare")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", fork)
    s = pipe(R, 4, (1,)).system()
    ladder = qlimit.Ladder(s.params, s.D, 256)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    ladder.start()
    assert len(forks) == (fork_error is not None)
    assert fds is None or len(os.listdir("/proc/self/fd")) == fds
    assert ladder.route == "inline" and ladder.compute_s is None
    assert list(ladder.tables()) == list(qlimit.ladder_tables(s.params, s.D, 256))
    assert ladder.compute_s >= 0
    ladder.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_wait_is_the_time_blocked_on_the_worker(pipe, monkeypatch):
    """wait_s is how long reading the tables blocked on the worker: at
    least the time a slowed worker still needed when they were asked for;
    inline it is 0."""
    compute = qlimit._compute

    def slow(args):
        time.sleep(0.2)
        return compute(args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(qlimit, "_compute", slow)
    s = pipe(R, 4, (1,)).system()
    ladder = qlimit.Ladder(s.params, s.D, 53)
    assert ladder.wait_s is None
    ladder.start()
    assert ladder.route == "worker"
    tables = ladder.tables()
    assert ladder.wait_s >= 0.15
    monkeypatch.setattr(qlimit, "_compute", compute)
    inline = qlimit.Ladder(s.params, s.D, 53)
    assert inline.tables() == tables and inline.wait_s == 0


class _HeldLadder:
    """A ladder whose raw tables are already computed."""

    def __init__(self, tables, precision):
        self._tables, self.precision = tables, precision

    def tables(self):
        return iter(self._tables)


@pytest.mark.parametrize("precision", [53, 256])
@pytest.mark.parametrize("N", [4, 8, 14])
@pytest.mark.parametrize("D", [(), (1,), (1, 2), (1, 2, 3)])
def test_raw_tuple_routes_equal_the_wrapper_routes(N, D, precision, pipe):
    """The ladder's raw tables equal those of the q-sum on mpf wrapper
    objects, and qlimit_check's gaps and verdicts on them equal those of the
    mpf gap code, raw tuple for raw tuple."""
    s = pipe(R, N, D).system()
    tables = list(qlimit.ladder_tables(s.params, s.D, precision))
    for k, table in zip(LADDER_KS, tables):
        pq = matched_q_params(s.params, k, precision)
        assert table == _raw_table(wrapper_float_tables(pq, D, precision))
    rep = qlimit_check(s, _HeldLadder(tables, precision))
    p_gaps, q_gaps, within, mono = wrapper_qlimit_gaps(
        s, _mpf_tables(tables), LADDER_KS, precision
    )
    assert [g._mpf_ for g in rep.p_gaps] == [g._mpf_ for g in p_gaps]
    assert [g._mpf_ for g in rep.q_gaps] == [g._mpf_ for g in q_gaps]
    assert (rep.within_tolerance, rep.monotone) == (within, mono)


#: (D, b - N) of the ladder oracle: the R workload (b = N+5) with D = ()
#: and six sets up to 3, and a 4-index set up to 8, admissible at b = N+12
LADDER_INDEX_SETS = [((1,), 5), ((2,), 5), ((1, 2), 5), ((1, 3), 5), ((2, 3), 5),
                     ((1, 2, 3), 5), ((), 5), ((1, 3, 5, 8), 12)]


@pytest.mark.parametrize("precision", [53, 256])
@pytest.mark.parametrize("D,b", LADDER_INDEX_SETS, ids=[str(D) for D, _ in LADDER_INDEX_SETS])
@pytest.mark.parametrize("N", [1, 3, 6, 14])
def test_float_tables_equal_the_wrapper_route(N, D, b, precision):
    """Every ladder table, raw from start to finish, equals the mpf
    wrapper route of the per-entry formulas (``WrapperGridTable``, the
    route it replaced) bit for bit, at every k."""
    p = make_params(R, N, b=N + b, c=rat(1, 2), d=rat(2, 5))
    for k, table in zip(LADDER_KS, qlimit.ladder_tables(p, D, precision)):
        pq = matched_q_params(p, k, precision)
        assert table == _raw_table(wrapper_float_tables(pq, D, precision))


@pytest.mark.parametrize("precision", [53, 256])
def test_conversions_equal_the_workprec_route(precision):
    """to_real and big_sqrt give the raw tuples they gave inside a working
    precision per call: rationals whose numerator and denominator are
    rounded before the division, and mpf arguments made at other
    precisions."""
    big = 3 ** 200 + 1
    rationals = [rat(0), rat(1), rat(-7, 3), rat(2, 5), rat(big, 7), rat(5, big),
                 rat(big, big + 2), rat(-(2 ** 300 + 1), 2 ** 301 - 1)]
    with mpmath.workprec(512):
        floats = [mpmath.mpf(1) / 3, -mpmath.sqrt(2), mpmath.mpf(big) / 11, mpmath.mpf(0)]
    with mpmath.workprec(24):
        floats.append(mpmath.mpf(1) / 7)
    for x in rationals + floats:
        assert to_real(x, precision)._mpf_ == workprec_to_real(x, precision)._mpf_
        if x < 0:
            with pytest.raises(NegativeRadicand) as got:
                big_sqrt(x, precision)
            with pytest.raises(NegativeRadicand) as want:
                workprec_big_sqrt(x, precision)
            assert str(got.value) == str(want.value)
        else:
            assert big_sqrt(x, precision)._mpf_ == workprec_big_sqrt(x, precision)._mpf_


#: mpf wrapper arithmetic calls of one float table, R workload with
#: D = {1, 2}, 256 bits, k = 3, at N=4 and at N=8: none.  The table runs on
#: raw tuples from start to finish; a return to wrapper arithmetic
#: anywhere in it, per entry or per table, raises these counts.
WRAPPER_CALLS = {}


@pytest.mark.parametrize("N", [4, 8])
def test_float_tables_wrapper_call_counts(N, monkeypatch):
    """A cost guard made of counts, not times: the mpf wrapper products,
    quotients, sums and differences of one float table are the pinned
    counts, at N and at the other size alike, so a table does none per
    entry."""
    counts = {}
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__add__", "__radd__", "__sub__", "__rsub__"):
        orig = getattr(mpmath.mpf, name)

        def counted(a, b, _orig=orig, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _orig(a, b)

        monkeypatch.setattr(mpmath.mpf, name, counted)

    def calls(size):
        pq = matched_q_params(std_params(R, size), 3, 256)
        counts.clear()
        float_tables(pq, (1, 2), 256)
        return dict(counts)

    assert calls(N) == WRAPPER_CALLS == calls(12 - N)
