"""Convergence of the q-family to the additive family as q -> 1."""

import os

import mpmath
import pytest

from dualracah import qlimit
from dualracah.backend import rat
from dualracah.bigreal import to_real
from dualracah.errors import InadmissibleParams
from dualracah.multiindexed import build_mi_system
from dualracah.params import QR, R, make_params
from dualracah.qlimit import LADDER_KS, float_tables, matched_q_params, qlimit_check
from dualracah.report import parse_config, run_suite, write_report
from conftest import per_entry_pdn, std_params


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
            assert abs(pdn[n][0] - 1) < mpmath.mpf(10) ** -70
        assert qlimit._ratios(pdn)[0] == [1] * 5


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
    """The table route reproduces every float of the per-entry route, bit
    for bit: same rows, same order, same working precision."""
    p = std_params(R, 4)
    pq = matched_q_params(p, 4, 256)
    pdn = float_tables(pq, D, 256)
    with mpmath.workprec(256):
        ratios = qlimit._ratios(pdn)
        for n in range(5):
            for x in range(5):
                assert pdn[n][x] == per_entry_pdn(n, x, D, pq)
                assert ratios[n][x] == pdn[n][x] / pdn[0][x]


def test_float_columns_stay_at_their_precision(pipe):
    """qlimit_check at 53, 256 and again 53 bits in one process; after each,
    the float tables of every ladder step equal the per-entry racah_value
    route at that precision: the q-sum factors of one table never reach
    another table or precision."""
    s = pipe(R, 5, (1,)).system()
    D = s.D
    for prec in (53, 256, 53):
        qlimit_check(s, qlimit.Ladder(s.params, D, prec))
        for k in LADDER_KS:
            pq = matched_q_params(s.params, k, prec)
            pdn = float_tables(pq, D, prec)
            with mpmath.workprec(prec):
                assert pdn == [[per_entry_pdn(n, x, D, pq) for x in range(6)] for n in range(6)]


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
    p_gaps, q_gaps = _column_route_gaps(s, qlimit.ladder_tables(s.params, s.D, 256), 256)
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
