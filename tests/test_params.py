"""Parameter sets, admissibility, shifts, coordinates, and the twist."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dualracah.backend import rat
from dualracah.errors import BadN, BadQ, IndexOutOfRange
from dualracah.params import (
    QR,
    R,
    ParamSet,
    ell,
    energy,
    eta,
    index_set,
    ipow,
    make_params,
    shift,
    twist,
    validate,
)
from comparators import validate_per_k
from conftest import std_params


def test_make_params_fixes_a_slot():
    p = make_params(R, 5, b=9, c=rat(1, 2), d=rat(2, 5))
    assert p.a == -5
    q = rat(1, 3)
    pq = make_params(QR, 4, b=q ** 7, c=rat(1, 2), d=rat(2, 5), q=q)
    assert pq.a * q ** 4 == 1


def test_bad_n_and_q():
    with pytest.raises(BadN):
        make_params(R, 0, b=5, c=1, d=1)
    with pytest.raises(BadQ):
        make_params(QR, 3, b=1, c=1, d=1, q=rat(3, 2))
    with pytest.raises(BadQ):
        make_params(QR, 3, b=1, c=1, d=1, q=1)


@given(st.fractions(min_value="1/100", max_value=100, max_denominator=100),
       st.integers(-6, 6))
def test_ipow_inverse(base_f, k):
    base = rat(base_f.numerator, base_f.denominator)
    assert ipow(base, k) * ipow(base, -k) == 1


def test_ell_counts_degree():
    assert ell(()) == 0
    assert ell((1,)) == 1
    assert ell((2,)) == 2
    assert ell((1, 2)) == 2
    assert ell((1, 3)) == 3


def test_index_set_validation():
    assert index_set([1, 2, 5]) == (1, 2, 5)
    with pytest.raises(IndexOutOfRange):
        index_set([0, 1])
    with pytest.raises(IndexOutOfRange):
        index_set([2, 2])
    with pytest.raises(IndexOutOfRange):
        index_set([3, 1])


@pytest.mark.parametrize("family", [R, QR])
def test_standard_tuples_admissible(family):
    for N in (4, 5, 6, 8):
        p = std_params(family, N)
        assert validate(p, (1, 2)) == []


def test_validate_flags_violations():
    p = make_params(R, 5, b=5, c=rat(1, 2), d=rat(2, 5))  # a+b = 0
    assert "0<d<a+b" in validate(p, ())
    q = rat(1, 2)
    pq = make_params(QR, 5, b=q ** 6, c=rat(1, 2), d=rat(2, 5), q=q)
    # ab = q, far above d*q^(max(D)+1)
    assert validate(pq, (1,)) != []


@pytest.mark.parametrize("family,N,b,c,D", [
    (R, 2, rat(49, 10), rat(1, 2), (1,)),           # dt' = -1: xi_1 is constant
    (QR, 3, rat(1, 256), rat(1, 2), (2,)),          # dt' = 4 = q^(-2): xi_2 has degree 1
], ids=["R", "qR"])
def test_validate_refuses_a_virtual_state_that_loses_its_degree(family, N, b, c, D):
    """The range inequalities hold, but the leading coefficient of the
    virtual state of degree d_j (the base one at the twisted tuple)
    vanishes; the build would stop at the degree of Xi_D, so validate
    refuses the tuple, and run_suite with it."""
    from dualracah import report
    from dualracah.basefamily import c_n
    from dualracah.errors import InadmissibleParams

    q = rat(1, 2) if family == QR else None
    d = rat(1, 2) if family == QR else rat(2, 5)
    p = make_params(family, N, b=b, c=c, d=d, q=q)
    assert validate(p, D) == ["deg xi_(d_j) = d_j"] and validate(p, ()) == []
    assert c_n(D[-1], twist(p)) == 0
    raw = {"family": family, "N": N, "b": str(b), "c": str(c), "d": str(d), "D": list(D),
           "suites": ["mi"]}
    if q is not None:
        raw["q"] = str(q)
    with pytest.raises(InadmissibleParams, match="deg xi"):
        report.run_suite(report.parse_config(raw))


@pytest.mark.parametrize("family", [R, QR])
@pytest.mark.parametrize("k", range(1, 8))
def test_validate_finds_the_one_vanishing_degree_factor(family, k):
    """At a tuple whose twisted dt' makes the degree factor at k vanish
    (dt' = -k for R, q^-k for qR), validate refuses exactly the index sets
    with some d_j <= k < 2d_j, as the per-k loop does."""
    N, q = 3, (rat(1, 3) if family == QR else None)
    if family == R:
        c, d = rat(1, 2), rat(2, 5)
        b = d + N + 1 + c + k  # dt' = d+N+1-b+c
    else:
        c, d = rat(1, 2), rat(1, 2)
        b = d * c * q ** (N + 1 + k)  # dt' = d*c*q^(N+1)/b
    p = make_params(family, N, b=b, c=c, d=d, q=q)
    assert twist(p).dtilde == (-k if family == R else q ** -k)
    for D in [(1,), (2,), (3,), (1, 4), (2, 5), (k,), (k + 1,), (1, 2, 3, 4, 5, 6, 7, 8)]:
        got = validate(p, D)
        assert got == validate_per_k(p, D)
        assert ("deg xi_(d_j) = d_j" in got) == any(dj <= k < 2 * dj for dj in D)


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@given(st.sampled_from([R, QR]), st.integers(1, 6), fractions, fractions, fractions,
       st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda v: 0 < v < 1),
       st.lists(st.integers(1, 9), max_size=4, unique=True).map(sorted))
def test_validate_equals_the_per_k_loop(family, N, b, c, d, q, D):
    """On any tuple, admissible or not, validate gives the per-k loop's
    list: the same violations in the same order.  (The loop divides by
    zero at a qR tuple with b = 0 or d = 0, which has no twisted tuple.)"""
    assume(family == R or b * d != 0)
    p = make_params(family, N, b=b, c=c, d=d, q=q if family == QR else None)
    assert validate(p, D) == validate_per_k(p, D)


@pytest.mark.parametrize("b,d", [(rat(0), rat(1, 2)), (rat(1, 64), rat(0))])
def test_validate_refuses_a_qr_tuple_without_a_twist(b, d, tmp_path, capsys):
    """A qR tuple with b = 0 or d = 0 fails 0<ab<d<1 and has no twisted
    tuple (its slots divide by b, its dt' by d): validate lists the range
    violation, and a run refuses the config with exit 2."""
    from dualracah.cli import main

    p = make_params(QR, 3, b=b, c=rat(1, 2), d=d, q=rat(1, 2))
    assert validate(p, (1, 2)) == validate(p, ()) and "0<ab<d<1" in validate(p, ())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": QR, "N": 3, "b": str(b), "c": "1/2", "d": str(d),
                               "q": "1/2", "D": [1, 2], "Y": ["1"], "suites": ["mi"]}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: config parameters violate ranges:")


@pytest.mark.parametrize("family", [R, QR])
def test_validate_of_a_huge_index_exits_at_once(family, tmp_path):
    """A config with max(D) = 10^7 is refused with exit 2 within seconds:
    neither the degree check nor the qR range check grows with max(D)."""
    raw = {"family": family, "N": 3, "b": "8", "c": "1/2", "d": "2/5", "D": [10 ** 7],
           "Y": ["1"], "suites": ["mi"]}
    if family == QR:
        raw.update(b="1/64", d="1/2", q="1/2")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dualracah.cli", "verify", "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 2
    bad = "d+max(D)+1<a+b" if family == R else "ab<d*q^(max(D)+1)"
    assert proc.stderr == f"error: config parameters violate ranges: ['{bad}']\n"


def test_shift_additive_and_multiplicative():
    p = std_params(R, 5)
    p2 = shift(p, 2, "delta")
    assert (p2.a, p2.b, p2.c, p2.d) == (p.a + 2, p.b + 2, p.c + 2, p.d + 2)
    p3 = shift(p, 1, "tilde")
    assert (p3.a, p3.b) == (p.a, p.b) and p3.c == p.c + 1

    pq = std_params(QR, 5)
    pq2 = shift(pq, -1, "delta")
    assert pq2.a == pq.a / pq.q and pq2.d == pq.d / pq.q


def test_eta_and_energy_ground_zero():
    for family in (R, QR):
        p = std_params(family, 5)
        assert eta(0, p) == 0
        assert energy(0, p) == 0
        vals = [eta(x, p) for x in range(p.N + 1)]
        assert all(vals[i] < vals[i + 1] for i in range(p.N))
        ens = [energy(n, p) for n in range(p.N + 1)]
        assert all(ens[i] < ens[i + 1] for i in range(p.N))


def test_dtilde_closed_forms():
    p = std_params(R, 5)
    assert p.dtilde == p.a + p.b + p.c - p.d - 1
    pq = std_params(QR, 5)
    assert pq.dtilde == pq.a * pq.b * pq.c / (pq.d * pq.q)


def test_dual_is_involution():
    for family in (R, QR):
        p = std_params(family, 6)
        pd = p.dual()
        assert pd.d == p.dtilde
        assert pd.dual() == p


@pytest.mark.parametrize("family", [R, QR])
def test_param_set_is_frozen_and_hashed_by_value(family):
    """A parameter tuple refuses assignment; equal tuples make equal
    records with equal hashes, whichever way they were built, the dual of
    the dual included."""
    p = std_params(family, 6)
    with pytest.raises(AttributeError):
        p.d = rat(1, 3)
    assert p.d == std_params(family, 6).d
    same = [std_params(family, 6), ParamSet(*p), p.dual().dual(), shift(shift(p, 1), -1)]
    for other in same:
        assert other == p and hash(other) == hash(p)
    assert len({p, *same}) == 1
    assert p.dual() != p and hash(p.dual().dual()) == hash(p)


def test_twist_preserves_eta():
    for family in (R, QR):
        p = std_params(family, 6)
        t = twist(p)
        for x in range(p.N + 1):
            assert eta(x, t) == eta(x, p)


def test_twist_closed_forms():
    p = std_params(R, 6)
    t = twist(p)
    assert (t.a, t.b) == (p.d - p.a + 1, p.d - p.b + 1)
    pq = std_params(QR, 6)
    tq = twist(pq)
    assert (tq.a, tq.b) == (pq.d * pq.q / pq.a, pq.d * pq.q / pq.b)
