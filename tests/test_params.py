"""Parameter sets, admissibility, shifts, coordinates, and the twist."""

import pytest
from hypothesis import given
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
