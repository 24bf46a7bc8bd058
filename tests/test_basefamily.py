"""Undeformed finite orthogonal families: values, duality, orthogonality."""

from fractions import Fraction

import mpmath
import pytest

from dualracah.basefamily import (
    RacahColumns,
    c_n,
    dn_sq_table,
    phi0_sq_table,
    poch,
    poch_pair,
    potential,
    racah_value,
    rec_coeffs,
)
from dualracah.errors import InadmissibleParams, NonPositiveWeight, ZeroDenominator
from dualracah import report
from dualracah.params import (
    QR, R, ParamSet, energy, eta, factor, make_params, shift, twist, validate,
)
from dualracah.qlimit import LADDER_KS, QSumColumns, matched_q_params
from dualracah.backend import rat, rat_to_str
from comparators import c_n_per_family, dn_sq_table_per_family, potential_per_entry, qpoch
from conftest import (
    ctilde_closed_form,
    dn_sq,
    energy_closed_form,
    phi0_sq,
    rec_coeffs_closed_form,
    std_params,
)
from test_sweep import CASES as SWEEP

FAMILIES = (R, QR)


@pytest.mark.parametrize("family", FAMILIES)
def test_normalization_at_origin(family):
    p = std_params(family, 5)
    for n in range(p.N + 1):
        assert racah_value(n, 0, p) == 1
        assert racah_value(0, n, p) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_value_matches_polynomial(family):
    """The exact column fill (the three-term recurrence of the polynomials)
    equals the hypergeometric sum, on and off the grid, at p and its dual."""
    for N in (4, 7):
        for p in (std_params(family, N), std_params(family, N).dual()):
            fill = RacahColumns(p)
            for y in range(N + 3):
                assert fill.column(y) == tuple(racah_value(n, y, p) for n in range(N + 1))


@pytest.mark.parametrize("precision", [53, 256])
@pytest.mark.parametrize("k", [3, 6])
def test_float_column_is_bit_identical(k, precision):
    """The factored q-sum on raw tuples rounds every operation as
    racah_value does on mpf."""
    p = matched_q_params(std_params(R, 6), k, precision)
    with mpmath.workprec(precision):
        fill = QSumColumns(p)
        for y in range(p.N + 3):
            assert fill.column(y) == tuple(racah_value(n, y, p) for n in range(p.N + 1))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [1, 6, 11])
def test_dual_and_twisted_forms_match_closed_forms(family, N):
    """The recurrence coefficients and the energy, read at the dual tuple,
    and the virtual-state leading coefficients, read at the twisted tuple,
    equal their own closed forms."""
    p = std_params(family, N)
    t = twist(p)
    for n in range(N + 1):
        assert rec_coeffs(n, p) == rec_coeffs_closed_form(n, p)
        assert energy(n, p) == energy_closed_form(n, p)
        assert c_n(n, t) == ctilde_closed_form(n, p)


@pytest.mark.parametrize("precision", [53, 256])
@pytest.mark.parametrize("k", LADDER_KS)
def test_float_energy_is_bit_identical(k, precision):
    """On the q->1 ladder the energy at the dual tuple rounds as its closed
    form does."""
    p = matched_q_params(std_params(R, 6), k, precision)
    with mpmath.workprec(precision):
        assert [energy(n, p) for n in range(p.N + 1)] == [
            energy_closed_form(n, p) for n in range(p.N + 1)
        ]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [1, 6, 11])
def test_one_pochhammer_product_matches_per_family_forms(family, N):
    """c_n and the squared norms, written once through ``poch``, are the
    rationals of their per-family Pochhammer forms, at p, its dual and its
    twist (c_n) and at p (the norms)."""
    p = std_params(family, N)
    for t in (p, p.dual(), twist(p)):
        for n in range(N + 1):
            assert c_n(n, t) == c_n_per_family(n, t)
    assert dn_sq_table(p) == dn_sq_table_per_family(p)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [1, 6])
def test_exact_pochhammer_is_the_factor_product(family, N):
    """On an exact u ``poch`` multiplies the numerators and denominators as
    integers into one rational: the product of ``params.factor`` taken one
    factor at a time, as a ``Fraction``, for n = 0..2N from k = 0, 1, N."""
    p = std_params(family, N)
    tw = twist(p)
    for u in (p.a, p.b, p.c, p.d, p.dtilde, tw.a, tw.b):
        for k in (0, 1, N):
            for n in range(2 * N + 1):
                acc = rat(1)
                for i in range(k, k + n):
                    acc = acc * factor(p, u, i)
                got = poch(p, u, n, k)
                assert type(got) is Fraction and got == acc


@pytest.mark.parametrize("precision", [53, 256])
@pytest.mark.parametrize("k", LADDER_KS)
def test_float_pochhammer_is_bit_identical(k, precision):
    """On the q->1 ladder ``poch`` rounds every factor as the q-Pochhammer
    helper it replaced."""
    p = matched_q_params(std_params(R, 6), k, precision)
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    with mpmath.workprec(precision):
        for u in (a, b, c, d, p.dtilde, d * q / a, d * q / b, a * q ** 3):
            for n in range(2 * p.N + 1):
                assert poch(p, u, n)._mpf_ == qpoch(u, n, q)._mpf_


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [1, 6, 11])
def test_norm_table_matches_per_n_oracle(family, N):
    p = std_params(family, N)
    assert dn_sq_table(p) == tuple(dn_sq(n, p) for n in range(N + 1))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [1, 6, 11])
def test_weight_table_matches_per_point_oracle(family, N):
    p = std_params(family, N)
    for q in (p, p.dual()):
        assert phi0_sq_table(q) == tuple(phi0_sq(x, q) for x in range(N + 1))


def test_nonpositive_weight_table_detected():
    p = make_params(R, 4, b=9, c=4, d=rat(2, 5))
    with pytest.raises(NonPositiveWeight) as table_err:
        phi0_sq_table(p)
    with pytest.raises(NonPositiveWeight) as point_err:
        for x in range(p.N + 1):
            phi0_sq(x, p)
    assert str(table_err.value) == str(point_err.value)


def test_nonpositive_norm_detected():
    p = make_params(R, 4, b=9, c=4, d=rat(2, 5))
    with pytest.raises(NonPositiveWeight, match=r"d_\d\^2"):
        dn_sq_table(p)


def test_float_additive_columns_rejected():
    """The exact column fill refuses every float tuple; the float q-sum
    refuses the additive family."""
    p = ParamSet(R, 4, *map(mpmath.mpf, (-4, 9, 0.5, 0.375)))
    with pytest.raises(InadmissibleParams):
        RacahColumns(p)
    with pytest.raises(InadmissibleParams):
        QSumColumns(p)
    with pytest.raises(InadmissibleParams):
        RacahColumns(matched_q_params(std_params(R, 4), 3, 53))


@pytest.mark.parametrize("family", FAMILIES)
def test_duality(family):
    p = std_params(family, 6)
    pd = p.dual()
    for n in range(p.N + 1):
        for x in range(p.N + 1):
            assert racah_value(n, x, p) == racah_value(x, n, pd)


@pytest.mark.parametrize("family", FAMILIES)
def test_orthogonality(family):
    p = std_params(family, 5)
    N = p.N
    norms = dn_sq_table(p)
    for n in range(N + 1):
        for m in range(n, N + 1):
            total = norms[n] * sum(
                phi0_sq(x, p) * racah_value(n, x, p) * racah_value(m, x, p)
                for x in range(N + 1)
            )
            assert total == (1 if n == m else 0)


@pytest.mark.parametrize("family", FAMILIES)
def test_weights_positive(family):
    p = std_params(family, 6)
    for x in range(p.N + 1):
        assert phi0_sq(x, p) > 0
    assert all(v > 0 for v in dn_sq_table(p))


def test_nonpositive_weight_detected():
    # c > 1+d breaks positivity for the additive family
    p = make_params(R, 4, b=9, c=4, d=rat(2, 5))
    with pytest.raises(NonPositiveWeight):
        for x in range(p.N + 1):
            phi0_sq(x, p)


@pytest.mark.parametrize("family", FAMILIES)
def test_boundary_potentials(family):
    p = std_params(family, 5)
    assert potential(p.N, p, "B") == 0
    assert potential(0, p, "D") == 0


@pytest.mark.parametrize("family,d", [(R, rat(1)), (QR, rat(1, 2))], ids=["R-d=1", "qR-d=q"])
def test_death_potential_vanishes_at_zero_where_its_denominator_does(family, d):
    """At d = 1 (d = q for qR) the denominator of D(x) vanishes at x = 0
    together with the factor x (1 - q^x): D(0) is still 0, so C_0 = 0 and
    B_0 = -A_0 keep P_1(0) = 1 for the dual tuple, whose C_n is D(n) at p.
    The base suite passes on such an admissible tuple."""
    if family == R:
        p = make_params(R, 5, b=10, c=rat(1, 2), d=d)
    else:
        q = rat(1, 2)
        p = make_params(QR, 5, b=q ** 10, c=rat(3, 4), d=d, q=q)
    assert validate(p, ()) == []
    assert potential(0, p, "D") == 0
    assert rec_coeffs(0, p.dual())[2] == 0
    cfg = report.parse_config({
        "family": family, "N": 5, "b": rat_to_str(p.b), "c": rat_to_str(p.c),
        "d": rat_to_str(d), **({"q": "1/2"} if family == QR else {}), "suites": ["base"],
    })
    assert report.run_suite(cfg)[1]


@pytest.mark.parametrize("family", FAMILIES)
def test_three_term_recurrence(family):
    """E_n P_n(eta(x)) = A_n(P_{n+1}-P_n) + C_n(P_{n-1}-P_n) rearranged to
    the standard band form with coefficients from rec_coeffs."""
    p = std_params(family, 6)
    N = p.N
    for n in range(N + 1):
        up, mid, low = rec_coeffs(n, p)
        for x in range(N + 1):
            lhs = eta(x, p) * racah_value(n, x, p)
            rhs = mid * racah_value(n, x, p)
            if n < N:
                rhs += up * racah_value(n + 1, x, p)
            if n > 0:
                rhs += low * racah_value(n - 1, x, p)
            assert lhs == rhs


@pytest.mark.parametrize("family", FAMILIES)
def test_difference_equation(family):
    p = std_params(family, 5)
    N = p.N
    for n in range(N + 1):
        en = energy(n, p)
        for x in range(N + 1):
            b = potential(x, p, "B")
            d = potential(x, p, "D")
            acc = (b + d) * racah_value(n, x, p)
            if x < N:
                acc -= b * racah_value(n, x + 1, p)
            if x > 0:
                acc -= d * racah_value(n, x - 1, p)
            assert acc == en * racah_value(n, x, p)


@pytest.mark.parametrize("family", FAMILIES)
def test_primed_potentials_are_twisted(family):
    p = std_params(family, 5)
    t = twist(p)
    for x in range(p.N + 1):
        assert potential(x, p, "Bprime") == potential(x, t, "B")


@pytest.mark.parametrize("family", FAMILIES)
def test_virtual_state_values_nonzero(family):
    p = std_params(family, 6)
    for v in (1, 2):
        vals = [racah_value(v, x, twist(p)) for x in range(p.N + 2)]
        assert all(val != 0 for val in vals)
        assert vals[0] == 1


def _potential_outcome(fn, x, p, which):
    """The value, or the name of the error, of one potential."""
    try:
        return fn(x, p, which)
    except ZeroDenominator:
        return "ZeroDenominator"


@pytest.mark.parametrize(
    "raw", SWEEP, ids=[f"{i}-{c['family']}-N{c['N']}-D{c['D']}" for i, c in enumerate(SWEEP)]
)
def test_exact_potentials_equal_per_entry_formula(raw):
    """B and D from integer pairs are the per-entry rational formula's
    value, or its ZeroDenominator, at x = -1..N+2 on each sweep tuple, at
    the parameters the library reads them at: the tuple, its dual and its
    tilde shift by M."""
    cfg = report.parse_config(raw)
    p = cfg.params()
    for t in (p, p.dual(), shift(p, len(cfg.D), "tilde")):
        for which in ("B", "D"):
            for x in range(-1, p.N + 3):
                got = _potential_outcome(potential, x, t, which)
                assert got == _potential_outcome(potential_per_entry, x, t, which)
                assert got == "ZeroDenominator" or type(got) is Fraction


@pytest.mark.parametrize("family,d", [
    (R, rat(1)), (R, rat(3)), (QR, rat(1, 2)), (QR, rat(1, 4)),
], ids=["R-d=1", "R-d=3", "qR-d=q", "qR-d=q^2"])
def test_exact_potentials_at_vanishing_denominators(family, d):
    """Where a denominator factor vanishes, B and D are 0 if the numerator
    vanishes too (D(0) at d=1, d=q) and raise ZeroDenominator otherwise
    (D(-1) at d=3, d=q^2), as the per-entry formula does; B(N) = 0."""
    q = rat(1, 2) if family == QR else None
    p = make_params(family, 5, b=10 if family == R else q ** 10, c=rat(3, 4), d=d, q=q)
    outcomes = {}
    for which in ("B", "D"):
        for x in range(-1, p.N + 3):
            got = outcomes[which, x] = _potential_outcome(potential, x, p, which)
            assert got == _potential_outcome(potential_per_entry, x, p, which)
    assert outcomes["B", p.N] == 0
    assert outcomes["D", 0] == 0
    assert (outcomes["D", -1] == "ZeroDenominator") == (d in (3, rat(1, 4)))


@pytest.mark.parametrize("family", FAMILIES)
def test_poch_pair_takes_negative_offsets(family):
    """poch_pair at offsets k < 0 (the q-powers at x = -1 of r_j(x)) is
    the rational of the per-factor product."""
    p = std_params(family, 5)
    for u in (p.a, p.b, rat(-7, 3), rat(0)):
        for k in (-3, -1, 0, 2):
            for n in range(4):
                num, den = poch_pair(p, (u.numerator, u.denominator), n, k)
                want = rat(1)
                for i in range(k, k + n):
                    want *= factor(p, u, i)
                assert rat(num, den) == want == poch(p, u, n, k)
