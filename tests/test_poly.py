"""Polynomial arithmetic and certified exact interpolation, the integer
kernel checked against the Newton route it replaced."""

import os
import subprocess
import sys
import textwrap
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualracah import closure, multiindexed, poly, recurrence
from dualracah.backend import rat
from dualracah.errors import CrossCheckMismatch, SingularMatrix
from dualracah.params import QR, R
from dualracah.poly import Poly, interpolate
from comparators import newton_interpolate, poly_add, poly_mul, poly_neg
from conftest import Y_ONE

coeff = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
polys = st.lists(coeff, max_size=6).map(Poly)
points = st.fractions(min_value=-100, max_value=100, max_denominator=20)


def test_zero_degree_sentinel():
    assert Poly().degree is None
    assert Poly([0, 0]).is_zero()
    assert Poly([rat(3)]).degree == 0


def test_trimming_and_equality():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([1, 2]) != Poly([1, 2, 3])


def test_getitem_is_total():
    p = Poly([5, 7])
    assert p[0] == 5 and p[1] == 7 and p[99] == 0


def test_reduced_coefficients_are_kept():
    """Rational coefficients are stored as the same objects, not rebuilt;
    integers become rationals and floats are refused."""
    cs = [rat(3, 4), rat(-10 ** 30, 7), rat(0), rat(5, 2)]
    p = Poly(cs)
    assert all(p.coeffs[i] is cs[i] for i in range(len(cs)))
    assert Poly([1, 2]).coeffs == (rat(1), rat(2))
    with pytest.raises(TypeError):
        Poly([0.5])


def test_known_product():
    # (1+x)(1-x) = 1 - x^2
    assert poly_mul(Poly([1, 1]), Poly([1, -1])) == Poly([1, 0, -1])


def test_evaluation_horner():
    p = Poly([rat(1), rat(-3), rat(1, 2)])
    x = rat(4)
    assert p(x) == 1 - 3 * 4 + rat(1, 2) * 16


def _rational_horner(p, point):
    """The rational-arithmetic Horner route, kept as the oracle."""
    acc = rat(0)
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


small = st.one_of(st.just(0), st.integers(-5, 5), st.fractions(-9, 9, max_denominator=7))


@given(st.lists(small, max_size=7).map(Poly), small)
def test_integer_horner_equals_rational_horner(p, z):
    z = rat(z)
    assert p(z) == _rational_horner(p, z)
    assert p(int(z.numerator)) == _rational_horner(p, int(z.numerator))
    assert type(p(z)) is type(rat(0))


@given(st.lists(small, max_size=7).map(Poly), st.lists(small, max_size=5))
def test_values_at_many_points_equal_rational_horner(p, zs):
    """One clearing of the coefficients serves every point."""
    zs = [rat(z) for z in zs]
    got = p.values(zs)
    assert got == [_rational_horner(p, z) for z in zs]
    assert all(type(v) is type(rat(0)) for v in got)


@given(polys, polys, points)
def test_ring_homomorphism_of_evaluation(p, q, z):
    z = rat(z.numerator, z.denominator)
    assert poly_add(p, q)(z) == p(z) + q(z)
    assert poly_mul(p, q)(z) == p(z) * q(z)


@given(polys, polys)
def test_degree_of_product(p, q):
    if p.is_zero() or q.is_zero():
        assert poly_mul(p, q).is_zero()
    else:
        assert poly_mul(p, q).degree == p.degree + q.degree


@given(polys)
def test_add_neg_cancels(p):
    assert poly_add(p, poly_neg(p)).is_zero()


def test_interpolate_recovers_poly():
    p = Poly([rat(2), rat(0), rat(-1), rat(1, 3)])
    nodes = [rat(k) for k in range(4)]
    q = interpolate(nodes, [p(z) for z in nodes])
    assert q == p


@given(st.lists(coeff, min_size=1, max_size=5).map(Poly))
def test_interpolate_round_trip(p):
    n = (p.degree if p.degree is not None else 0) + 1
    nodes = [rat(k) for k in range(n)]
    assert interpolate(nodes, [p(z) for z in nodes]) == p


def test_interpolate_coincident_nodes():
    with pytest.raises(SingularMatrix):
        interpolate([rat(1), rat(1)], [rat(0), rat(1)])


nodes = st.lists(
    st.fractions(min_value=-60, max_value=60, max_denominator=12), min_size=1, max_size=9,
    unique=True,
)


@settings(max_examples=150)
@given(st.data(), nodes)
def test_integer_kernel_equals_newton(data, zs):
    """Random rational values, or the values of a polynomial of lower
    degree than the node count (degenerate data, trailing zeros to trim)."""
    zs = [rat(z) for z in zs]
    if data.draw(st.booleans()):
        vals = [rat(v) for v in data.draw(st.lists(coeff, min_size=len(zs), max_size=len(zs)))]
    else:
        low = Poly(data.draw(st.lists(coeff, max_size=len(zs) - 1)))
        vals = low.values(zs)
    got = interpolate(zs, vals)
    assert got == newton_interpolate(zs, vals)
    assert all(type(c) is type(rat(0)) for c in got.coeffs)
    assert got.values(zs) == vals


def test_integer_kernel_keeps_the_checks():
    assert interpolate([], []) == newton_interpolate([], []) == Poly()
    with pytest.raises(ValueError):
        interpolate([rat(1)], [])
    with pytest.raises(SingularMatrix):
        interpolate([rat(1, 2), rat(2, 4)], [rat(0), rat(1)])


def _skew_weight(monkeypatch, k):
    """From now on the k-th Lagrange weight w_j that the kernel forms,
    counted over every interpolation, is doubled."""
    calls = []

    def skewed(factors):
        calls.append(None)
        w = prod(factors)
        return 2 * w if len(calls) == k + 1 else w

    monkeypatch.setattr(poly, "prod", skewed)


def test_skewed_weight_misses_its_node(monkeypatch):
    """A doubled weight w_j leaves the basis polynomial of node j at half
    its height: the cleared interpolant misses node j alone, and the kernel
    raises before any reduction."""
    _skew_weight(monkeypatch, 2)
    with pytest.raises(CrossCheckMismatch, match="interpolant misses its node value at j=2"):
        interpolate([rat(k, 3) for k in range(5)], [rat(1, k + 1) for k in range(5)])


# R, N=5, D=(1,2): a build first interpolates the virtual states xi_1 and
# xi_2 through 2 and 3 weights; ell_D = 2, so Xi_D and P_0 take 3 weights
# each and P_1 takes 4; X through Y = 1 has L = 3 and takes 4, and its
# value at j=0 is zero, so a skew there would not show.  Each case skews
# one weight of one interpolant.
KERNEL_FAULTS = {
    "closure-R0": (2, 2, lambda pl: closure.solve_closure(pl.hamiltonian(Y_ONE))),
    "virtual-xi2": (2 + 1, 1, lambda pl: multiindexed.build_mi_system(pl.params, pl.D)),
    "pdn-P1": (2 + 3 + 3 + 3 + 1, 1, lambda pl: multiindexed.build_mi_system(pl.params, pl.D)),
    "X": (3, 3, lambda pl: recurrence.build_X(pl.system(), Y_ONE)),
}


@pytest.mark.parametrize("family", [R, QR])
@pytest.mark.parametrize("case", KERNEL_FAULTS)
def test_skewed_kernel_fails_every_caller(family, case, pipe, monkeypatch):
    """A weight skewed inside the kernel fails the node certificate for a
    closure polynomial, a virtual state, a deformed polynomial and X alike,
    at its node."""
    k, j, build = KERNEL_FAULTS[case]
    pl = pipe(family, 5, (1, 2))
    pl.hamiltonian(Y_ONE)
    _skew_weight(monkeypatch, k)
    with pytest.raises(CrossCheckMismatch, match=f"interpolant misses its node value at j={j}"):
        build(pl)


values = st.one_of(st.just(0), coeff)


@settings(max_examples=100)
@given(st.data(), nodes, st.integers(1, 4))
def test_multi_row_kernel_equals_one_row_calls(data, zs, k):
    """Several value rows on one node set give, coefficient for
    coefficient, the interpolants of one-row calls and of the Newton
    oracle: rows with zero entries, an all-zero row, and nodes where one
    row or none is nonzero."""
    zs = [rat(z) for z in zs]
    rows = [[rat(v) for v in data.draw(st.lists(values, min_size=len(zs), max_size=len(zs)))]
            for _ in range(k)]
    rows.append([rat(0)] * len(zs))
    got = interpolate(zs, *rows)
    assert type(got) is tuple and len(got) == k + 1
    for pol, row in zip(got, rows):
        one = interpolate(zs, row)
        assert pol.coeffs == one.coeffs and pol == newton_interpolate(zs, row)
        assert all(type(c) is type(rat(0)) for c in pol.coeffs)
    assert got[-1] == Poly()


class _SkewedProduct(int):
    """A cleared value that the build multiplies wrongly (its own __mul__
    doubles) while the node check, which computes W*b, reads it right."""

    def __mul__(self, other):
        return 2 * int.__mul__(self, other)


def _skew_row_value(monkeypatch, row, j):
    """From now on the kernel builds with cleared value j of value row
    `row` skewed (``_SkewedProduct``); the node check sees it unchanged."""
    cleared = poly._cleared_int_rows

    def skewed(rows):
        ints, factors = cleared(rows)
        ints[1 + row][j] = _SkewedProduct(ints[1 + row][j])
        return ints, factors

    monkeypatch.setattr(poly, "_cleared_int_rows", skewed)


@pytest.mark.parametrize("row", [0, 1, 2])
def test_corrupted_row_value_fails_its_row(row, monkeypatch):
    """A value corrupted inside the kernel, in one of three rows, fails that
    row's node certificate at that node, whether its node is shared with
    the other rows (j=2) or only that row is nonzero there (j=3), and also
    in a one-row call."""
    zs = [rat(k, 3) for k in range(5)]
    rows = [[rat(1, k + r + 1) if k != 3 or r == row else rat(0) for k in range(5)]
            for r in range(3)]
    for j in (2, 3):
        with monkeypatch.context() as m:
            _skew_row_value(m, row, j)
            with pytest.raises(CrossCheckMismatch,
                               match=rf"interpolant misses its node value at j={j} in row {row}"):
                interpolate(zs, *rows)
    _skew_row_value(monkeypatch, 0, 2)
    with pytest.raises(CrossCheckMismatch, match="interpolant misses its node value at j=2 in row 0"):
        interpolate(zs, rows[row])


def test_corrupted_row_value_fails_under_python_O():
    """Under -O the row certificate still raises: it is not an assert."""
    tests = Path(__file__).resolve().parent
    script = textwrap.dedent(
        """
        from dualracah import poly
        from dualracah.backend import rat
        from dualracah.errors import CrossCheckMismatch
        from test_poly import _SkewedProduct

        assert False, "asserts must be stripped"
        cleared = poly._cleared_int_rows

        def skewed(rows):
            ints, factors = cleared(rows)
            ints[2][2] = _SkewedProduct(ints[2][2])
            return ints, factors

        poly._cleared_int_rows = skewed
        zs = [rat(k, 3) for k in range(5)]
        try:
            poly.interpolate(zs, *[[rat(1, k + r + 1) for k in range(5)] for r in range(3)])
        except CrossCheckMismatch as e:
            print("raised:", e)
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert "raised: interpolant misses its node value at j=2 in row 1" in out
