"""The one rational constructor and its serialization."""

import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualracah.backend import BACKEND, is_rational, rat, rat_from_str, rat_to_str


def test_basic_arithmetic():
    assert rat(1, 3) + rat(1, 6) == rat(1, 2)
    assert rat(2, 4) == rat(1, 2)
    assert rat(-3, 6) * rat(2) == rat(-1)
    assert rat(0) == 0 and rat(1) == 1


def test_is_rational():
    assert is_rational(rat(5, 7))
    assert is_rational(3)
    assert not is_rational(0.5)
    assert not is_rational("1/2")


def test_round_trip_strings():
    assert rat_from_str("3/4") == rat(3, 4)
    assert rat_from_str(" -7 ") == rat(-7)
    assert rat_to_str(rat(-3, 4)) == "-3/4"
    assert rat_to_str(5) == "5/1"


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        rat_from_str("3/0")


def test_round_trip_past_the_digit_limit():
    """Values longer than the interpreter's 4300-digit int<->str limit
    serialize and parse, and the limit itself is left as it was."""
    limit = sys.get_int_max_str_digits()
    repunit = (10 ** 5000 - 1) // 9  # 5000 ones
    x = rat(-repunit, 10 ** 5999 + 3)
    text = "-" + "1" * 5000 + "/1" + "0" * 5998 + "3"
    assert rat_to_str(x) == text
    assert rat_from_str(text) == x
    assert rat_from_str(" +" + "1" * 5000 + " ") == repunit
    assert rat_from_str(rat_to_str(x ** 3)) == x ** 3
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        rat_from_str("1" * 5000 + "x")


LONG = "1" * 5000  # past the interpreter's int<->str digit limit


@pytest.mark.parametrize("body", ["12", LONG], ids=["short", "long"])
def test_one_grammar_at_every_length(body):
    """Whitespace around, a sign and ASCII digits on each side of one "/":
    accepted at any length.  Digit separators, non-ASCII digits, inner
    spaces and empty sides are refused at any length."""
    n = int(body) if body == "12" else (10 ** 5000 - 1) // 9
    assert rat_from_str(f" +{body}/-{body}\t") == -1
    assert rat_from_str(f"-{body}") == -n
    for bad in (f"{body}_0", f"1_{body}/2", f"{body}/2_0", "\u0661" + body, f"{body} / 2",
                f"{body}/", f"/{body}", f"+-{body}", f"{body}/2/3", f"{body}.0"):
        with pytest.raises(ValueError):
            rat_from_str(bad)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
def test_serialization_round_trip(p, q):
    x = rat(p, q)
    assert rat_from_str(rat_to_str(x)) == x


@given(st.fractions(), st.fractions())
def test_field_axioms_sample(a, b):
    x, y = rat(a.numerator, a.denominator), rat(b.numerator, b.denominator)
    assert x + y == y + x
    assert x * y == y * x
    if y != 0:
        assert (x / y) * y == x


def test_fraction_is_the_one_rational():
    assert BACKEND == "fraction"
    assert type(rat(1, 2)) is Fraction and type(rat(3)) is Fraction


def test_lone_fraction_is_returned_unchanged():
    """A Fraction is already reduced: rat hands back the same object."""
    for x in (Fraction(3, 4), Fraction(-10 ** 40, 7), Fraction(0)):
        assert rat(x) is x
    assert rat(Fraction(3, 4), 3) == Fraction(1, 4)


@pytest.mark.parametrize("bad", [0.5, "1/2", mpmath.mpf(1)], ids=["float", "str", "mpf"])
def test_non_rationals_are_refused(bad):
    """Floats, strings and mpf values stay out of the exact pipeline."""
    with pytest.raises(TypeError):
        rat(bad)
    with pytest.raises(TypeError):
        rat_to_str(bad)
