"""The library's one exact scalar: ``fractions.Fraction``.

Every exact computation runs over arbitrary-precision rationals, and
``rat`` is their one constructor.  The dense products, eliminations and
Horner evaluations in ``linalg`` and ``poly`` clear denominators and run on
Python integers.  ``BACKEND`` names the rational type; ``perfbench``
records it with every sample.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction

BACKEND = "fraction"


def rat(num, den=None):
    """Exact rational from integers (or another rational).

    A lone ``Fraction`` is already reduced and is returned as it is; a
    float, a string or any other non-rational raises ``TypeError``."""
    if den is None:
        return num if type(num) is Fraction else Fraction(num, 1)
    return Fraction(num, den)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def _int_from_str(s: str) -> int:
    """int(s) for an optional sign and ASCII digits, of any length: a string
    past the interpreter's int<->str digit limit is split and joined by a
    power of 10."""
    try:
        return int(s)
    except ValueError:
        sign, body = (-1, s[1:]) if s[0] == "-" else (1, s.lstrip("+"))
    k = len(body) // 2
    return sign * (_int_from_str(body[:-k]) * 10 ** k + _int_from_str(body[-k:]))


def _int_to_str(n) -> str:
    """str(n) for an integer of any size: one past the interpreter's
    int<->str digit limit is split by a power of 10 into two halves."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _int_to_str(-n)
    k = int(n.bit_length() * 0.30103) // 2  # about half the decimal digits
    high, low = divmod(n, 10 ** k)
    return _int_to_str(high) + _int_to_str(low).zfill(k)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def rat_from_str(s: str):
    """Parse the canonical "p/q" (or plain "p") serialization, by one
    grammar at every length: surrounding whitespace, an optional sign and
    ASCII digits, then optionally "/", an optional sign and ASCII digits.
    Anything else (digit separators, other digits) raises ValueError."""
    m = _RATIONAL.fullmatch(s.strip())
    if m is None:
        raise ValueError(f"not a rational \"p/q\" of ASCII digits: {reprlib.repr(s)}")
    p_str, q_str = m.groups()
    q = _int_from_str(q_str or "1")
    if q == 0:
        raise ZeroDivisionError(f"zero denominator in {reprlib.repr(s)}")
    return rat(_int_from_str(p_str), q)


def rat_to_str(x) -> str:
    """Canonical "p/q" serialization with the sign on the numerator."""
    x = rat(x)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"
