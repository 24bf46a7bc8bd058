"""Rational arithmetic backend.

All exact computations run over arbitrary-precision rationals.  Two
interchangeable backends are supported:

* ``gmpy2.mpq`` -- compiled GMP rationals, the default when gmpy2 is
  importable.  Rational arithmetic (the Casoratian grid, sums, scalings)
  is dominated by bignum work, so GMP gives a constant-factor speedup;
  the dense products, eliminations and Horner evaluations in ``linalg``
  and ``poly`` clear denominators and run on Python integers with either
  backend.
* ``fractions.Fraction`` -- pure-Python fallback, always available.

Set ``DUALRACAH_BACKEND=fraction`` (or ``gmpy2``) to force a choice.
``BACKEND`` names the one in use; ``perfbench`` records it with every
sample.
"""

from __future__ import annotations

import os
from fractions import Fraction

_FORCED = os.environ.get("DUALRACAH_BACKEND", "").strip().lower()

if _FORCED in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as _mpq  # type: ignore

        BACKEND = "gmpy2"
    except ImportError:
        if _FORCED == "gmpy2":
            raise
        _mpq = None
        BACKEND = "fraction"
elif _FORCED == "fraction":
    _mpq = None
    BACKEND = "fraction"
else:
    raise ValueError(f"unknown DUALRACAH_BACKEND: {_FORCED!r}")


if BACKEND == "gmpy2":

    def rat(num, den=1):
        """Exact rational from integers (or another rational)."""
        return _mpq(num, den)

else:

    def rat(num, den=1):
        """Exact rational from integers (or another rational)."""
        return Fraction(num, den)


ZERO = rat(0)
ONE = rat(1)


def is_rational(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return True
    return BACKEND == "gmpy2" and isinstance(x, type(ZERO))


def _int_from_str(s: str) -> int:
    """int(s) for a decimal string of any length: a string past the
    interpreter's int<->str digit limit is split and joined by a power of 10."""
    try:
        return int(s)
    except ValueError:
        body = s.strip()
        sign = -1 if body[:1] == "-" else 1
        if body[:1] in ("+", "-"):
            body = body[1:]
        if len(body) < 2 or not (body.isascii() and body.isdigit()):
            raise
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


def rat_from_str(s: str):
    """Parse the canonical "p/q" (or plain "p") serialization."""
    s = s.strip()
    if "/" in s:
        p_str, q_str = s.split("/", 1)
        p, q = _int_from_str(p_str), _int_from_str(q_str)
        if q == 0:
            raise ZeroDivisionError(f"zero denominator in {s!r}")
        return rat(p, q)
    return rat(_int_from_str(s))


def rat_to_str(x) -> str:
    """Canonical "p/q" serialization with the sign on the numerator."""
    x = rat(x)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"
