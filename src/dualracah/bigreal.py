"""High-precision binary floats for the few places that need square roots.

Everything identity-critical stays rational; these helpers only serve the
symmetric Hamiltonian entries, the semidefinite factorization, and the q->1
limit checks, each at the working precision its caller passes.

The conversions run on raw ``mpmath.libmp`` tuples (``real_tuple``) at that
precision, rounded to nearest as mpmath's own context rounds, without
entering a working precision per call: each result is the mpf that
``mpf(numerator) / mpf(denominator)``, ``+x`` and ``mpmath.sqrt`` give
inside ``mpmath.workprec(prec)``, bit for bit.
"""

from __future__ import annotations

import mpmath
from mpmath.libmp import from_int, fzero, mpf_div, mpf_lt, mpf_pos, mpf_sqrt, round_nearest

from .errors import NegativeRadicand


def real_tuple(x, prec: int) -> tuple:
    """The raw mpf tuple of a rational (or mpf) at prec bits: numerator and
    denominator each rounded to prec bits, then divided; an mpf rounded
    to prec bits."""
    if isinstance(x, mpmath.mpf):
        return mpf_pos(x._mpf_, prec, round_nearest)
    num = from_int(x.numerator, prec, round_nearest)
    return mpf_div(num, from_int(x.denominator, prec, round_nearest), prec, round_nearest)


def to_real(x, prec: int):
    """Correctly rounded conversion of a rational (or mpf) to mpf at prec bits."""
    return mpmath.mp.make_mpf(real_tuple(x, prec))


def big_sqrt(x, prec: int):
    """sqrt(x) at prec bits; an mpf argument is taken as it is, a rational
    is first converted by ``to_real``."""
    v = x._mpf_ if isinstance(x, mpmath.mpf) else real_tuple(x, prec)
    if mpf_lt(v, fzero):
        with mpmath.workprec(prec):  # the value printed at prec bits
            raise NegativeRadicand(f"sqrt of negative value {mpmath.mp.make_mpf(v)}")
    return mpmath.mp.make_mpf(mpf_sqrt(v, prec, round_nearest))


def real_str(x, prec: int) -> str:
    """Serialize with an explicit precision annotation, e.g. "1.414...@256"."""
    digits = max(1, int(prec * 0.30103))
    return f"{mpmath.nstr(x, digits)}@{prec}"
