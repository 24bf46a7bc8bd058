"""High-precision binary floats for the few places that need square roots.

Everything identity-critical stays rational; these helpers only serve the
symmetric Hamiltonian entries, the semidefinite factorization, and the q->1
limit checks, each at the working precision its caller passes.
"""

from __future__ import annotations

import mpmath

from .errors import NegativeRadicand


def to_real(x, prec: int):
    """Correctly rounded conversion of a rational (or mpf) to mpf at prec bits."""
    with mpmath.workprec(prec):
        if isinstance(x, mpmath.mpf):
            return +x
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def big_sqrt(x, prec: int):
    with mpmath.workprec(prec):
        v = x if isinstance(x, mpmath.mpf) else to_real(x, prec)
        if v < 0:
            raise NegativeRadicand(f"sqrt of negative value {v}")
        return mpmath.sqrt(v)


def real_str(x, prec: int) -> str:
    """Serialize with an explicit precision annotation, e.g. "1.414...@256"."""
    digits = max(1, int(prec * 0.30103))
    return f"{mpmath.nstr(x, digits)}@{prec}"
