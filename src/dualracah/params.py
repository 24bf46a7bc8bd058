"""Parameter sets for the Racah (R) and q-Racah (qR) families.

For R the four parameters (a,b,c,d) are used additively; for qR the stored
values are the q-powers themselves, so shifts become multiplications by
powers of q.  All parameters are concrete rationals (q included), which
keeps the whole grid theory inside exact arithmetic.  The same formulas
also accept high-precision floats for the q->1 limit checks, where no
exactness checks are made.

Two involutions act on a tuple: the duality ``ParamSet.dual`` swaps d with
dtilde, and so x with n (the energy is the sinusoidal coordinate at the
dual tuple, ``energy``); the twist ``twist`` maps the base data to the
virtual-state data.
"""

from __future__ import annotations

from math import log2
from typing import NamedTuple, Optional, Sequence, Tuple

from .backend import is_rational, rat
from .errors import BadN, BadQ, IndexOutOfRange

R = "R"
QR = "qR"


def ipow(base, k: int):
    """base**k for integer k of either sign (exact for rationals)."""
    if k >= 0:
        return base ** k
    return 1 / (base ** (-k))


class ParamSet(NamedTuple):
    family: str
    N: int
    a: object
    b: object
    c: object
    d: object
    q: Optional[object] = None

    @property
    def dtilde(self):
        """The dual fourth parameter, always recomputed."""
        if self.family == R:
            return self.a + self.b + self.c - self.d - 1
        return self.a * self.b * self.c / (self.d * self.q)

    def is_exact(self) -> bool:
        return is_rational(self.b)

    def dual(self) -> "ParamSet":
        """Swap d with dtilde (an involution)."""
        return self._replace(d=self.dtilde)


def make_params(family: str, N: int, b, c, d, q=None) -> ParamSet:
    if N < 1:
        raise BadN(f"N must be >= 1, got {N}")
    if family == R:
        return ParamSet(R, N, rat(-N), rat(b), rat(c), rat(d))
    if family == QR:
        q = rat(q)
        if not (0 < q < 1):
            raise BadQ(f"q must lie in (0,1), got {q}")
        return ParamSet(QR, N, ipow(q, -N), rat(b), rat(c), rat(d), q)
    raise ValueError(f"unknown family {family!r}")


def ell(D: Sequence[int]) -> int:
    m = len(D)
    return sum(D) - m * (m - 1) // 2


def index_set(values: Sequence[int]) -> Tuple[int, ...]:
    """Validated multi-index set: strictly increasing positive integers."""
    D = tuple(int(v) for v in values)
    for i, v in enumerate(D):
        if v < 1 or (i > 0 and v <= D[i - 1]):
            raise IndexOutOfRange(f"index set must be strictly increasing positive: {D}")
    return D


def validate(p: ParamSet, D: Sequence[int]) -> list:
    """Admissibility violations (empty list = admissible).

    The inequalities are applied literally, with max(D)=0 for empty D.
    Each virtual state, the base polynomial of degree d_j at the twisted
    tuple, must keep that degree: no factor dt'+k (R; 1-dt'*q^k for qR),
    k = d_j..2d_j-1, of its leading coefficient vanishes (dt' twisted).
    One k at most makes it vanish (``_vanishing_k``), so neither that nor
    the qR range check grows with max(D).  A qR tuple with b = 0 or d = 0,
    which fails 0<ab<d<1, has no twisted tuple and no degree check.
    """
    dmax = max(D) if D else 0
    out = []
    if p.family == R:
        if not (0 < p.d < p.a + p.b):
            out.append("0<d<a+b")
        if not (0 < p.c < 1 + p.d):
            out.append("0<c<1+d")
        if not (p.d + dmax + 1 < p.a + p.b):
            out.append("d+max(D)+1<a+b")
    else:
        ab = p.a * p.b
        if not (0 < ab < p.d < 1):
            out.append("0<ab<d<1")
        if not (p.q * p.d < p.c < 1):
            out.append("qd<c<1")
        # q^k, k >= cap, are on one side of ab/d: if ab/d > 0, q <= 1-1/qd
        # gives q^k < e^(-k/qd) <= 2^-B < ab/d for k >= B*qd, B the bit
        # length of the denominator of ab/d; else the sign of d decides.
        r = ab / p.d if p.d != 0 else 0
        cap = r.denominator.bit_length() * p.q.denominator if r > 0 else 1
        if not (ab < p.d * ipow(p.q, min(dmax + 1, cap))):
            out.append("ab<d*q^(max(D)+1)")
    k = _vanishing_k(p, twist(p).dtilde) if p.family == R or p.b * p.d != 0 else None
    if k is not None and any(dj <= k < 2 * dj for dj in D):
        out.append("deg xi_(d_j) = d_j")
    return out


def _vanishing_k(p: ParamSet, u):
    """The one k >= 1 with ``factor(p, u, k) == 0`` (u exact), or None.
    R: k = -u.  qR: u = (qd/qn)^k in lowest terms, q = qn/qd; k is read off
    the logarithms (rounding far below 1/2 for any numerator that fits in
    memory) and checked on integers."""
    if p.family == R:
        return -u.numerator if u.denominator == 1 and u < 0 else None
    num, qn, qd = u.numerator, p.q.numerator, p.q.denominator
    if num <= 1:
        return None
    k = round(log2(num) / log2(qd))
    return k if k >= 1 and qd ** k == num and qn ** k == u.denominator else None


def factor(p: ParamSet, u, k: int):
    """The linear factor u+k (R) or 1-u*q^k (qR) of the closed forms; its
    product is either family's Pochhammer symbol (``basefamily.poch``)."""
    return u + k if p.family == R else 1 - u * ipow(p.q, k)


def factor_pair(p: ParamSet, u: tuple, k: int) -> tuple:
    """``factor(p, u, k)`` for the integer pair u = (num, den) of an exact
    value and k of either sign, as an unreduced integer pair."""
    n, d = u
    if p.family == R:
        return n + k * d, d
    qn, qd = (p.q.numerator, p.q.denominator) if k >= 0 else (p.q.denominator, p.q.numerator)
    return d * qd ** abs(k) - n * qn ** abs(k), d * qd ** abs(k)


def shift(p: ParamSet, k: int, kind: str = "delta") -> ParamSet:
    """Shift by k*delta (all four slots) or k*delta-tilde (c,d slots only)."""
    if kind not in ("delta", "tilde"):
        raise ValueError(f"unknown shift kind {kind!r}")
    if p.family == R:
        if kind == "delta":
            return p._replace(a=p.a + k, b=p.b + k, c=p.c + k, d=p.d + k)
        return p._replace(c=p.c + k, d=p.d + k)
    f = ipow(p.q, k)
    if kind == "delta":
        return p._replace(a=p.a * f, b=p.b * f, c=p.c * f, d=p.d * f)
    return p._replace(c=p.c * f, d=p.d * f)


def eta(x: int, p: ParamSet):
    """Sinusoidal coordinate; x may be negative (off-grid antiderivative value)."""
    if p.family == R:
        return x * (x + p.d)
    return (ipow(p.q, -x) - 1) * (1 - p.d * ipow(p.q, x))


def energy(n: int, p: ParamSet):
    """Energy of level n: by duality, the sinusoidal coordinate at the dual
    parameters."""
    return eta(n, p.dual())


def twist(p: ParamSet) -> ParamSet:
    """The parameter involution generating virtual-state data; it replaces
    a and b only, so the sinusoidal coordinate (d and q) is unchanged."""
    if p.family == R:
        return p._replace(a=p.d - p.a + 1, b=p.d - p.b + 1)
    return p._replace(a=p.d * p.q / p.a, b=p.d * p.q / p.b)
