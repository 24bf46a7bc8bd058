"""Dense univariate polynomials over exact rationals: interpolation and
evaluation only.

The indeterminate is the sinusoidal variable throughout the library, but
nothing here depends on that interpretation.  The zero polynomial has
``degree is None`` (an explicit sentinel, never -1).  There is no ring
arithmetic: polynomials are built by interpolation and compared at enough
nodes.  Evaluation takes exact rational points only and runs on integers
(``Poly.values``), on the coefficients cleared once per polynomial.

``interpolate`` is the library's one interpolation kernel and serves every
interpolant: the virtual states, the denominator polynomial, each deformed
polynomial, X and the closure triple (three value rows on one node set).
It runs on integers, certifies each interpolant at its nodes there, so no
caller evaluates it at them, and makes one rational per coefficient.  It
has no degree option: through n nodes the interpolant has degree at most
n - 1, and each caller certifies the degree it needs.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Sequence

from .backend import rat
from .errors import CrossCheckMismatch, SingularMatrix
from .linalg import _cleared_int_rows


class Poly:
    __slots__ = ("coeffs", "_cleared")

    def __init__(self, coeffs: Sequence = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._cleared = None

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, k: int):
        """Coefficient of x^k (zero beyond the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else rat(0)

    def __call__(self, point):
        """Exact Horner evaluation at one rational point (see ``values``)."""
        return self.values([point])[0]

    def values(self, points) -> list:
        """The values at each rational point, by Horner on integers.

        The coefficients are cleared to one denominator D on the first
        call and kept; at a/b Horner is homogenized in b:
        p(a/b) = (sum_k D*c_k * a^k * b^(deg-k)) / (D * b^deg).
        """
        if not self.coeffs:
            return [rat(0)] * len(points)
        if self._cleared is None:
            self._cleared = _cleared_int_rows([self.coeffs])
        (nums,), (den,) = self._cleared
        out = []
        for z in points:
            a, b = z.numerator, z.denominator
            acc, bpow = nums[-1], 1
            for c in reversed(nums[:-1]):
                bpow *= b
                acc = acc * a + c * bpow
            out.append(rat(acc, den * bpow))
        return out

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


def interpolate(nodes: Sequence, values: Sequence, *more: Sequence):
    """Exact polynomial interpolation through distinct rational nodes, on
    integers: the interpolant of ``values``, or with further value rows
    ``more`` the tuple of every row's interpolant.

    The nodes are scaled to integers a_j = L*z_j by their common
    denominator L, each row to integers b_j = D*v_j by its own.  With the
    integer master polynomial m(s) = prod_k (s - a_k), the j-th Lagrange
    basis polynomial is m(s)/(s - a_j) (synthetic division) over the weight
    w_j = prod_(k != j) (a_j - a_k).  With W = lcm(w_j) each interpolant in
    s = L*z has the integer coefficients c = sum_j b_j*(W/w_j)*m(s)/(s - a_j)
    over D*W: per node, (W/w_j) times each quotient coefficient is formed
    once and added b_j times to every row with b_j != 0; one row is the
    one-row case of the same loop.  Before any reduction C(a_j) =
    W*b_j is certified at every node of every row by integer Horner on c,
    or CrossCheckMismatch; the coefficient of z^i is then the one rational
    c_i*L^i / (D*W).  The degree is at most n - 1; the callers certify it.
    """
    rows = (values, *more)
    n = len(nodes)
    if any(len(row) != n for row in rows):
        raise ValueError("nodes/values length mismatch")
    if len(set(nodes)) != n:
        raise SingularMatrix("coincident interpolation nodes")
    (a, *bs), (L, *Ds) = _cleared_int_rows([[rat(v) for v in r] for r in (nodes, *rows)])
    master = [1]
    for ak in a:
        master = [0] + master
        for i in range(len(master) - 1):
            master[i] -= ak * master[i + 1]
    weights = [prod(aj - ak for k, ak in enumerate(a) if k != j) for j, aj in enumerate(a)]
    W = lcm(*weights)
    cs = [[0] * n for _ in rows]
    for aj, wj, bj in zip(a, weights, zip(*bs)):
        live = [(c, v) for c, v in zip(cs, bj) if v]
        s, q = W // wj, 0
        for i in range(n, 0, -1):
            q = master[i] + aj * q
            t = s * q
            for c, v in live:
                c[i - 1] += v * t
    polys = []
    for r, (c, b, D) in enumerate(zip(cs, bs, Ds)):
        for j, aj in enumerate(a):
            acc = 0
            for ci in reversed(c):
                acc = acc * aj + ci
            if acc != W * b[j]:
                raise CrossCheckMismatch(f"interpolant misses its node value at j={j} in row {r}")
        den, Lpow, out = D * W, 1, []
        for ci in c:
            out.append(rat(ci * Lpow, den))
            Lpow *= L
        polys.append(Poly(out))
    return tuple(polys) if more else polys[0]
