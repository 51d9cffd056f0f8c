"""Hyperelliptic curves y^2 = f(x) of odd degree and their Jacobian group law.

The curve constructor checks that f is monic of odd degree at least 3. That
f is squarefree is the caller's job: two_torsion_points reads it off the
factorization's multiplicities and refuses a repeated factor.

Divisor classes are stored in Mumford representation: a pair (u, v) with u
monic, deg v < deg u <= g, and u | v^2 - f. The identity is (1, 0). The
constructor does not check these conditions; its callers build pairs that
meet them, and tests/oracles.py has a checked constructor. Addition
is Cantor composition followed by reduction. The composition runs the full
gcd(u1, u2, v1 + v2) branch, which is essential here: sums of 2-torsion
classes (v = 0) always land in the degenerate case. two_torsion_points,
which verify and torsion run, walks sums of such classes past degree g, so
the reduction loop runs on those commands.

For odd-degree models there is a single point at infinity and reduced
representatives are unique, so equality of classes is syntactic equality of
the reduced pairs.
"""

from __future__ import annotations

import functools

from .errors import CurveMismatch, EvenDegree, NotMonic, UnsupportedDegree
from .poly import Polynomial
from .poly import _add_raw, _divmod_raw, _exact_div_raw, _monic_raw, _mul_raw, _neg_raw
from .poly import _sub_raw, _xgcd_raw


class HyperellipticCurve:
    """y^2 = f(x) with f monic of odd degree 2g+1 over a field of odd characteristic.

    The constructor does not check that f is squarefree; two_torsion_points
    does, from the factorization of f.
    """

    __slots__ = ("f", "genus")

    def __init__(self, f: Polynomial):
        if f.is_zero:
            raise UnsupportedDegree("curve polynomial is zero")
        if f.degree % 2 == 0:
            raise EvenDegree(f"degree {f.degree} is not odd")
        if f.degree < 3:
            raise UnsupportedDegree("degree must be at least 3 for genus >= 1")
        if not f.is_monic:
            raise NotMonic("curve polynomial must be monic")
        self.f = f
        self.genus = (f.degree - 1) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, HyperellipticCurve) and other.f == self.f

    def __hash__(self) -> int:
        return hash(("curve", self.f))

    def __repr__(self) -> str:
        return f"HyperellipticCurve(y^2 = {self.f})"


class MumfordDivisor:
    """A reduced divisor class (u, v) on the Jacobian of its curve."""

    __slots__ = ("curve", "u", "v")

    def __init__(self, curve: HyperellipticCurve, u: Polynomial, v: Polynomial):
        self.curve = curve
        self.u = u
        self.v = v

    @property
    def is_identity(self) -> bool:
        return self.u.degree == 0

    def key(self):
        return (self.u.key(), self.v.key())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MumfordDivisor)
            and other.curve == self.curve
            and other.u == self.u
            and other.v == self.v
        )

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __repr__(self) -> str:
        return f"MumfordDivisor(u={self.u}, v={self.v})"


def add(D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """Cantor composition and reduction of divisor classes, on raw tuples."""
    curve = D1.curve
    if D2.curve != curve:
        raise CurveMismatch("divisors lie on different curves")
    ctx, f, g = curve.f.ctx, curve.f.coeffs, curve.genus
    u1, v1, u2, v2 = D1.u.coeffs, D1.v.coeffs, D2.u.coeffs, D2.v.coeffs
    mul, plus = functools.partial(_mul_raw, ctx), functools.partial(_add_raw, ctx)

    d1, e1, e2 = _xgcd_raw(ctx, u1, u2)
    d, c1, c2 = _xgcd_raw(ctx, d1, plus(v1, v2))
    u = _exact_div_raw(ctx, mul(u1, u2), mul(d, d))
    num = plus(mul(c1, plus(mul(e1, mul(u1, v2)), mul(e2, mul(u2, v1)))),
               mul(c2, plus(mul(v1, v2), f)))
    v = _divmod_raw(ctx, _exact_div_raw(ctx, num, d), u)[1]

    while len(u) - 1 > g:
        u = _monic_raw(ctx, _exact_div_raw(ctx, _sub_raw(ctx, f, mul(v, v)), u))
        v = _divmod_raw(ctx, _neg_raw(ctx, v), u)[1]
    return MumfordDivisor(curve, Polynomial._raw(ctx, u), Polynomial._raw(ctx, v))
