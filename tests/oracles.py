"""Reference implementations the tests check the package against; no command runs them.

Context-generic polynomial product, division, xgcd and modular power
(element by element through the field context's methods; the reference
for both of ff's polynomial kernels), field powers by square-and-multiply,
brute-force Jacobian enumeration (with a cap), inverses and multiples of
classes, a checked Mumford constructor for pairs written by hand, and the
basis of embedded roots that backs the matrices `frobenius` reports.
"""

import itertools
from dataclasses import dataclass

from splitlaw import HyperellipticCurve, MumfordDivisor, Polynomial, add, ff
from splitlaw.poly import _divmod_raw, _mul_raw, _neg_raw, _norm, _sub_raw
from splitlaw.torsion import _splitting_data


def elements(ctx):
    """Every raw element of a field, in ascending order."""
    if isinstance(ctx, ff.PrimeFieldContext):
        return iter(range(ctx.p))
    return itertools.product(range(ctx.base.p), repeat=ctx.k)


def mul(ctx, a: tuple, b: tuple) -> tuple:
    """a*b, one context product per pair of coefficients."""
    if not a or not b:
        return ()
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return _norm(out, ctx.zero)


def divmod_(ctx, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by nonzero b, by schoolbook long division."""
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    binv = ctx.inv(b[-1])
    r = list(a)
    q = [ctx.zero] * (len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        c = q[top - db] = ctx.mul(r[top], binv)
        for i in range(db + 1):
            r[top - db + i] = ctx.sub(r[top - db + i], ctx.mul(c, b[i]))
    return _norm(q, ctx.zero), _norm(r, ctx.zero)


def xgcd(ctx, a: tuple, b: tuple) -> tuple[tuple, tuple, tuple]:
    """(g, s, t) with monic g = s*a + t*b, by the extended Euclidean algorithm."""
    r0, r1 = a, b
    s0, s1 = (ctx.one,), ()
    t0, t1 = (), (ctx.one,)
    while r1:
        q, r = divmod_(ctx, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_raw(ctx, s0, mul(ctx, q, s1))
        t0, t1 = t1, _sub_raw(ctx, t0, mul(ctx, q, t1))
    if r0:
        scale = (ctx.inv(r0[-1]),)
        r0, s0, t0 = mul(ctx, r0, scale), mul(ctx, s0, scale), mul(ctx, t0, scale)
    return r0, s0, t0


def powmod(ctx, a: tuple, e: int, m: tuple) -> tuple:
    """a^e mod nonzero m, by right-to-left squaring with mul and divmod_."""
    r, b = (ctx.one,), divmod_(ctx, a, m)[1]
    while e:
        if e & 1:
            r = divmod_(ctx, mul(ctx, r, b), m)[1]
        b = divmod_(ctx, mul(ctx, b, b), m)[1]
        e >>= 1
    return r


def power(ctx, a, e: int):
    """a^e for a raw element a and e >= 0, by square-and-multiply on ctx.mul."""
    r = ctx.one
    for bit in bin(e)[2:]:
        r = ctx.mul(r, r)
        if bit == "1":
            r = ctx.mul(r, a)
    return r


def evaluate(f: Polynomial, x):
    """f(x) by Horner's rule, for a raw element x of f's field."""
    ctx = f.ctx
    acc = ctx.zero
    for c in reversed(f.coeffs):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def embed_poly(f: Polynomial, ext: ff.ExtFieldContext) -> Polynomial:
    """Lift a prime-field polynomial into an extension of the same base."""
    if f.ctx != ext.base:
        raise ValueError("f must have coefficients in the prime field of ext")
    return Polynomial._raw(ext, tuple(ext.embed(c) for c in f.coeffs))


def identity(C: HyperellipticCurve) -> MumfordDivisor:
    ctx = C.f.ctx
    return MumfordDivisor(C, Polynomial._raw(ctx, (ctx.one,)), Polynomial.zero(ctx))


def divisor(C: HyperellipticCurve, u: Polynomial, v: Polynomial) -> MumfordDivisor:
    """The reduced class (u, v) on C, checked: u monic, deg v < deg u <= g, u | v^2 - f."""
    ctx = C.f.ctx
    if u.ctx != ctx or v.ctx != ctx:
        raise ValueError("divisor polynomials live over a different field")
    if not u.is_monic:
        raise ValueError("u must be monic")
    if u.degree > C.genus:
        raise ValueError(f"deg u = {u.degree} exceeds genus {C.genus}")
    if not v.is_zero and v.degree >= u.degree:
        raise ValueError("deg v must be below deg u")
    if _divmod_raw(ctx, _sub_raw(ctx, _mul_raw(ctx, v.coeffs, v.coeffs), C.f.coeffs), u.coeffs)[1]:
        raise ValueError("u does not divide v^2 - f")
    return MumfordDivisor(C, u, v)


def neg(D: MumfordDivisor) -> MumfordDivisor:
    """The inverse class (u, -v mod u)."""
    v = _divmod_raw(D.u.ctx, _neg_raw(D.u.ctx, D.v.coeffs), D.u.coeffs)[1]
    return MumfordDivisor(D.curve, D.u, Polynomial._raw(D.u.ctx, v))


def scalar_mul(n: int, D: MumfordDivisor) -> MumfordDivisor:
    """n-fold sum by double-and-add; 0*D is the identity."""
    if n < 0:
        raise ValueError("scalar must be nonnegative")
    acc = identity(D.curve)
    while n:
        if n & 1:
            acc = add(acc, D)
        D = add(D, D)
        n >>= 1
    return acc


def enumerate_jacobian(C: HyperellipticCurve, cap: int = 10**6) -> list[MumfordDivisor]:
    """Every reduced divisor on C by exhaustive scan, in canonical order.

    The scan walks all monic u of degree <= g and all v of degree < deg u,
    keeping pairs with u | v^2 - f; it refuses to start when the candidate
    count exceeds cap.
    """
    ctx = C.f.ctx
    candidates = sum(ctx.p ** (2 * d) for d in range(C.genus + 1))
    if candidates > cap:
        raise ValueError(f"{candidates} candidate pairs exceed cap {cap}")
    out = [identity(C)]
    raws = list(elements(ctx))
    for d in range(1, C.genus + 1):
        vs = [_norm(list(vt), ctx.zero) for vt in itertools.product(raws, repeat=d)]
        for tail in itertools.product(raws, repeat=d):
            u = tail + (ctx.one,)
            fu = _divmod_raw(ctx, C.f.coeffs, u)[1]
            # u | v^2 - f exactly when v^2 and f agree mod u
            out.extend(
                MumfordDivisor(C, Polynomial._raw(ctx, u), Polynomial._raw(ctx, v))
                for v in vs
                if _divmod_raw(ctx, _mul_raw(ctx, v, v), u)[1] == fu
            )
    out.sort(key=MumfordDivisor.key)
    return out


def embed_root(e, C: HyperellipticCurve) -> MumfordDivisor:
    """The class of (x - e, 0) for a raw root e of C's polynomial; it has order 2."""
    ctx = C.f.ctx
    if evaluate(C.f, e) != ctx.zero:
        raise ValueError(f"{e!r} is not a root of the curve polynomial")
    return MumfordDivisor(C, Polynomial._raw(ctx, (ctx.neg(e), ctx.one)), Polynomial.zero(ctx))


@dataclass(frozen=True)
class TorsionBasis:
    """Roots of f in its splitting field and the basis they generate."""

    ctx: ff.FieldContext  # splitting field of f mod p
    curve: HyperellipticCurve  # base-changed curve over ctx
    roots: tuple  # all 2g+1 raw roots, by factor and Frobenius orbit
    basis: tuple[MumfordDivisor, ...]  # embedded roots 1..2g


def torsion_basis(f: Polynomial, p: int, seed, *, cap: int = ff.DEFAULT_EXT_CAP) -> TorsionBasis:
    """Basis v_1..v_2g of the 2-torsion over the splitting field of f mod p.

    The splitting field and root order are those of frobenius_permutation
    for the same seed. Verifies on construction: every v_i has order
    exactly 2, all nonempty subset sums of the basis are nonzero
    (exhaustive for g <= 3), and the sum of all 2g+1 embedded roots is the
    identity.
    """
    ctx, roots = _splitting_data(f, p, seed, cap)
    curve = HyperellipticCurve(embed_poly(f, ctx))
    g = curve.genus
    basis = tuple(embed_root(e, curve) for e in roots[: 2 * g])
    for D in basis:
        assert not D.is_identity and add(D, D).is_identity, f"{D!r} does not have order 2"
    if g <= 3:
        for mask in range(1, 1 << (2 * g)):
            acc = identity(curve)
            for i in range(2 * g):
                if mask >> i & 1:
                    acc = add(acc, basis[i])
            assert not acc.is_identity, f"basis subset {mask:b} sums to the identity"
    total = identity(curve)
    for e in roots:
        total = add(total, embed_root(e, curve))
    assert total.is_identity, "embedded roots do not sum to the identity"
    return TorsionBasis(ctx=ctx, curve=curve, roots=roots, basis=basis)
