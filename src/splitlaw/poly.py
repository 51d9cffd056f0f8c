"""Univariate polynomials over field contexts, with complete factorization.

Coefficients are stored as raw context values (see ff) in ascending order,
normalized so the zero polynomial is the empty tuple and any other leading
coefficient is nonzero. Arithmetic, gcds and modular powers work over F_p
and F_{p^k} contexts alike; factorization, like root finding, needs F_p
coefficients (see below). Modular powers run on ff's fixed-modulus kernels
(_ppowmod over F_p, _qpowmod over F_{p^k}); over a prime field,
multiplication, division and gcds run on the int-tuple kernel too, and the
context-generic loops below serve them over F_{p^k} only.

Factorization follows the classic pipeline: squarefree decomposition, then
distinct-degree splitting (ff._pddf), then Cantor-Zassenhaus equal-degree
splitting over F_p, on raw coefficient tuples, wrapping Polynomial only at
the boundary. The randomness is an explicit seed, and factors are returned
in a canonical order, so results are reproducible.

Root finding takes f with F_p coefficients and a field F_q, q = p^k, always
an extension context, k >= 1 (F_p itself is ext_new(p, 1)), and has a
descent of its own. It isolates one root of each F_p factor of
gcd(x^q - x, f) by trace splitting over F_q and reads the others off its
Frobenius orbit r -> r^p (von zur Gathen & Gerhard, Modern Computer
Algebra, 14.3-14.5). The absolute trace Tr(a*x + b) takes F_p values at
the roots, so a split powers by (p - 1)/2 rather than (q - 1)/2; it is
assembled from x^(p^i) mod h over F_p (von zur Gathen & Shoup, "Computing
Frobenius maps and factoring polynomials", Comput. Complexity 2, 1992).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from . import ff
from .errors import ZeroDivisor


def _norm(coeffs: list, zero) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == zero:
        n -= 1
    return tuple(coeffs[:n])


def _add_raw(ctx, a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = ctx.add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _norm(out, ctx.zero)


def _sub_raw(ctx, a: tuple, b: tuple) -> tuple:
    out = list(a) + [ctx.zero] * (len(b) - len(a))
    sub = ctx.sub
    for i, c in enumerate(b):
        out[i] = sub(out[i], c)
    return _norm(out, ctx.zero)


def _neg_raw(ctx, a: tuple) -> tuple:
    neg = ctx.neg
    return tuple(neg(c) for c in a)


def _mul_raw(ctx, a: tuple, b: tuple) -> tuple:
    if type(ctx) is ff.PrimeFieldContext:
        return ff._pmul(a, b, ctx.p)
    if not a or not b:
        return ()
    zero = ctx.zero
    add, mul = ctx.add, ctx.mul
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        for j, bj in enumerate(b):
            if bj != zero:
                out[i + j] = add(out[i + j], mul(ai, bj))
    return _norm(out, zero)


def _divmod_raw(ctx, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder; b must be nonzero."""
    if type(ctx) is ff.PrimeFieldContext:
        return ff._pdivmod(a, b, ctx.p)
    zero = ctx.zero
    db = len(b) - 1
    if len(a) < len(b):
        return (), a
    binv = ctx.one if b[-1] == ctx.one else ctx.inv(b[-1])
    sub, mul = ctx.sub, ctx.mul
    r = list(a)
    q = [zero] * (len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        lead = r[top]
        if lead == zero:
            continue
        c = mul(lead, binv)
        q[top - db] = c
        for i in range(db + 1):
            r[top - db + i] = sub(r[top - db + i], mul(c, b[i]))
    return _norm(q, zero), _norm(r, zero)


def _monic_raw(ctx, a: tuple) -> tuple:
    if not a or a[-1] == ctx.one:
        return a
    inv = ctx.inv(a[-1])
    mul = ctx.mul
    return tuple(mul(c, inv) for c in a)


def _gcd_raw(ctx, a: tuple, b: tuple) -> tuple:
    if type(ctx) is ff.PrimeFieldContext:
        return ff._pgcd(a, b, ctx.p)
    while b:
        a, b = b, _divmod_raw(ctx, a, b)[1]
    return _monic_raw(ctx, a)


def _xgcd_raw(ctx, a: tuple, b: tuple) -> tuple[tuple, tuple, tuple]:
    """Monic g with g = s*a + t*b."""
    if type(ctx) is ff.PrimeFieldContext:
        return ff._pxgcd(a, b, ctx.p)
    r0, r1 = a, b
    s0, s1 = (ctx.one,), ()
    t0, t1 = (), (ctx.one,)
    while r1:
        q, r = _divmod_raw(ctx, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_raw(ctx, s0, _mul_raw(ctx, q, s1))
        t0, t1 = t1, _sub_raw(ctx, t0, _mul_raw(ctx, q, t1))
    if r0 and r0[-1] != ctx.one:
        inv = ctx.inv(r0[-1])
        scale = (inv,)
        r0 = _mul_raw(ctx, r0, scale)
        s0 = _mul_raw(ctx, s0, scale)
        t0 = _mul_raw(ctx, t0, scale)
    return r0, s0, t0


def _exact_div_raw(ctx, a: tuple, b: tuple) -> tuple:
    q, r = _divmod_raw(ctx, a, b)
    if r:
        raise ArithmeticError("division expected to be exact left a remainder")
    return q


def _deriv_raw(ctx, a: tuple) -> tuple:
    mul, element = ctx.mul, ctx.element
    return _norm([mul(a[i], element(i)) for i in range(1, len(a))], ctx.zero)


def _powmod_raw(ctx, a: tuple, e: int, m: tuple) -> tuple:
    if type(ctx) is ff.PrimeFieldContext:
        return ff._ppowmod(a, e, m, ctx.p)
    return ff._qpowmod(a, e, m, ctx.modulus, ctx.base.p)


class Polynomial:
    """A normalized univariate polynomial over a field context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: ff.FieldContext, coeffs: Iterable = ()):
        self.ctx = ctx
        self.coeffs = _norm([ctx.element(c) for c in coeffs], ctx.zero)

    @classmethod
    def _raw(cls, ctx, coeffs: tuple) -> "Polynomial":
        self = object.__new__(cls)
        self.ctx = ctx
        self.coeffs = coeffs
        return self

    @classmethod
    def zero(cls, ctx) -> "Polynomial":
        return cls._raw(ctx, ())

    # -- structure ----------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    def key(self):
        """Canonical sort key: degree, then coefficient vector."""
        return (self.degree, self.coeffs)

    # -- arithmetic ---------------------------------------------------------
    def pow_mod(self, e: int, modulus: "Polynomial") -> "Polynomial":
        if modulus.ctx != self.ctx:
            raise ValueError("polynomials from different contexts")
        if modulus.is_zero:
            raise ZeroDivisor("reduction modulo the zero polynomial")
        return Polynomial._raw(self.ctx, _powmod_raw(self.ctx, self.coeffs, e, modulus.coeffs))

    # -- identity -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.ctx == self.ctx
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == self.ctx.zero:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append("x" if c == self.ctx.one else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == self.ctx.one else f"{c}*x^{i}")
        return " + ".join(parts)


class IntegerPolynomial:
    """A normalized polynomial over the integers, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        vals = [int(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.coeffs = tuple(vals)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def evaluate(self, n: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def derivative(self) -> "IntegerPolynomial":
        return IntegerPolynomial(
            i * self.coeffs[i] for i in range(1, len(self.coeffs))
        )

    def reduce_mod(self, p: int) -> Polynomial:
        """Reduction mod the prime p, over F_p."""
        return Polynomial._raw(ff.PrimeFieldContext(p), _norm([c % p for c in self.coeffs], 0))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerPolynomial) and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash(("Zx", self.coeffs))

    def __repr__(self) -> str:
        return f"IntegerPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = f"{mag}"
            elif i == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


@dataclass(frozen=True)
class SplittingType:
    """Sorted multiset of (residue degree, multiplicity) pairs."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def all_linear(self) -> bool:
        return all(d == 1 for d, _ in self.pairs)

    @property
    def squarefree(self) -> bool:
        return all(m == 1 for _, m in self.pairs)

    def __str__(self) -> str:
        return " ".join(f"{d}^{m}" for d, m in self.pairs)


@dataclass(frozen=True)
class Factorization:
    """Complete factorization unit * prod(factor^multiplicity)."""

    unit: object  # raw leading coefficient of the input
    factors: tuple[tuple[Polynomial, int], ...]

    def splitting_type(self) -> SplittingType:
        return SplittingType(tuple(sorted((p.degree, m) for p, m in self.factors)))


def _squarefree_parts(ctx, f: tuple) -> list[tuple[tuple, int]]:
    """Monic pairwise-coprime squarefree parts of monic f over F_p, with multiplicities."""
    p = ctx.char
    d = _deriv_raw(ctx, f)
    if not d:  # f is a polynomial in x^p, and c^p = c in F_p
        return [(g, m * p) for g, m in _squarefree_parts(ctx, f[::p])]
    out: list[tuple[tuple, int]] = []
    c = _gcd_raw(ctx, f, d)
    w = _exact_div_raw(ctx, f, c)
    i = 1
    while len(w) > 1:
        y = _gcd_raw(ctx, w, c)
        z = _exact_div_raw(ctx, w, y)
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = _exact_div_raw(ctx, c, y)
        i += 1
    if len(c) > 1:
        out.extend((g, m * p) for g, m in _squarefree_parts(ctx, c[::p]))
    return out


def _random_split(ctx, f: tuple, d: int, rng: random.Random) -> tuple:
    """A proper monic factor of monic f, a product of degree-d irreducibles (q odd).

    Cantor-Zassenhaus: a random t of degree below deg f either shares a
    factor with f or, with probability about 1/2, splits it through
    gcd(t^((q^d - 1)/2) - 1, f). Gives up after 128 draws.
    """
    exponent = (ctx.order**d - 1) // 2
    one = (ctx.one,)
    n = len(f)
    for _ in range(128):
        t = _norm([ctx.rand_raw(rng) for _ in range(n - 1)], ctx.zero)
        if len(t) < 2:
            continue
        g = _gcd_raw(ctx, t, f)
        if 1 < len(g) < n:
            return g  # lucky split by a shared factor
        g = _gcd_raw(ctx, _sub_raw(ctx, _powmod_raw(ctx, t, exponent, f), one), f)
        if 1 < len(g) < n:
            return g
    raise RuntimeError("equal-degree splitting failed to converge")


def _equal_degree_split(ctx, f: tuple, d: int, rng: random.Random) -> list[tuple]:
    """Split a monic product of degree-d irreducibles into its factors (q odd)."""
    if len(f) - 1 == d:
        return [f]
    g = _random_split(ctx, f, d, rng)
    rest = _exact_div_raw(ctx, f, g)
    return _equal_degree_split(ctx, g, d, rng) + _equal_degree_split(ctx, rest, d, rng)


def factorize(f: Polynomial, seed) -> Factorization:
    """Complete factorization over F_p into monic irreducibles, canonical order.

    Deterministic for a fixed seed; the result is verified by multiplying
    the factors back together.
    """
    ctx = f.ctx
    if not isinstance(ctx, ff.PrimeFieldContext):
        raise ValueError("factorize needs coefficients in a prime field")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.coeffs[-1]
    fm = _monic_raw(ctx, f.coeffs)
    rng = None  # built at the first product of several degree-d factors
    factors: list[tuple[tuple, int]] = []
    if len(fm) > 1:
        for part, mult in _squarefree_parts(ctx, fm):
            for prod, d in ff._pddf(part, ctx.p):
                if rng is None and len(prod) - 1 > d:
                    rng = random.Random(seed)
                factors.extend((irr, mult) for irr in _equal_degree_split(ctx, prod, d, rng))
    factors.sort(key=lambda fm_: (len(fm_[0]), fm_[0]))
    product = (unit,)
    for irr, mult in factors:
        for _ in range(mult):
            product = _mul_raw(ctx, product, irr)
    if product != f.coeffs:
        raise AssertionError("factorization failed verification by multiplication")
    wrapped = tuple((Polynomial._raw(ctx, irr), mult) for irr, mult in factors)
    return Factorization(unit=unit, factors=wrapped)


def _trace_split(ctx, g: tuple, xs: list, rng: random.Random) -> tuple:
    """A proper monic factor of monic g over ctx = F_q, g a product of distinct x - r.

    xs[i] = x^(p^i) mod h over F_p, i < k, for some h with g | h, q = p^k.
    For random a, b in F_q, T = sum_i (a^(p^i) xs[i] + b^(p^i)) is
    Tr(a*x + b) mod h, so T(r) = Tr(a*r + b) lies in F_p at every root r,
    and gcd(T, g) or gcd(T^((p - 1)/2) - 1, g) splits g with probability
    about 1/2. b is needed: for x^2 - c, c a non-residue and p = 1 mod 4,
    the roots r and r^p = -r have traces t and -t, one quadratic character.
    Gives up after 128 draws.
    """
    p = ctx.base.p
    exponent = (p - 1) // 2
    one = (ctx.one,)
    n = len(g)
    for _ in range(128):
        a, b = ctx.rand_raw(rng), ctx.rand_raw(rng)
        t = [[0] * ctx.k for _ in range(max(map(len, xs)))]  # T's coefficients as F_p vectors
        for x_i in xs:
            for row, c in zip(t, x_i):
                if c:
                    for j, e in enumerate(a):
                        row[j] += c * e
            for j, e in enumerate(b):
                t[0][j] += e
            a, b = ctx.frobenius(a), ctx.frobenius(b)
        T = _norm([tuple(c % p for c in row) for row in t], ctx.zero)
        for cand in (T, _sub_raw(ctx, _powmod_raw(ctx, T, exponent, g), one)):
            part = _gcd_raw(ctx, cand, g)
            if 1 < len(part) < n:
                return part
    raise RuntimeError("trace splitting failed to converge")


def roots_in(f: Polynomial, ctx: ff.ExtFieldContext, seed) -> list:
    """All distinct roots in ctx = F_q, q = p^k, of f over the prime field F_p.

    h = gcd(x^q - x, f) is formed over F_p, with the table
    X_i = x^(p^i) mod h, i < k. Then, until h = 1, one root r of h is
    isolated over ctx by trace splitting, always keeping the smaller part
    of a split: each split powers Tr(a*x + b) by (p - 1)/2, not a random
    polynomial by (q - 1)/2. The rest of the roots of r's minimal
    polynomial m are its Frobenius orbit r, r^p, r^(p^2), ..., and m is
    divided out of h. The descent draws from random.Random(seed), but the
    roots are returned as raw values in ascending order, so the result does
    not depend on the seed. f must have F_p coefficients, and ctx is an
    extension context even at k = 1: F_p is ext_new(p, 1), roots 1-tuples.
    """
    if not isinstance(ctx, ff.ExtFieldContext):
        raise ValueError("roots_in needs an extension context; take F_p as ext_new(p, 1)")
    if f.is_zero:
        raise ValueError("the zero polynomial has every element as a root")
    if f.ctx != ctx.base:
        raise ValueError("f must have coefficients in the prime field of ctx")
    p = ctx.base.p
    x = Polynomial._raw(f.ctx, (0, 1))
    h = ff._pgcd(ff._psub(x.pow_mod(ctx.order, f).coeffs, x.coeffs, p), f.coeffs, p)
    xs = [x.coeffs]  # modulo the first h, which every later h divides
    while len(xs) < ctx.k and len(h) > 2:
        xs.append(ff._ppowmod(xs[-1], p, h, p))
    rng = random.Random(seed)
    roots = []
    while len(h) > 1:
        g = tuple(ctx.embed(c) for c in h)
        while len(g) > 2:
            part = _trace_split(ctx, g, xs, rng)
            g = part if 2 * len(part) <= len(g) + 1 else _exact_div_raw(ctx, g, part)
        r = ctx.neg(g[0])
        orbit = [r]
        e = ctx.frobenius(r)
        while e != r:
            orbit.append(e)
            e = ctx.frobenius(e)
        m = (ctx.one,)
        for e in orbit:
            m = _mul_raw(ctx, m, (ctx.neg(e), ctx.one))
        h = _exact_div_raw(f.ctx, h, tuple(c[0] for c in m))  # m has F_p coefficients
        roots.extend(orbit)
    roots.sort()
    return roots
