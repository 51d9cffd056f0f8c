"""Exact arithmetic in prime fields F_p (p odd) and extensions F_{p^k}.

Raw element encodings:

  - prime field: Python int in [0, p)
  - extension of degree k: tuple of k ints in [0, p), the coefficients of
    the residue class modulo a monic irreducible polynomial, ascending

A field element is its raw value. Contexts implement arithmetic on raw
values, convert ints and int sequences to them (``element``), and are
immutable after construction, so they can be shared freely. An extension
tabulates y^(p*j) modulo its modulus once, so Frobenius a -> a^p is a
table product rather than a power. The only source of randomness is the
explicit seed passed to ``ext_new``.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence, Union

from .errors import ExtensionTooLarge, NonInvertible

MODULUS_BOUND = 1 << 31  # residue products must fit a double-width int comfortably
DEFAULT_EXT_CAP = 64

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# below this, bases 2, 3, 5, 7 alone are a proof (Jaeschke 1993); it is
# 151 * 751 * 28351, the least strong pseudoprime to all four
_MR_FOUR_BASES_BOUND = 3_215_031_751
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test, valid for all n < 2**64."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:4] if n < _MR_FOUR_BASES_BOUND else _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# The F_p[x] kernel: polynomials over a prime field as int tuples (ascending,
# normalized: no trailing zero), p passed explicitly. It backs F_{p^k}, every
# prime-field Polynomial in poly.py and, called directly, factorization;
# _pddf is its one distinct-degree loop and _prem its one remainder loop.
# _ppowmod powers modulo a fixed m of degree n on one packed int of n W-bit
# lanes (Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009): one
# big-int square per step, top lanes folded through rows x^k mod m, and one
# lane-wise Barrett step (Barrett, CRYPTO '86) for lanes below B = 5np^2,
# with W = (B*mu).bit_length() + 1, mu = 2^s // p and s = B.bit_length(),
# set per call from p and n.
#
# The F_{p^k}[x] kernel (the _q functions) takes polynomials over an
# extension context: tuples of k-tuples, normalized. Inside, an operand is
# flat, x^i y^j at index i*(2k - 1) + j, so a product of two operands is
# one delayed-reduction loop whose slots of 2k - 1 lanes never overlap.
# Each slot is folded once, through the context's rows y^j mod the field
# modulus for k <= j <= 2k - 2, and reduced % p once. Division inverts the
# divisor's leading coefficient once. _qpowmod packs the flat layout into
# one int of W-bit lanes and reduces it with lane-wise Barrett steps for
# lanes below B = 4nkp^2, W set per call from p, n = deg m and k as above.
# Algorithms: von zur Gathen & Gerhard, Modern Computer Algebra, ch. 2-4,
# 9, 14.
# ---------------------------------------------------------------------------


def _pnorm(c: Sequence[int]) -> tuple:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    """Product with delayed reduction: one % p per coefficient."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    out = [c % p for c in out]
    return tuple(out) if out[-1] else _pnorm(out)


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _pnorm(out)


def _pdivmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by nonzero b; a longer than b is normalized."""
    db = len(b) - 1
    if len(a) <= db:
        return (), _pnorm(a)
    binv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    r = list(a)
    q = [0] * (len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        lead = r[top] % p
        if lead:
            c = lead * binv % p
            q[top - db] = c
            for i in range(db):
                r[top - db + i] -= c * b[i]
    r = [c % p for c in r[:db]]
    return tuple(q), (tuple(r) if r and r[-1] else _pnorm(r))


def _prem(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    """Remainder of a by nonzero b, without building the quotient."""
    db = len(b) - 1
    if len(a) <= db:
        return _pnorm(a)
    binv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    r = list(a)
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top] * binv % p
        if c:
            for i in range(db):
                r[top - db + i] -= c * b[i]
    r = [c % p for c in r[:db]]
    return tuple(r) if r and r[-1] else _pnorm(r)


def _pexact_div(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    """The quotient a / b, checked to leave no remainder."""
    q, r = _pdivmod(a, b, p)
    if r:
        raise ArithmeticError("division expected to be exact left a remainder")
    return q


def _ppowmod(a: Sequence[int], e: int, m: Sequence[int], p: int) -> tuple:
    """a^e mod nonzero m; e = 0 gives (1,) whatever m is.

    Left-to-right square-and-multiply modulo the fixed m, scaled to monic, on
    one packed int: a residue of degree < n = deg m is R = sum r_i 2^(iW), so
    R*R is one product of 2n - 1 carry-free lanes. Each top lane k is reduced
    % p and folded in as that multiple of the packed row x^k mod m; for a = x,
    "times x" is a one-lane shift plus one fold. Each step ends with one
    lane-wise Barrett step, L -= p*((L*mu >> s) & qmask), leaving lanes in
    [0, 2p). Lanes enter it below B = 5np^2 (a square < 4np^2, its folds
    < (n - 1)p^2, a shift-and-fold < p^2); s = B.bit_length(), mu = 2^s // p
    and W = (B*mu).bit_length() + 1 keep each L*mu in its lane.
    """
    if not e:
        return (1,)
    n = len(m) - 1
    if m[-1] != 1:
        inv = pow(m[-1], -1, p)
        m = [c * inv % p for c in m]
    base = _prem(a, m, p)
    if not base:
        return ()
    bound = 5 * n * p * p
    s = bound.bit_length()
    mu = (1 << s) // p
    w = (bound * mu).bit_length() + 1
    lane = (1 << w) - 1
    low = (1 << n * w) - 1
    qmask = ((1 << w - s) - 1) * (low // lane)  # W - s ones in each of n lanes

    def pack(c):
        r = 0
        for v in reversed(c):
            r = r << w | v
        return r

    x_n = row = [-c % p for c in m[:n]]
    folds = [(n * w, pack(row))]
    for k in range(n + 1, 2 * n - 1):  # row = x^k mod m
        row = [(u + row[-1] * c) % p for u, c in zip([0, *row[:-1]], x_n)]
        folds.append((k * w, pack(row)))
    top, row_n = folds.pop() if n == 1 else folds[0]  # at n = 1 a square is one lane
    b = r = pack(base)
    steps = bin(e)[3:]  # "0": square; "1": square times x; "b": times the base
    steps = steps if base == (0, 1) else steps.replace("1", "0b")
    for step in steps:
        t = r * b if step == "b" else r * r
        r = t & low
        for shift, row_k in folds:
            r += (t >> shift & lane) % p * row_k
        if step == "1":
            r <<= w
            r = (r & low) + (r >> top) % p * row_n
        r -= p * (r * mu >> s & qmask)
    return _pnorm([(r >> i * w & lane) % p for i in range(n)])


def _qflat(a: Sequence[tuple], k: int) -> list:
    """a over F_{p^k} as one flat int list: x^i y^j at index i*(2k - 1) + j."""
    pad = (0,) * (k - 1)
    return [u for c in a for u in (*c, *pad)]


def _qslot(s: list, lo: int, ctx) -> tuple:
    """The slot of flat s at lo, folded mod the field modulus in place, as a reduced element."""
    p = ctx.base.p
    for j, row in ctx._ytab:
        c = s[lo + j] % p
        if c:
            for t, y in enumerate(row, lo):
                s[t] += c * y
    return tuple(c % p for c in s[lo : lo + ctx.k])


def _qfold(s: list, ctx) -> tuple:
    """Flat s reduced slot by slot, as a normalized polynomial over F_{p^k}."""
    out = [_qslot(s, lo, ctx) for lo in range(0, len(s), 2 * ctx.k - 1)]
    while out and not any(out[-1]):
        out.pop()
    return tuple(out)


def _qmul(a: Sequence[tuple], b: Sequence[tuple], ctx, c: Sequence[tuple] = ()) -> tuple:
    """c + a*b over F_{p^k}: one delayed-reduction loop on the flat layouts."""
    if not a or not b:
        return tuple(c)
    w = 2 * ctx.k - 1
    s = _qflat(c, ctx.k) + [0] * ((len(a) + len(b) - 1 - len(c)) * w)
    bs = [(t, v) for t, v in enumerate(_qflat(b, ctx.k)) if v]
    for i, u in enumerate(_qflat(a, ctx.k)):
        if u:
            for t, v in bs:
                s[i + t] += u * v
    return _qfold(s, ctx)


def _qdivmod(a: Sequence[tuple], b: Sequence[tuple], ctx) -> tuple[tuple, tuple]:
    """Quotient and remainder over F_{p^k} of a by nonzero b; a longer than b is normalized.

    One inverse of b's leading coefficient; each slot of a is folded once,
    as it becomes the top, and the quotient coefficient is that slot times
    the inverse.
    """
    db = len(b) - 1
    if len(a) <= db:
        return (), tuple(a)
    p, k = ctx.base.p, ctx.k
    w = 2 * k - 1
    binv = None if b[-1] == ctx.one else ctx.inv(b[-1])
    nb = [(t, -v % p) for t, v in enumerate(_qflat(b[:db], k)) if v]  # -b below its lead
    r = _qflat(a, k)
    q = []
    for top in range((len(a) - 1) * w, db * w - 1, -w):
        c = _qslot(r, top, ctx)
        if binv is not None and any(c):
            c = ctx.mul(c, binv)
        q.append(c)
        for j, u in enumerate(c, top - db * w):
            if u:
                for t, v in nb:
                    r[j + t] += u * v
    return tuple(q[::-1]), _qfold(r[: db * w], ctx)


def _qgcd(a: Sequence[tuple], b: Sequence[tuple], ctx) -> tuple:
    """Monic gcd over F_{p^k}: Euclid on remainders, then one scaling by an inverse."""
    while b:
        a, b = b, _qdivmod(a, b, ctx)[1]
    if not a or a[-1] == ctx.one:
        return tuple(a)
    inv = ctx.inv(a[-1])
    return tuple(ctx.mul(c, inv) for c in a)


def _qxgcd(a: Sequence[tuple], b: Sequence[tuple], ctx) -> tuple[tuple, tuple, tuple]:
    """(g, s, t) over F_{p^k} with monic g = s*a + t*b."""
    one = ctx.one
    r0, r1 = a, b
    s0, s1 = (one,), ()
    t0, t1 = (), (one,)
    while r1:
        q, r = _qdivmod(r0, r1, ctx)
        q = tuple(ctx.neg(c) for c in q)
        r0, r1 = r1, r
        s0, s1 = s1, _qmul(q, s1, ctx, s0)
        t0, t1 = t1, _qmul(q, t1, ctx, t0)
    if r0 and r0[-1] != one:
        inv = ctx.inv(r0[-1])
        r0, s0, t0 = (tuple(ctx.mul(c, inv) for c in u) for u in (r0, s0, t0))
    return tuple(r0), s0, t0


def _qpowmod(a: Sequence[tuple], e: int, m: Sequence[tuple], ctx) -> tuple:
    """a^e mod nonzero m over F_{p^k} = ctx; e = 0 gives one whatever m is.

    _ppowmod one level up, on one packed int: with n = deg m, slot i of
    2k - 1 lanes holds the coefficient of x^i, lane j of it that of y^j, so
    a product of residues is one big-int product of 2n - 1 carry-free
    slots. Reduction, with m scaled to monic: one lane-wise Barrett step
    (lanes to [0, 2p)), y^j, j >= k, folded out of every slot through the
    context's rows y^j mod the field modulus, Barrett, each slot x^i,
    i >= n, folded in as that multiple of the packed row x^i mod m,
    Barrett, y folded out again and a last Barrett. Every lane then stays
    below B = 4nkp^2, and s = B.bit_length(), mu = 2^s // p and
    W = (B*mu).bit_length() + 1 are set per call from p, n and k.
    """
    if not e:
        return (ctx.one,)
    n = len(m) - 1
    if n < 1:
        return ()
    p, k = ctx.base.p, ctx.k
    if m[-1] != ctx.one:
        inv = ctx.inv(m[-1])
        m = tuple(ctx.mul(c, inv) for c in m)
    if len(a) > n:
        a = _qdivmod(a, m, ctx)[1]
    if not a:
        return ()
    bound = 4 * n * k * p * p
    s = bound.bit_length()
    mu = (1 << s) // p
    w = (bound * mu).bit_length() + 1
    lane = (1 << w) - 1
    slot = (2 * k - 1) * w
    every = ((1 << (2 * n - 1) * slot) - 1) // ((1 << slot) - 1)  # one bit at each slot's start
    kmask = (1 << k * w) - 1  # lanes below k of one slot
    keep = kmask * every
    first = lane * every  # lane 0 of every slot
    qmask = ((1 << w - s) - 1) * (every * ((1 << slot) - 1) // lane)  # W - s ones in every lane
    low = (1 << n * slot) - 1

    def pack(c):
        r = 0
        for u in reversed(_qflat(c, k)):
            r = r << w | u
        return r

    def barrett(t):  # every lane below B to [0, 2p)
        return t - p * (t * mu >> s & qmask)

    def yfold(t):  # lanes j >= k of every slot folded below k
        f = t & keep
        for shift, y in ys:
            f += (t >> shift & first) * y
        return barrett(f)

    def xfold(t, xs):  # slots i >= n folded below n
        r = t & low
        for shift, x in xs:
            r += (t >> shift & kmask) * x
        return yfold(barrett(r))

    ys = [(j * w, pack([row])) for j, row in ctx._ytab]
    xs = [(n * slot, pack([tuple(-u % p for u in c) for c in m[:n]]))]  # x^n mod m
    for i in range(n + 1, 2 * n - 1):  # x^i mod m
        xs.append((i * slot, xfold(xs[-1][1] << slot, xs[:1])))
    b = r = pack(a)
    for bit in bin(e)[3:]:
        r = xfold(yfold(barrett(r * r)), xs)
        if bit == "1":
            r = xfold(yfold(barrett(r * b)), xs)
    return _qfold([r >> i * w & lane for i in range(n * (2 * k - 1))], ctx)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    """Monic gcd, without cofactors: Euclid on remainders, no quotient built."""
    while b:
        a, b = b, _prem(a, b, p)
    if not a or a[-1] == 1:
        return tuple(a)
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _pxgcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[tuple, tuple, tuple]:
    """(g, s, t) with monic g = s*a + t*b."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    if r0 and r0[-1] != 1:
        scale = (pow(r0[-1], -1, p),)
        r0, s0, t0 = _pmul(r0, scale, p), _pmul(s0, scale, p), _pmul(t0, scale, p)
    return tuple(r0), s0, t0


def _pddf(f: Sequence[int], p: int) -> Iterator[tuple[tuple, int]]:
    """Parts (g, d) of squarefree monic f by increasing d, g = gcd(x^(p^d) - x, f).

    g is the product of the degree-d irreducible factors once lower degrees
    are divided out; the last part is the irreducible rest once deg f < 2(d + 1).
    """
    x = w = (0, 1)
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        w = _ppowmod(w, p, f, p)  # reduces w modulo the current f first
        g = _pgcd(_psub(w, x, p), f, p)
        if len(g) > 1:
            yield g, d
            f = _pexact_div(f, g, p)
    if len(f) > 1:
        yield tuple(f), len(f) - 1


def _pirreducible(m: Sequence[int], p: int) -> bool:
    """Ben-Or's test for monic m over F_p: its first distinct-degree part is m.

    A reducible m, squarefree or not, has a factor of degree d <= deg m / 2,
    found at step d, so most reducible m are rejected after a few p-th powers.
    """
    return len(m) > 1 and next(_pddf(m, p))[1] == len(m) - 1


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

class PrimeFieldContext:
    """The field F_p for an odd prime p < 2**31. Raw elements are ints."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= MODULUS_BOUND:
            raise ValueError(f"modulus must be an int below 2**31, got {p!r}")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    # -- structure ----------------------------------------------------------
    @property
    def char(self) -> int:
        return self.p

    zero = 0
    one = 1

    # -- raw arithmetic -----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise NonInvertible(f"0 has no inverse in F_{self.p}")
        return pow(a, -1, self.p)

    # -- conversions --------------------------------------------------------
    def element(self, v: int) -> int:
        return int(v) % self.p

    # -- identity -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeFieldContext) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"PrimeFieldContext({self.p})"


class ExtFieldContext:
    """F_{p^k} as F_p[x] modulo a monic irreducible of degree k.

    Raw elements are coefficient tuples of length k, ascending. Degree-1
    extensions are allowed and behave like a relabelled copy of the base.
    """

    __slots__ = ("base", "k", "modulus", "_frob", "_ytab")

    def __init__(self, base: PrimeFieldContext, modulus: Sequence[int]):
        mod = tuple(c % base.p for c in modulus)
        while mod and mod[-1] == 0:
            mod = mod[:-1]
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _pirreducible(mod, base.p):
            raise ValueError(f"modulus {list(mod)} is reducible over F_{base.p}")
        self.base = base
        self.modulus = mod
        self.k = len(mod) - 1
        p = base.p
        # row j is y^(p*j) mod the modulus, so a^p = sum_j a_j * row j, as a_j^p = a_j
        y_p = _ppowmod((0, 1), p, mod, p)
        rows = [(1,)]
        for _ in range(self.k - 1):
            rows.append(_prem(_pmul(rows[-1], y_p, p), mod, p))
        self._frob = tuple(self._pad(r) for r in rows)
        # (j, y^j mod the modulus) for k <= j <= 2k - 2: the folds of a product's high lanes
        ytab = []
        row = (0,) * (self.k - 1) + (1,)
        for j in range(self.k, 2 * self.k - 1):
            row = tuple((u + row[-1] * (p - c)) % p for u, c in zip((0, *row[:-1]), mod))
            ytab.append((j, row))
        self._ytab = tuple(ytab)

    @property
    def order(self) -> int:
        return self.base.p ** self.k

    @property
    def zero(self) -> tuple:
        return (0,) * self.k

    @property
    def one(self) -> tuple:
        return (1,) + (0,) * (self.k - 1)

    # -- raw arithmetic -----------------------------------------------------
    def _pad(self, c: Sequence[int]) -> tuple:
        return tuple(c) + (0,) * (self.k - len(c))

    def add(self, a: tuple, b: tuple) -> tuple:
        p = self.base.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        p = self.base.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        p = self.base.p
        return tuple(-x % p for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        p = self.base.p
        return self._pad(_prem(_pmul(a, b, p), self.modulus, p))

    def inv(self, a: tuple) -> tuple:
        if not any(a):
            raise NonInvertible(f"0 has no inverse in F_{self.base.p}^{self.k}")
        g, s, _ = _pxgcd(a, self.modulus, self.base.p)
        if g != (1,):
            raise NonInvertible("element is not invertible modulo the given modulus")
        return self._pad(s)

    def frobenius(self, a: tuple) -> tuple:
        """a^p, from the table: k^2 multiply-adds and one % p per coefficient."""
        out = [0] * self.k
        for c, row in zip(a, self._frob):
            if c:
                for i, t in enumerate(row):
                    out[i] += c * t
        p = self.base.p
        return tuple(c % p for c in out)

    # -- conversions --------------------------------------------------------
    def embed(self, c: int) -> tuple:
        return (c % self.base.p,) + (0,) * (self.k - 1)

    def element(self, v: Union[int, Sequence[int]]) -> tuple:
        """An int embedded from F_p, or a coefficient vector of length <= k."""
        if isinstance(v, int):
            return self.embed(v)
        vec = tuple(int(c) % self.base.p for c in v)
        if len(vec) > self.k:
            raise ValueError(f"coefficient vector longer than degree {self.k}")
        return self._pad(vec)

    def rand_raw(self, rng: random.Random) -> tuple:
        p = self.base.p
        return tuple(rng.randrange(p) for _ in range(self.k))

    # -- identity -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtFieldContext)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash(("Fpk", self.base.p, self.modulus))

    def __repr__(self) -> str:
        return f"ExtFieldContext(p={self.base.p}, k={self.k}, modulus={list(self.modulus)})"


FieldContext = Union[PrimeFieldContext, ExtFieldContext]


def ext_new(
    base: PrimeFieldContext, k: int, seed, *, cap: int = DEFAULT_EXT_CAP
) -> ExtFieldContext:
    """F_{p^k} over base = F_p, with a monic irreducible modulus found by seeded search.

    The search draws random monic candidates of degree k and keeps the first
    irreducible one, so the resulting context is reproducible for a fixed
    seed. Degrees above ``cap`` are refused. The base is taken as built, so
    p is not tested for primality again.
    """
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if k > cap:
        raise ExtensionTooLarge(f"extension degree {k} exceeds cap {cap}")
    if k == 1:
        return ExtFieldContext(base, (0, 1))
    p = base.p
    rng = random.Random(seed)
    while True:
        cand = [rng.randrange(p) for _ in range(k)] + [1]
        if cand[0] == 0:  # divisible by x, never irreducible for k >= 2
            continue
        try:  # the constructor runs the one irreducibility test
            return ExtFieldContext(base, cand)
        except ValueError:
            continue
