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
# normalized: no trailing zero), p passed explicitly. It backs F_{p^k} and
# every prime-field Polynomial in poly.py; _pddf is its one distinct-degree
# loop. _ppowmod powers modulo a fixed m of degree n on one packed int of n
# W-bit lanes (Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009):
# one big-int square per step, top lanes folded through rows x^k mod m, and
# one lane-wise Barrett step (Barrett, CRYPTO '86) for lanes below
# B = 5np^2, with W = (B*mu).bit_length() + 1, mu = 2^s // p and
# s = B.bit_length(), set per call from p and n. _qpowmod reduces through a
# table of x^i mod m in F_{p^k}[x], on flat int lists with a second table
# for y^j mod the field's modulus. Algorithms: von zur Gathen & Gerhard,
# Modern Computer Algebra, ch. 2-4, 9, 14.
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
    binv = 1 if b[-1] == 1 else pow(b[-1], p - 2, p)
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
        inv = pow(m[-1], p - 2, p)
        m = [c * inv % p for c in m]
    base = _pdivmod(a, m, p)[1]
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


def _qpowmod(a: Sequence[tuple], e: int, m: Sequence[tuple], mod: Sequence[int], p: int) -> tuple:
    """a^e mod nonzero m over F_q = F_p[y]/(mod), mod monic of degree k.

    _ppowmod one level up: a and m hold k-tuples, and e = 0 gives one
    whatever m is. An operand of degree < n = deg m is one flat int list
    with x^i y^j at index i*(2k - 1) + j, so a product, y-degrees up to
    2k - 2 included, is one delayed-reduction loop. With m scaled to monic,
    the rows y^(k+t) mod mod and x^(n+t) mod m are built once; reduction
    walks the slots from the top, folds y out of each and folds each slot
    x^i, i >= n, into the lower ones, with one % p per coefficient.
    """
    k = len(mod) - 1
    if not e:
        return ((1,) + (0,) * (k - 1),)
    n = len(m) - 1
    if n < 1:
        return ()
    w = 2 * k - 1
    pad = [0] * (w - k)
    y_k = [-c % p for c in mod[:k]]
    yfolds = []
    row = [0] * (k - 1) + [1]
    for j in range(k, w):  # row = y^j mod mod
        row = [(u + row[-1] * c) % p for u, c in zip([0, *row[:-1]], y_k)]
        yfolds.append((j, row))
    xfolds: list[list] = []

    def reduce(s: list) -> list:
        """s of at most 2n - 1 slots, reduced mod m and mod to n slots in [0, p)."""
        for lo in range(len(s) - w, -1, -w):  # a slot x^i, i >= n, folds only below n
            for j, ys in yfolds:
                c = s[lo + j] % p
                if c:
                    for t, y in enumerate(ys, lo):
                        s[t] += c * y
            s[lo + k : lo + w] = pad
            for j in range(k) if lo >= n * w else ():
                c = s[lo + j] % p
                if c:
                    for t, y in xfolds[lo // w - n]:
                        s[t + j] += c * y
        del s[n * w :]
        return [c % p for c in s]

    def mulmod(u: list, v: list) -> list:
        s = [0] * ((2 * n - 1) * w)
        vs = [(j, d) for j, d in enumerate(v) if d]
        for i, c in enumerate(u):
            if c:
                for j, d in vs:
                    s[i + j] += c * d
        return reduce(s)

    neg_inv = [-c % p for c in _pxgcd(_pnorm(m[-1]), mod, p)[1]]
    row = mulmod([u for c in m[:n] for u in (*c, *pad)], neg_inv)  # x^n mod m
    for _ in range(max(n - 1, 1)):
        xfolds.append([(t, y) for t, y in enumerate(row) if y])
        row = reduce([0] * w + row)
    top = max(len(a) - n, 0)
    b = r = [u for c in a[top:] for u in (*c, *pad)]
    for c in reversed(a[:top]):  # Horner: b = c + x*b
        b = r = reduce([*c, *pad, *b])
    for bit in bin(e)[3:]:
        r = mulmod(r, r)
        if bit == "1":
            r = mulmod(r, b)
    return tuple(tuple(r[lo : lo + k]) for lo in range(0, len(_pnorm(r)), w))


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    """Monic gcd, without cofactors: Euclid on remainders, no quotient built."""
    while b:
        db = len(b) - 1
        binv = 1 if b[-1] == 1 else pow(b[-1], p - 2, p)
        r = list(a)
        for top in range(len(r) - 1, db - 1, -1):
            c = r[top] * binv % p
            if c:
                for i in range(db):
                    r[top - db + i] -= c * b[i]
        a, b = b, _pnorm([c % p for c in r[:db]])
    if not a or a[-1] == 1:
        return tuple(a)
    inv = pow(a[-1], p - 2, p)
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
        scale = (pow(r0[-1], p - 2, p),)
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
            f, r = _pdivmod(f, g, p)
            if r:
                raise ArithmeticError("division expected to be exact left a remainder")
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

    @property
    def order(self) -> int:
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
        return pow(a, self.p - 2, self.p)

    # -- conversions --------------------------------------------------------
    def element(self, v: int) -> int:
        return int(v) % self.p

    def rand_raw(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

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

    __slots__ = ("base", "k", "modulus", "_frob")

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
            rows.append(_pdivmod(_pmul(rows[-1], y_p, p), mod, p)[1])
        self._frob = tuple(self._pad(r) for r in rows)

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
        return self._pad(_pdivmod(_pmul(a, b, p), self.modulus, p)[1])

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


def ext_new(p: int, k: int, seed, *, cap: int = DEFAULT_EXT_CAP) -> ExtFieldContext:
    """Construct F_{p^k} with a monic irreducible modulus found by seeded search.

    The search draws random monic candidates of degree k and keeps the first
    irreducible one, so the resulting context is reproducible for a fixed
    seed. Degrees above ``cap`` are refused.
    """
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if k > cap:
        raise ExtensionTooLarge(f"extension degree {k} exceeds cap {cap}")
    base = PrimeFieldContext(p)
    if k == 1:
        return ExtFieldContext(base, (0, 1))
    rng = random.Random(seed)
    while True:
        cand = [rng.randrange(p) for _ in range(k)] + [1]
        if cand[0] == 0:  # divisible by x, never irreducible for k >= 2
            continue
        try:  # the constructor runs the one irreducibility test
            return ExtFieldContext(base, cand)
        except ValueError:
            continue
