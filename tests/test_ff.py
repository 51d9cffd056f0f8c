"""Field arithmetic: prime fields, extension fields, Frobenius.

Fixed-value cases pin down the worked examples; hypothesis cases check the
field axioms and the Galois-theoretic facts (Frobenius is an automorphism
of order k whose fixed field is the prime field) that everything else
quietly relies on.
"""

import functools
import random

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod, gf_rem
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splitlaw import (
    DEFAULT_EXT_CAP,
    ExtensionTooLarge,
    ExtFieldContext,
    NonInvertible,
    Polynomial,
    PrimeFieldContext,
    ext_new,
    factorize,
    is_prime,
)
from splitlaw.ff import _pddf, _pirreducible, _pnorm, _ppowmod, _prem
from splitlaw.ff import _qdivmod, _qgcd, _qmul, _qpowmod, _qxgcd
from splitlaw.poly import _mul_raw, _norm

import oracles
from oracles import elements, evaluate, power

SMALL_PRIMES = [3, 5, 7, 11, 13, 31, 97, 101]


@pytest.fixture
def f31():
    return PrimeFieldContext(31)


@pytest.fixture
def f25():
    # x^2 + 2 is irreducible over F_5 (-2 = 3 is a non-residue)
    return ExtFieldContext(PrimeFieldContext(5), (2, 0, 1))


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------


def test_is_prime_matches_sympy_on_small_range():
    for n in range(-2, 2000):
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize(
    "n",
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5, 7
    [561, 1105, 1729, 2465, 2821, 6601, 2047, 3277, 4033, 1373653, 25326001, 3215031751],
)
def test_is_prime_rejects_classic_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2147483629, 2147483647, 999999937])
def test_is_prime_large_primes(n):
    assert is_prime(n)


@given(n=st.integers(2000, 2**64))
@example(n=3215031749)  # prime, just below the four-bases bound
@example(n=3215031753)
@example(n=2**31 - 1)
@settings(max_examples=500, deadline=None)
def test_is_prime_matches_sympy_on_both_sides_of_the_four_bases_bound(n):
    assert is_prime(n) == sympy.isprime(n)


# ---------------------------------------------------------------------------
# Prime field basics
# ---------------------------------------------------------------------------


def test_context_rejects_non_primes_and_two():
    with pytest.raises(ValueError):
        PrimeFieldContext(1)
    with pytest.raises(ValueError):
        PrimeFieldContext(15)
    with pytest.raises(ValueError):
        PrimeFieldContext(2)
    with pytest.raises(ValueError):
        PrimeFieldContext(1 << 31)


def test_inverse_of_four_mod_31(f31):
    assert f31.inv(4) == 8
    assert f31.mul(4, f31.inv(4)) == 1


def test_zero_exponent_gives_one_even_at_zero(f25):
    assert power(f25, f25.zero, 0) == f25.one
    assert power(f25, (3, 4), 0) == f25.one
    # the kernels: e = 0 gives one for a zero or x base, m constant or not
    for a in ((), (0, 1)):
        for m in ((3,), (1,), (2, 1), (1, 0, 3)):
            assert _ppowmod(a, 0, m, 5) == (1,)
    zero, one = f25.zero, f25.one
    for m in (((2, 0),), ((1, 0), (1, 0)), ((3, 4), zero, (2, 1))):
        assert _qpowmod((), 0, m, f25) == (one,)
        assert _qpowmod((zero,), 0, m, f25) == (one,)


def test_zero_has_no_inverse(f31):
    with pytest.raises(NonInvertible):
        f31.inv(0)


def test_element_converts_ints_and_vectors(f31, f25):
    assert f31.element(-1) == 30
    assert f25.element(7) == (2, 0)
    assert f25.element([1]) == (1, 0)
    assert f25.element([6, -1]) == (1, 4)
    with pytest.raises(ValueError):
        f25.element([1, 2, 3])


@given(
    p=st.sampled_from(SMALL_PRIMES),
    a=st.integers(-200, 200),
    b=st.integers(-200, 200),
    c=st.integers(-200, 200),
)
def test_prime_field_axioms(p, a, b, c):
    ctx = PrimeFieldContext(p)
    add, mul = ctx.add, ctx.mul
    x, y, z = ctx.element(a), ctx.element(b), ctx.element(c)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, y) == add(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, ctx.neg(x)) == ctx.zero
    assert ctx.sub(x, y) == add(x, ctx.neg(y))
    if x:
        assert mul(x, ctx.inv(x)) == ctx.one


@given(p=st.sampled_from(SMALL_PRIMES), a=st.integers(1, 10**6))
def test_fermat_little_theorem(p, a):
    x = PrimeFieldContext(p).element(a)
    if x:
        assert pow(x, p - 1, p) == 1


# ---------------------------------------------------------------------------
# Extension fields
# ---------------------------------------------------------------------------


def test_reducible_modulus_is_rejected():
    with pytest.raises(ValueError):
        ExtFieldContext(PrimeFieldContext(5), (-1, 0, 1))  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ValueError):
        ExtFieldContext(PrimeFieldContext(5), (0, 0, 1))  # x^2


def test_non_monic_modulus_is_rejected():
    with pytest.raises(ValueError):
        ExtFieldContext(PrimeFieldContext(5), (1, 0, 2))


def test_f25_frobenius_of_generator(f25):
    # t^2 = -2 = 3, so t^5 = (t^2)^2 t = 9t = 4t
    t = (0, 1)
    assert f25.frobenius(t) == (0, 4)
    assert power(f25, t, 5) == (0, 4)


def test_f25_structure(f25):
    assert f25.order == 25
    assert f25.base.p == 5
    assert f25.k == 2
    assert len(set(elements(f25))) == 25


def test_degree_one_extension_mirrors_base():
    ctx = ext_new(PrimeFieldContext(5), 1, seed=0)
    assert ctx.order == 5
    assert ctx.k == 1
    vals = {ctx.element(i) for i in range(5)}
    assert len(vals) == 5


def test_ext_new_is_reproducible_and_irreducible():
    a = ext_new(PrimeFieldContext(7), 3, seed="trial")
    b = ext_new(PrimeFieldContext(7), 3, seed="trial")
    c = ext_new(PrimeFieldContext(7), 3, seed="trial-2")
    assert a.modulus == b.modulus
    assert a == b
    # a different seed may pick a different (still valid) modulus
    assert c.order == a.order == 7**3
    # independent irreducibility check on the chosen modulus
    fx = sympy.Poly(list(reversed(a.modulus)), sympy.Symbol("x"), modulus=7)
    assert all(m.degree() == fx.degree() for m, _ in fx.factor_list()[1])


def test_ext_new_enforces_cap():
    with pytest.raises(ExtensionTooLarge):
        ext_new(PrimeFieldContext(3), DEFAULT_EXT_CAP + 1, seed=0)
    with pytest.raises(ExtensionTooLarge):
        ext_new(PrimeFieldContext(3), 5, seed=0, cap=4)
    with pytest.raises(ValueError):
        ext_new(PrimeFieldContext(3), 0, seed=0)


# The moduli the seeded search settles on. They fix the root labels in
# frobenius reports, so a faster irreducibility test must not move them.
@pytest.mark.parametrize(
    "p,k,seed,modulus",
    [
        (3, 2, 0, (2, 1, 1)),
        (3, 6, 1, (2, 0, 2, 0, 1, 1, 1)),
        (5, 3, 7, (2, 1, 3, 1)),
        (5, 5, 271828, (1, 0, 3, 0, 1, 1)),
        (7, 4, 2, (2, 2, 4, 1, 1)),
        (7, 6, 314159, (1, 0, 0, 2, 6, 2, 1)),
        (31, 2, 5, (23, 11, 1)),
        (31, 3, 42, (20, 3, 0, 1)),
        (97, 4, 11, (57, 71, 59, 57, 1)),
        (97, 5, 3, (77, 1, 60, 33, 70, 1)),
    ],
)
def test_ext_new_moduli_are_pinned(p, k, seed, modulus):
    assert ext_new(PrimeFieldContext(p), k, seed=seed).modulus == modulus


def sympy_powmod(a, e, m, p):
    return tuple(gf_pow_mod(list(a[::-1]), e, list(m[::-1]), p, ZZ)[::-1])  # sympy is descending


@given(
    p=st.sampled_from([3, 5, 7, 31, 3371, 65521, 2**31 - 1]),
    m=st.lists(st.integers(0, 2**31), min_size=1, max_size=21),
    monic=st.booleans(),
    a=st.one_of(
        st.just([]),
        st.just([0, 1]),
        st.lists(st.integers(0, 2**31), min_size=1, max_size=25),
    ),
    e=st.one_of(st.sampled_from([0, 1]), st.integers(0, 2**93)),
)
@example(p=7, m=[3, 1, 1], monic=True, a=[0, 1], e=7)  # x^7 by shifts
@example(p=5, m=[4], monic=False, a=[0, 1], e=0)  # x^0 mod a constant is 1
@settings(max_examples=300, deadline=None)
def test_ppowmod_matches_sympy(p, m, monic, a, e):
    """m of degree 0 to 20, a longer than m, zero or x; e = 0, 1 or up to p^3."""
    m = [c % p for c in m]
    m[-1] = 1 if monic else m[-1] or 2
    a = _pnorm([c % p for c in a])
    e %= p**3 + 1
    assert _ppowmod(a, e, tuple(m), p) == sympy_powmod(a, e, m, p)


@given(
    p=st.sampled_from([3, 5, 7, 31, 65521, 2**31 - 1]),
    a=st.lists(st.integers(0, 2**31), max_size=25),
    b=st.lists(st.integers(0, 2**31), min_size=1, max_size=12),
    monic=st.booleans(),
)
@example(p=7, a=[1, 2], b=[3, 4, 5], monic=False)  # a shorter than b is its own remainder
@example(p=2**31 - 1, a=[2**31 - 2] * 9, b=[5, 2**31 - 2, 3], monic=False)
@settings(max_examples=300, deadline=None)
def test_prem_matches_sympy(p, a, b, monic):
    """b of degree 0 to 11, monic or not; a empty, shorter or longer than b."""
    a = _pnorm([c % p for c in a])
    b = [c % p for c in b]
    b[-1] = 1 if monic else b[-1] or 2
    want = tuple(gf_rem(list(a[::-1]), b[::-1], p, ZZ)[::-1])  # sympy is descending
    assert _prem(a, tuple(b), p) == want


@pytest.mark.parametrize(
    "p,degrees",
    [(p, range(1, 21)) for p in (3, 97, 3371, 65521)] + [(2**31 - 1, (*range(1, 21), 64))],
)
def test_ppowmod_matches_sympy_at_the_sweep_exponents(p, degrees):
    """deg m 1 to 20 (and 64 at the largest p), a = x or a random residue, at
    the exponents the sweeps use: p, (p - 1)/2 and p^k. Mid-size primes are
    where lanes sized too narrow for the packed square overflow."""
    rng = random.Random(p)
    for n in degrees:
        for monic in (True, False):
            m = [rng.randrange(p) for _ in range(n)] + [1 if monic else rng.randrange(2, p)]
            for a in ((0, 1), _pnorm([rng.randrange(p) for _ in range(n + 2)])):
                for e in (p, (p - 1) // 2, p**2, p**3):
                    assert _ppowmod(a, e, tuple(m), p) == sympy_powmod(a, e, m, p), (n, a, e)


_cached_ext = functools.lru_cache(maxsize=None)(ext_new)


@given(
    p=st.sampled_from([3, 5, 7, 65521, 2**31 - 1]),
    k=st.integers(1, 7),
    da=st.integers(-1, 8),
    db=st.integers(-1, 8),
    top=st.booleans(),
    seed=st.integers(0, 2**32),
)
# the widest field and degrees, every coefficient p - 1 but b's lead, which is 1
@example(p=2**31 - 1, k=7, da=8, db=8, top=True, seed=0)
@example(p=2**31 - 1, k=7, da=8, db=1, top=True, seed=0)
@example(p=2**31 - 1, k=7, da=8, db=8, top=False, seed=0)
@settings(max_examples=150, deadline=None)
def test_flat_kernel_matches_the_reference(p, k, da, db, top, seed):
    """F_{p^k}[x] product, division, gcd and xgcd equal the context-generic loops."""
    ctx = _cached_ext(PrimeFieldContext(p), k, seed=k)
    rng = random.Random(seed)

    def poly(d):
        if top:
            return ((p - 1,) * k,) * (d + 1)
        return _norm([ctx.rand_raw(rng) for _ in range(d + 1)], ctx.zero)

    a, b = poly(da), poly(db)
    if top and b:
        b = b[:-1] + (ctx.one,)
    assert _qmul(a, b, ctx) == oracles.mul(ctx, a, b)
    if b:
        assert _qdivmod(a, b, ctx) == oracles.divmod_(ctx, a, b)
    if a or b:
        g = oracles.xgcd(ctx, a, b)
        assert _qxgcd(a, b, ctx) == g
        assert _qgcd(a, b, ctx) == g[0]


@given(
    p=st.sampled_from([3, 5, 7, 65521, 2**31 - 1]),
    k=st.integers(1, 7),
    n=st.integers(1, 8),
    monic=st.booleans(),
    is_x=st.booleans(),
    length=st.integers(0, 20),
    e=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2**64 - 1)),
    seed=st.integers(0, 2**32),
)
@example(p=7, k=3, n=4, monic=True, is_x=True, length=0, e=7**3, seed=0)  # x^e by shifts
# the widest lanes: largest p, k and n, and a square then a product at every step
@example(p=2**31 - 1, k=7, n=8, monic=False, is_x=False, length=20, e=2**64 - 1, seed=0)
@settings(max_examples=120, deadline=None)
def test_qpowmod_matches_mul_and_divmod(p, k, n, monic, is_x, length, e, seed):
    """F_{p^k}, k = 1 a degree-1 extension; deg m 1 to 8; a = x or up to 20 terms."""
    ctx = _cached_ext(PrimeFieldContext(p), k, seed=k)
    rng = random.Random(seed)
    m = [ctx.rand_raw(rng) for _ in range(n)]
    lead = ctx.rand_raw(rng)
    m.append(ctx.one if monic else lead if any(lead) else ctx.neg(ctx.one))
    if is_x:
        a = (ctx.zero, ctx.one)
    else:
        a = _norm([ctx.rand_raw(rng) for _ in range(length)], ctx.zero)
    want = oracles.powmod(ctx, a, e, tuple(m))
    assert _qpowmod(a, e, tuple(m), ctx) == want


@pytest.mark.parametrize("p,k", [(3, 1), (5, 2), (7, 3), (65521, 4), (2**31 - 1, 7)])
def test_qpowmod_fixed_cases(p, k):
    ctx = ext_new(PrimeFieldContext(p), k, seed=0)
    rng = random.Random(p * k)
    one = (ctx.one,)
    a = tuple(ctx.rand_raw(rng) for _ in range(6)) + (ctx.one,)
    c = ctx.element(rng.randrange(1, p))
    r = ctx.rand_raw(rng)
    # e = 0 gives one whatever m is, a constant m included
    assert _qpowmod(a, 0, (ctx.zero, c), ctx) == one
    assert _qpowmod(a, 0, (c,), ctx) == one
    # modulo a constant every power of positive degree is zero
    assert _qpowmod(a, 5, (c,), ctx) == ()
    # n = 1: modulo c*(x - r), a^e is a(r)^e
    m = (ctx.mul(c, ctx.neg(r)), c)
    a_at_r = evaluate(Polynomial._raw(ctx, a), r)
    for e in (1, 2, 3, p, rng.getrandbits(64)):
        want = power(ctx, a_at_r, e)
        assert _qpowmod(a, e, m, ctx) == ((want,) if any(want) else ())


@given(
    p=st.sampled_from([3, 5, 7, 11]),
    low=st.lists(st.integers(0, 10), min_size=1, max_size=8),
)
@example(p=5, low=[2, 0])  # x^2 + 2, irreducible
@example(p=5, low=[4, 0, 4, 0])  # (x^2 + 2)^2
@example(p=3, low=[1, 0, 1, 0, 0, 0, 0, 1])  # x^8 + x^7 + x^2 + 1, irreducible
@example(p=3, low=[1, 0, 2, 0, 0, 0, 1, 0])  # two distinct irreducible quartics
@settings(max_examples=200, deadline=None)
def test_irreducibility_test_agrees_with_factorize(p, low):
    m = tuple(c % p for c in low) + (1,)
    fact = factorize(Polynomial(PrimeFieldContext(p), m), seed=0)
    assert _pirreducible(m, p) == (len(fact.factors) == 1 and fact.factors[0][1] == 1)


@given(
    p=st.sampled_from([3, 5, 7]),
    low=st.lists(st.integers(0, 6), min_size=1, max_size=9),
)
@example(p=3, low=[0, 2, 0])  # x^3 - x: x^3 = x mod f, so the first part is f
@example(p=3, low=[1, 2, 2, 1, 1, 2, 0, 1, 0])  # factors of degree 1, 2 and 6
@settings(max_examples=200, deadline=None)
def test_distinct_degree_parts_are_equal_degree_products(p, low):
    ctx = PrimeFieldContext(p)
    f = Polynomial(ctx, low + [1])
    assume(all(m == 1 for _, m in factorize(f, seed=0).factors))
    parts = list(_pddf(f.coeffs, p))
    degrees = [d for _, d in parts]
    assert degrees == sorted(set(degrees))
    product = (1,)
    for g, d in parts:
        product = _mul_raw(ctx, product, g)
        assert {h.degree for h, _ in factorize(Polynomial(ctx, g), seed=0).factors} == {d}
    assert product == f.coeffs


@given(
    pk=st.sampled_from([(3, 2), (3, 3), (5, 2), (7, 2), (11, 2), (5, 3), (3, 4)]),
    seed=st.integers(0, 3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_extension_field_axioms(pk, seed, data):
    p, k = pk
    ctx = ext_new(PrimeFieldContext(p), k, seed=seed)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    add, mul = ctx.add, ctx.mul
    x, y, z = (ctx.rand_raw(rng) for _ in range(3))
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, y) == mul(y, x)
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, ctx.neg(x)) == ctx.zero
    if any(x):
        assert mul(x, ctx.inv(x)) == ctx.one
        # multiplicative group has order p^k - 1
        assert power(ctx, x, ctx.order - 1) == ctx.one


def test_zero_has_no_inverse_in_extension(f25):
    with pytest.raises(NonInvertible):
        f25.inv(f25.zero)


# ---------------------------------------------------------------------------
# Frobenius as a field automorphism
# ---------------------------------------------------------------------------


@given(
    pk=st.sampled_from([(3, 2), (3, 3), (5, 2), (7, 2), (5, 3)]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_frobenius_is_a_ring_homomorphism(pk, data):
    p, k = pk
    ctx = ext_new(PrimeFieldContext(p), k, seed=11)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    x, y = ctx.rand_raw(rng), ctx.rand_raw(rng)
    fx, fy = ctx.frobenius(x), ctx.frobenius(y)
    assert ctx.frobenius(ctx.add(x, y)) == ctx.add(fx, fy)
    assert ctx.frobenius(ctx.mul(x, y)) == ctx.mul(fx, fy)
    assert fx == power(ctx, x, p)


@pytest.mark.parametrize(
    "p,k", [(3, 2), (3, 4), (5, 2), (7, 2), (11, 2), (5, 3), (3, 7), (65521, 4), (2**31 - 1, 7)]
)
def test_frobenius_table_matches_the_power(p, k):
    # the table rows y^(p*j) reproduce a^p: on every element of the small
    # fields, on random ones where p is large
    ctx = ext_new(PrimeFieldContext(p), k, seed=3)
    rng = random.Random(p)
    for a in elements(ctx) if ctx.order <= 5000 else (ctx.rand_raw(rng) for _ in range(200)):
        want = _ppowmod(a, p, ctx.modulus, p)
        assert ctx.frobenius(a) == want + (0,) * (k - len(want))


@pytest.mark.parametrize("p,k", [(3, 2), (3, 4), (5, 2), (7, 2), (11, 2), (5, 3), (3, 7)])
def test_frobenius_fixed_field_is_the_prime_field(p, k):
    ctx = ext_new(PrimeFieldContext(p), k, seed=3)
    assert ctx.order <= 5000
    embedded = {ctx.embed(c) for c in range(p)}
    fixed = {a for a in elements(ctx) if ctx.frobenius(a) == a}
    assert fixed == embedded


@pytest.mark.parametrize("p,k", [(3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (13, 2)])
def test_frobenius_has_order_k(p, k):
    ctx = ext_new(PrimeFieldContext(p), k, seed=5)
    rng = random.Random(0xF00)
    for _ in range(20):
        a = ctx.rand_raw(rng)
        b = a
        for _ in range(k):
            b = ctx.frobenius(b)
        assert b == a
    if k > 1:
        # some element must move under fewer than k applications
        moved = False
        for a in elements(ctx):
            if ctx.frobenius(a) != a:
                moved = True
                break
        assert moved
