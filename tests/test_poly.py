"""Polynomial ring arithmetic and finite-field factorization.

The factorizer is checked three ways: frozen examples, an internal
product-reassembly invariant, and sympy as an independent oracle for the
splitting type. Irreducibility of reported factors is re-verified by an
exhaustive divisor scan when the search space is small.
"""

import functools
import itertools
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitlaw import (
    ExtFieldContext,
    HyperellipticCurve,
    IntegerPolynomial,
    NotSquarefree,
    Polynomial,
    PrimeFieldContext,
    ZeroDivisor,
    ext_new,
    factorize,
    roots_in,
    two_torsion_points,
)
from splitlaw import ff
from splitlaw.poly import _add_raw, _divmod_raw, _exact_div_raw, _gcd_raw, _mul_raw
from splitlaw.poly import _powmod_raw, _random_split, _sub_raw, _trace_split, _xgcd_raw

from oracles import elements, embed_poly, evaluate, power

X = sympy.Symbol("x")


def sympy_type(coeffs, p):
    """Sorted (degree, multiplicity) pairs from sympy's factorizer."""
    f = sympy.Poly(list(reversed(coeffs)), X, modulus=p)
    return tuple(sorted((g.degree(), m) for g, m in f.factor_list()[1]))


def rand_poly(ctx, degree, rng):
    return Polynomial(ctx, [rng.randrange(ctx.order) for _ in range(degree + 1)])


# ---------------------------------------------------------------------------
# Ring structure
# ---------------------------------------------------------------------------


@given(
    p=st.sampled_from([3, 5, 7, 13, 31]),
    da=st.integers(0, 6),
    db=st.integers(0, 6),
    dc=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_ring_axioms_and_division(p, da, db, dc, seed):
    ctx = PrimeFieldContext(p)
    rng = random.Random(seed)
    A, B, C = (rand_poly(ctx, d, rng) for d in (da, db, dc))
    a, b, c = A.coeffs, B.coeffs, C.coeffs
    add, mul = functools.partial(_add_raw, ctx), functools.partial(_mul_raw, ctx)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert _sub_raw(ctx, a, a) == ()
    if b:
        q, r = _divmod_raw(ctx, a, b)
        assert a == add(mul(q, b), r)
        assert len(r) < len(b)
        assert _divmod_raw(ctx, mul(a, b), b) == (a, ())


@pytest.mark.parametrize("e", [0, 5])
@pytest.mark.parametrize("ctx", [PrimeFieldContext(7), ExtFieldContext(PrimeFieldContext(7), (1, 0, 1))])
def test_pow_mod_by_zero_raises(ctx, e):
    with pytest.raises(ZeroDivisor):
        Polynomial(ctx, [0, 1]).pow_mod(e, Polynomial.zero(ctx))


def test_exact_div_rejects_non_divisors():
    ctx = PrimeFieldContext(7)
    with pytest.raises(ArithmeticError):
        _exact_div_raw(ctx, (1, 0, 1), (1, 1))  # x^2 + 1 by x + 1


def test_normalization_strips_leading_zeros():
    ctx = PrimeFieldContext(5)
    f = Polynomial(ctx, [1, 2, 0, 0])
    assert f.degree == 1
    assert f == Polynomial(ctx, [1, 2])
    assert Polynomial(ctx, [0, 0]).is_zero
    assert Polynomial.zero(ctx).degree == -1


@given(
    p=st.sampled_from([5, 13, 31]),
    da=st.integers(0, 6),
    db=st.integers(0, 6),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_xgcd_bezout_identity(p, da, db, seed):
    ctx = PrimeFieldContext(p)
    rng = random.Random(seed)
    a, b = rand_poly(ctx, da, rng), rand_poly(ctx, db, rng)
    if a.is_zero and b.is_zero:
        return
    g, s, t = _xgcd_raw(ctx, a.coeffs, b.coeffs)
    assert _add_raw(ctx, _mul_raw(ctx, s, a.coeffs), _mul_raw(ctx, t, b.coeffs)) == g
    assert g[-1] == 1
    assert not _divmod_raw(ctx, a.coeffs, g)[1] and not _divmod_raw(ctx, b.coeffs, g)[1]
    assert _gcd_raw(ctx, a.coeffs, b.coeffs) == g


@given(
    p=st.sampled_from([3, 5, 7, 13]),
    a=st.lists(st.integers(0, 12), max_size=8),
    b=st.lists(st.integers(0, 12), max_size=6),
    e=st.integers(0, 40),
)
@example(p=5, a=[2, 1], b=[3], e=0)
@example(p=7, a=[1, 2, 3], b=[4], e=5)
@settings(max_examples=120, deadline=None)
def test_prime_field_kernel_matches_generic_path(p, a, b, e):
    # F_p as a degree-1 extension has 1-tuple elements, so its polynomials
    # take the context-generic loops and serve as the reference.
    ctx = PrimeFieldContext(p)
    ref = ExtFieldContext(ctx, (0, 1))

    def lift(*polys):
        return tuple(tuple((c,) for c in f) for f in polys)

    a, b = Polynomial(ctx, a).coeffs, Polynomial(ctx, b).coeffs
    ra, rb = lift(a, b)
    assert lift(_mul_raw(ctx, a, b)) == (_mul_raw(ref, ra, rb),)
    if b:
        assert lift(*_divmod_raw(ctx, a, b)) == _divmod_raw(ref, ra, rb)
        assert lift(_powmod_raw(ctx, a, e, b)) == (_powmod_raw(ref, ra, e, rb),)
        if e == 0:
            assert _powmod_raw(ctx, a, e, b) == (1,)
    if a or b:
        assert lift(_gcd_raw(ctx, a, b)) == (_gcd_raw(ref, ra, rb),)
        g, s, t = _xgcd_raw(ctx, a, b)
        assert _add_raw(ctx, _mul_raw(ctx, s, a), _mul_raw(ctx, t, b)) == g
        assert lift(g, s, t) == _xgcd_raw(ref, ra, rb)


def test_pow_mod_agrees_with_naive_power():
    ctx = PrimeFieldContext(13)
    f = Polynomial(ctx, [2, 0, 1, 1])
    x = Polynomial(ctx, [0, 1])
    assert x.pow_mod(50, f).coeffs == _divmod_raw(ctx, (0,) * 50 + (1,), f.coeffs)[1]
    assert x.pow_mod(0, f) == Polynomial(ctx, [1])


def test_evaluate_matches_horner_definition():
    ctx = PrimeFieldContext(31)
    f = Polynomial(ctx, [-2, 0, 0, 1])  # x^3 - 2
    assert evaluate(f, 4) == 0
    assert evaluate(f, 1) == 30


# ---------------------------------------------------------------------------
# Squarefreeness
# ---------------------------------------------------------------------------


@given(
    p=st.sampled_from([3, 5, 7]),
    tail=st.lists(st.integers(0, 6), min_size=3, max_size=9).filter(lambda t: len(t) % 2),
)
@example(p=5, tail=[1, 0, 0, 0, 0])  # (x+1)^5, zero derivative
@example(p=3, tail=[2, 0, 0])  # (x+2)^3, zero derivative
@example(p=7, tail=[3, 0, 5])  # (x+1)^2 (x+3)
@example(p=7, tail=[0, 0, 0])  # x^3
@example(p=5, tail=[0, 4, 0, 0, 0])  # x^5 - x, squarefree at degree = char
@example(p=7, tail=[5, 0, 0])  # x^3 - 2, irreducible
@settings(max_examples=80, deadline=None)
def test_two_torsion_refuses_exactly_the_non_squarefree_curves(p, tail):
    # sympy's factor_list, not Poly.is_sqf, which calls x^5 + 1 over F_5 squarefree
    pairs = sympy_type(tail + [1], p)
    C = HyperellipticCurve(Polynomial(PrimeFieldContext(p), tail + [1]))
    if any(m > 1 for _, m in pairs):
        with pytest.raises(NotSquarefree):
            two_torsion_points(C, seed=0)
    else:
        assert len(two_torsion_points(C, seed=0)) == 2 ** (len(pairs) - 1)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def test_cube_root_of_two_splits_mod_31():
    ctx = PrimeFieldContext(31)
    fact = factorize(Polynomial(ctx, [-2, 0, 0, 1]), seed=1)
    st_ = fact.splitting_type()
    assert st_.pairs == ((1, 1), (1, 1), (1, 1))
    assert st_.all_linear and st_.squarefree
    assert [f.coeffs for f, _ in fact.factors] == [(11, 1), (24, 1), (27, 1)]


def test_cube_root_of_two_mod_5_and_7():
    c5 = PrimeFieldContext(5)
    assert factorize(Polynomial(c5, [-2, 0, 0, 1]), 1).splitting_type().pairs == (
        (1, 1),
        (2, 1),
    )
    c7 = PrimeFieldContext(7)
    assert factorize(Polynomial(c7, [-2, 0, 0, 1]), 1).splitting_type().pairs == ((3, 1),)


def test_wild_repeated_factor_mod_5():
    ctx = PrimeFieldContext(5)
    fact = factorize(Polynomial(ctx, [1, 0, 0, 0, 0, 1]), seed=1)  # (x+1)^5
    assert fact.splitting_type().pairs == ((1, 5),)
    assert fact.factors[0][0].coeffs == (1, 1)


def test_unit_is_preserved():
    ctx = PrimeFieldContext(7)
    fact = factorize(Polynomial(ctx, [1, 0, 3]), seed=1)
    assert fact.unit == 3
    assert all(f.is_monic for f, _ in fact.factors)


def test_constant_polynomial_has_no_factors():
    ctx = PrimeFieldContext(7)
    fact = factorize(Polynomial(ctx, [4]), seed=1)
    assert fact.factors == ()
    assert fact.unit == 4


def test_factorize_needs_prime_field_coefficients():
    ext = ext_new(5, 2, seed=9)
    f = embed_poly(Polynomial(ext.base, [-2, 0, 0, 1]), ext)
    with pytest.raises(ValueError, match="prime field"):
        factorize(f, seed=1)


def _exhaustive_irreducible(f):
    """Divisor scan; only called when p^deg(f) is small."""
    ctx = f.ctx
    if f.degree <= 1:
        return True
    for d in range(1, f.degree // 2 + 1):
        for tail in itertools.product(range(ctx.order), repeat=d):
            if not _divmod_raw(ctx, f.coeffs, tail + (1,))[1]:
                return False
    return True


@given(
    p=st.sampled_from([3, 5, 7, 13]),
    deg=st.integers(1, 7),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_factorize_against_sympy_and_divisor_scan(p, deg, seed):
    ctx = PrimeFieldContext(p)
    rng = random.Random(seed)
    coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    f = Polynomial(ctx, coeffs)
    fact = factorize(f, seed=seed)
    # reassembly is already enforced inside factorize; check the type against
    # an independent implementation
    assert fact.splitting_type().pairs == sympy_type(coeffs, p)
    for g, _ in fact.factors:
        assert g.is_monic
        if p**g.degree <= 10**5:
            assert _exhaustive_irreducible(g)


@given(
    p=st.sampled_from([5, 13, 31]),
    deg=st.sampled_from([3, 5, 7]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_odd_degree_splitting_type_sums_to_degree(p, deg, seed):
    ctx = PrimeFieldContext(p)
    rng = random.Random(seed)
    f = Polynomial(ctx, [rng.randrange(p) for _ in range(deg)] + [1])
    st_ = factorize(f, seed).splitting_type()
    assert sum(d * m for d, m in st_.pairs) == deg
    assert len(st_.pairs) <= deg


def test_factorize_is_seed_deterministic():
    ctx = PrimeFieldContext(101)
    f = Polynomial(ctx, [3, 1, 4, 1, 5, 9, 2, 1])
    a = factorize(f, seed="s")
    b = factorize(f, seed="s")
    assert a.factors == b.factors
    # a different seed must reach the same canonical factor list
    c = factorize(f, seed="t")
    assert c.factors == a.factors


def test_splitting_type_str():
    ctx = PrimeFieldContext(5)
    st_ = factorize(Polynomial(ctx, [1, 0, 0, 0, 0, 1]), 1).splitting_type()
    assert str(st_) == "1^5"


# ---------------------------------------------------------------------------
# Roots and embeddings
# ---------------------------------------------------------------------------


def test_roots_of_cubic_mod_31():
    ctx = ext_new(31, 1, seed=0)
    f = Polynomial(ctx.base, [-2, 0, 0, 1])
    roots = roots_in(f, ctx, seed=0)
    assert roots == [(4,), (7,), (20,)]
    assert all(evaluate(embed_poly(f, ctx), r) == ctx.zero for r in roots)


def test_roots_appear_in_the_splitting_field():
    base = PrimeFieldContext(5)
    f = Polynomial(base, [-2, 0, 0, 1])
    assert len(roots_in(f, ext_new(5, 1, seed=0), seed=0)) == 1
    ext = ext_new(5, 2, seed=9)
    roots = roots_in(f, ext, seed=0)
    assert len(roots) == 3
    fe = embed_poly(f, ext)
    assert all(evaluate(fe, r) == ext.zero for r in roots)
    assert roots == sorted(roots)


def test_roots_in_counts_distinct_roots_once():
    ctx = ext_new(5, 1, seed=0)
    f = Polynomial(ctx.base, [1, 3, 3, 1])  # (x+1)^3
    roots = roots_in(f, ctx, seed=0)
    assert roots == [(4,)]


def test_roots_in_does_not_depend_on_the_seed():
    # (x + 1)(x^2 + 1)(an irreducible sextic) over F_3 splits in F_{3^6}
    base = PrimeFieldContext(3)
    f = Polynomial(base, [1, 2, 2, 1, 1, 2, 0, 1, 0, 1])
    ctx = ext_new(3, 6, seed=0)
    expected = roots_in(f, ctx, seed=0)
    assert len(expected) == 9
    for seed in (1, 2, 3, "271828:3", "314159:3"):
        assert roots_in(f, ctx, seed=seed) == expected


@given(
    pk=st.sampled_from(
        [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 1), (5, 2), (5, 3),
         (7, 1), (7, 2), (7, 3), (11, 2), (13, 2), (17, 2), (31, 1)]
    ),
    seed=st.integers(0, 3),
    lead=st.integers(1, 342),
    factors=st.lists(
        st.tuples(st.lists(st.integers(0, 342), min_size=1, max_size=3), st.integers(1, 2)),
        min_size=1,
        max_size=4,
    ),
)
# (x^3 - x - 1)(x^2 + 1)^2 over F_3: a cubic with no root in F_9, a squared quadratic
@example(pk=(3, 2), seed=0, lead=2, factors=[([2, 2, 0], 1), ([1, 0], 2)])
# x^2 - 2 over F_5: its roots r and -r split only through the trace's shift b
@example(pk=(5, 2), seed=0, lead=1, factors=[([3, 0], 1)])
@settings(max_examples=120, deadline=None)
def test_roots_in_matches_brute_force(pk, seed, lead, factors):
    """f is a product of monic factors of degree 1-3, some squared, degree <= 7."""
    p, k = pk
    ctx = ext_new(p, k, seed=seed)
    f = (lead % p or 1,)
    for low, mult in factors:
        if len(f) - 1 + mult * len(low) <= 7:
            for _ in range(mult):
                f = _mul_raw(ctx.base, f, Polynomial(ctx.base, low + [1]).coeffs)
    f = Polynomial._raw(ctx.base, f)
    fe = embed_poly(f, ctx)
    expected = sorted(e for e in elements(ctx) if evaluate(fe, e) == ctx.zero)
    assert roots_in(f, ctx, seed=seed) == expected


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_trace_split_needs_the_shift(p):
    # p = 1 mod 4 and c a non-residue: the roots r and r^p = -r of x^2 - c
    # have traces t and -t, one quadratic character, so Tr(a*x) never splits
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    f = Polynomial(PrimeFieldContext(p), [-c, 0, 1])
    for seed in range(3):
        ctx = ext_new(p, 2, seed=seed)
        fe = embed_poly(f, ctx)
        roots = roots_in(f, ctx, seed=seed)
        assert roots == [e for e in elements(ctx) if evaluate(fe, e) == ctx.zero]
        assert all(power(ctx, r, p) == ctx.neg(r) for r in roots)


def test_roots_in_needs_prime_field_coefficients():
    ext = ext_new(5, 2, seed=9)
    f = Polynomial(ext.base, [-2, 0, 0, 1])
    with pytest.raises(ValueError, match="prime field"):
        roots_in(embed_poly(f, ext), ext, seed=0)
    with pytest.raises(ValueError, match="prime field"):
        roots_in(Polynomial(PrimeFieldContext(7), [1, 1]), ext, seed=0)
    with pytest.raises(ValueError, match="zero polynomial"):
        roots_in(Polynomial.zero(ext.base), ext, seed=0)
    with pytest.raises(ValueError, match=r"ext_new\(p, 1\)"):  # F_p only as a degree-1 extension
        roots_in(f, f.ctx, seed=0)


class ZeroRandom(random.Random):
    """Every draw is 0, so no random polynomial can split anything."""

    calls = 0

    def randrange(self, *args, **kwargs):
        self.calls += 1
        return 0


@pytest.mark.parametrize("k", [1, 2])
def test_random_split_gives_up_after_128_draws(k):
    f = Polynomial(PrimeFieldContext(5), [2, -3, 1])  # (x - 1)(x - 2)
    if k > 1:
        f = embed_poly(f, ext_new(5, k, seed=1))
    rng = ZeroRandom(0)
    with pytest.raises(RuntimeError, match="failed to converge"):
        _random_split(f.ctx, f.coeffs, 1, rng)
    assert rng.calls == 128 * f.degree * k


@pytest.mark.parametrize("k", [1, 2])
def test_trace_split_gives_up_after_128_draws(k):
    # a = b = 0 at every draw, so T = 0 and neither gcd is a proper factor
    h = (2, 2, 1)  # (x - 1)(x - 2) over F_5
    ctx = ext_new(5, k, seed=1)
    g = tuple(ctx.embed(c) for c in h)
    xs = [(0, 1)] + [ff._ppowmod((0, 1), 5**i, h, 5) for i in range(1, k)]
    rng = ZeroRandom(0)
    with pytest.raises(RuntimeError, match="failed to converge"):
        _trace_split(ctx, g, xs, rng)
    assert rng.calls == 128 * 2 * k


def test_embed_poly_respects_evaluation():
    base = PrimeFieldContext(7)
    ext = ext_new(7, 2, seed=1)
    f = Polynomial(base, [3, 0, 1])
    fe = embed_poly(f, ext)
    for c in range(7):
        assert evaluate(fe, ext.element(c)) == ext.embed(evaluate(f, c))


def test_embed_poly_rejects_mismatched_characteristic():
    f = Polynomial(PrimeFieldContext(7), [1, 1])
    with pytest.raises(ValueError):
        embed_poly(f, ext_new(5, 2, seed=1))
    ext = ext_new(7, 2, seed=1)
    with pytest.raises(ValueError):  # already over the extension
        embed_poly(embed_poly(f, ext), ext)


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


def test_integer_polynomial_str_and_reduce():
    f = IntegerPolynomial([-2, 0, 0, 1])
    assert str(f) == "x^3 - 2"
    assert str(IntegerPolynomial([0, -1, 3])) == "3*x^2 - x"
    assert str(IntegerPolynomial([5])) == "5"
    assert str(IntegerPolynomial([])) == "0"
    fbar = f.reduce_mod(31)
    assert fbar.coeffs == (29, 0, 0, 1)


def test_integer_polynomial_calculus():
    f = IntegerPolynomial([-2, 0, 0, 1])
    assert f.degree == 3 and f.is_monic
    assert f.evaluate(3) == 25
    assert f.derivative().coeffs == (0, 0, 3)
    assert IntegerPolynomial([1, 2, 0, 0]).coeffs == (1, 2)


def test_pow_mod_over_extension_runs_on_the_kernel(monkeypatch):
    """One pow_mod over F_{7^3}[x] makes fewer ExtFieldContext.mul calls than 4 deg m."""
    ctx = ext_new(7, 3, seed=2)
    rng = random.Random(40)
    m = Polynomial._raw(ctx, tuple(ctx.rand_raw(rng) for _ in range(5)) + (ctx.embed(3),))
    a = Polynomial._raw(ctx, tuple(ctx.rand_raw(rng) for _ in range(5)))
    e = rng.getrandbits(40) | 1 << 39
    calls = 0
    mul = ff.ExtFieldContext.mul

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return mul(self, x, y)

    monkeypatch.setattr(ff.ExtFieldContext, "mul", counted)
    result = a.pow_mod(e, m)
    assert calls < 4 * m.degree
    monkeypatch.undo()
    want = (ctx.one,)
    for bit in bin(e)[2:]:  # left to right by generic products and remainders
        want = _divmod_raw(ctx, _mul_raw(ctx, want, want), m.coeffs)[1]
        if bit == "1":
            want = _divmod_raw(ctx, _mul_raw(ctx, want, a.coeffs), m.coeffs)[1]
    assert result.coeffs == want
