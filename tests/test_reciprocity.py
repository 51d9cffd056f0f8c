"""End-to-end law verification, discriminants, split sets, densities.

The resultant/discriminant path (Sylvester matrix + fraction-free
determinant) is checked against closed formulas and against sympy; the
fast complete-splitting test is checked against a brute-force root scan,
against sympy's factorization mod p and against the factorization route it
deliberately avoids.
"""

import concurrent.futures
import os
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitlaw import (
    DEFAULT_SEED,
    EmptyRange,
    EvenDegree,
    IntegerPolynomial,
    NotIrreducible,
    NotMonic,
    ZeroDiscriminant,
    density_report,
    discriminant,
    factorize,
    frobenius_sweep,
    good_primes,
    inclusion_check,
    resultant,
    sieve_primes,
    spl_set,
    splits_completely,
    two_torsion_points,
    verify_law,
)
from splitlaw import HyperellipticCurve, Polynomial, PrimeFieldContext, ff, jacobian, poly
from splitlaw import reciprocity, torsion

X = sympy.Symbol("x")
CUBE = IntegerPolynomial([-2, 0, 0, 1])  # x^3 - 2


def to_sympy(f):
    return sympy.Poly(list(reversed(f.coeffs)), X)


# ---------------------------------------------------------------------------
# Primes, resultants, discriminants
# ---------------------------------------------------------------------------


def test_sieve_against_sympy():
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert sieve_primes(100) == list(sympy.primerange(2, 101))
    assert len(sieve_primes(10**5)) == 9592


@given(
    pc=st.lists(st.integers(-15, 15), min_size=1, max_size=6),
    qc=st.lists(st.integers(-15, 15), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_resultant_magnitude_and_antisymmetry(pc, qc):
    # sympy's resultant sign convention depends on the argument order, so
    # only magnitudes are compared; the sign is pinned by the antisymmetry
    # law and the linear-factor anchors below
    f, g = IntegerPolynomial(pc + [1]), IntegerPolynomial(qc + [1])
    want = abs(int(sympy.resultant(to_sympy(f), to_sympy(g))))
    assert abs(resultant(f, g)) == want
    assert resultant(f, g) == (-1) ** (f.degree * g.degree) * resultant(g, f)


@given(
    a=st.integers(-10, 10),
    qc=st.lists(st.integers(-10, 10), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_resultant_of_a_linear_factor_is_evaluation(a, qc):
    # Res(x - a, g) = g(a) and Res(g, x - a) = (-1)^deg(g) g(a) for monic g
    lin = IntegerPolynomial([-a, 1])
    g = IntegerPolynomial(qc + [1])
    assert resultant(lin, g) == g.evaluate(a)
    assert resultant(g, lin) == (-1) ** g.degree * g.evaluate(a)


@given(
    fc=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    gc=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    hc=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_resultant_is_multiplicative(fc, gc, hc):
    f, g, h = (IntegerPolynomial(c + [1]) for c in (fc, gc, hc))
    fg_coeffs = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            fg_coeffs[i + j] += a * b
    fg = IntegerPolynomial(fg_coeffs)
    assert resultant(fg, h) == resultant(f, h) * resultant(g, h)
    assert resultant(h, fg) == resultant(h, f) * resultant(h, g)


def test_resultant_low_degree_cases():
    two = IntegerPolynomial([2])
    lin = IntegerPolynomial([3, 1])
    assert resultant(two, lin) == 2  # deg(g)=1: c^1
    assert resultant(lin, two) == 2
    assert resultant(two, two) == 1  # both constant
    with pytest.raises(ValueError):
        resultant(IntegerPolynomial([]), lin)


def test_discriminant_closed_formulas():
    # x^3 + px + q has discriminant -4p^3 - 27q^2
    rng = random.Random(4)
    for _ in range(50):
        p_, q_ = rng.randint(-30, 30), rng.randint(-30, 30)
        f = IntegerPolynomial([q_, p_, 0, 1])
        assert discriminant(f) == -4 * p_**3 - 27 * q_**2
    # x^2 + bx + c has discriminant b^2 - 4c
    for _ in range(50):
        b, c = rng.randint(-30, 30), rng.randint(-30, 30)
        assert discriminant(IntegerPolynomial([c, b, 1])) == b * b - 4 * c
    assert discriminant(CUBE) == -108


@given(coeffs=st.lists(st.integers(-12, 12), min_size=2, max_size=7))
@settings(max_examples=60, deadline=None)
def test_discriminant_matches_sympy(coeffs):
    f = IntegerPolynomial(coeffs + [1])
    assert discriminant(f) == int(sympy.discriminant(to_sympy(f).as_expr(), X))


def test_discriminant_input_validation():
    with pytest.raises(NotMonic):
        discriminant(IntegerPolynomial([1, 0, 2]))
    with pytest.raises(ValueError):
        discriminant(IntegerPolynomial([3, 1]))


def test_good_primes_frozen_example():
    assert good_primes(CUBE, 20) == [5, 7, 11, 13, 17, 19]
    assert good_primes(CUBE, 4) == []


def test_good_primes_rejects_zero_discriminant():
    with pytest.raises(ZeroDiscriminant):
        good_primes(IntegerPolynomial([1, 3, 3, 1]), 100)  # (x+1)^3


def sympy_good_and_bad(polys, bound):
    """Split the primes <= bound by the rule: bad iff p = 2 or p | some disc."""
    discs = [int(sympy.discriminant(to_sympy(f))) for f in polys]
    good, bad = [], []
    for p in sympy.primerange(2, bound + 1):
        (bad if p == 2 or any(d % p == 0 for d in discs) else good).append(p)
    return good, bad


@pytest.mark.parametrize(
    "coeffs",
    [[-2, 0, 0, 1], [-1, -1, 0, 0, 0, 1], [3, 1, -4, 1, 5, -9, 1, 1], [1, 1, 0, 1]],
)
def test_good_prime_rule_matches_sympy(coeffs):
    f = IntegerPolynomial(coeffs)
    good, bad = sympy_good_and_bad([f], 1000)
    assert good_primes(f, 1000) == good
    report = verify_law(f, 1000)
    assert report.bad_primes == tuple(bad)
    assert [r.p for r in report.records] == good


@pytest.mark.parametrize(
    "fc, hc", [([-2, 0, 0, 1], [3, 0, 1]), ([-1, -1, 0, 0, 0, 1], [-2, 0, 0, 1])]
)
def test_inclusion_good_count_matches_sympy(fc, hc):
    f, h = IntegerPolynomial(fc), IntegerPolynomial(hc)
    good, _ = sympy_good_and_bad([f, h], 1000)
    assert inclusion_check(f, h, 1000).good_count == len(good)


# ---------------------------------------------------------------------------
# Complete splitting
# ---------------------------------------------------------------------------


def brute_splits(f, p):
    """Root scan: splits completely iff deg(f) distinct roots mod p."""
    roots = {x for x in range(p) if f.evaluate(x) % p == 0}
    return len(roots) == f.degree


@pytest.mark.parametrize(
    "coeffs",
    [
        [-2, 0, 0, 1],
        [-1, -1, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 1],
        [3, -4, 1, 0, 2, 0, 0, 1],
        [1, -1, -1, 1],  # (x - 1)^2 (x + 1): a repeated root at every prime
    ],
)
def test_splits_completely_against_root_scan(coeffs):
    # every odd prime, bad ones included, so repeated roots mod p are checked
    f = IntegerPolynomial(coeffs)
    for p in sieve_primes(300)[1:]:
        assert splits_completely(f, p) == brute_splits(f, p), p


def test_splits_completely_handles_bad_primes_too():
    # at a bad prime the degree may drop or a factor may repeat; the fast
    # path must still answer without crashing
    assert splits_completely(CUBE, 3) is False  # x^3 - 2 = (x+1)^3 mod 3
    f = IntegerPolynomial([0, -1, 0, 1])  # x^3 - x = x(x-1)(x+1)
    assert splits_completely(f, 5) is True
    assert splits_completely(f, 3) is True


def sympy_splits(f, p):
    """sympy's factorization mod p is all linear, squarefree and of full degree >= 1."""
    factors = sympy.Poly(list(reversed(f.coeffs)), X, modulus=p).factor_list()[1]
    linear = all(g.degree() == 1 and m == 1 for g, m in factors)
    return linear and len(factors) == f.degree >= 1


SPLIT_PRIMES = [3, 5, 7, 97, 65521, 2**31 - 1]


@given(
    coeffs=st.lists(st.integers(-50, 50), min_size=2, max_size=10).filter(lambda c: c[-1]),
    monic=st.booleans(),
    p=st.sampled_from(SPLIT_PRIMES),
)
@settings(max_examples=150, deadline=None)
def test_splits_completely_matches_sympy(coeffs, monic, p):
    f = IntegerPolynomial(coeffs[:-1] + [1] if monic else coeffs)  # degree 1 to 9
    assert splits_completely(f, p) == sympy_splits(f, p)


@given(
    roots=st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=9),
    lead=st.integers(1, 14),
    p=st.sampled_from(SPLIT_PRIMES),
)
@settings(max_examples=150, deadline=None)
def test_splits_completely_matches_sympy_on_products_of_linears(roots, lead, p):
    # random f almost never split at a large p; lead * prod (x - r) split
    # exactly when lead is a unit mod p and the roots are distinct mod p
    coeffs = [lead]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    f = IntegerPolynomial(coeffs)
    assert splits_completely(f, p) == sympy_splits(f, p)


@given(
    coeffs=st.lists(st.integers(-50, 50), min_size=2, max_size=9),
    roots=st.booleans(),
    p=st.sampled_from(SPLIT_PRIMES),
)
@settings(max_examples=150, deadline=None)
def test_discriminant_character_gate_matches_sympy(coeffs, roots, p):
    # monic f of degree 2-9, either random or prod (x - r) so that True occurs at large p
    if roots:
        f = [1]
        for r in coeffs:
            f = [a - r * b for a, b in zip([0, *f], [*f, 0])]
    else:
        f = coeffs + [1]
    f = IntegerPolynomial(f)
    disc = discriminant(f)
    assume(disc % p)
    chi, split = reciprocity._split_at(f, disc, p)
    assert split == splits_completely(f, p) == sympy_splits(f, p)
    r = len(sympy.Poly(list(reversed(f.coeffs)), X, modulus=p).factor_list()[1])
    assert chi == (-1) ** (f.degree - r)  # Stickelberger


@pytest.mark.parametrize(
    "coeffs,p,want",
    [
        ([-2, 0, 0, 1], 31, True),  # x^3 - 2
        ([1, 1, 0, 7], 7, False),  # 7x^3 + x + 1 = x + 1 mod 7: the degree drops
        ([-1, 0, 1, 5], 5, False),  # x^2 - 1 splits mod 5, but not 5x^3 + x^2 - 1
        ([5, 0, 10], 5, False),  # zero mod p
        ([7, 0, 0, 14], 7, False),
        ([3, 2], 5, True),  # every linear f of full degree splits
        ([4], 5, False),  # a constant has degree below 1
    ],
)
def test_splits_completely_pinned_cases(coeffs, p, want):
    f = IntegerPolynomial(coeffs)
    assert splits_completely(f, p) is want
    assert sympy_splits(f, p) is want


def test_only_the_torsion_side_builds_a_prime_field(monkeypatch):
    # the splitting side runs on the kernel, so the sweeps that only split
    # never test p for primality; verify builds F_p once per good prime
    tested = []
    is_prime = ff.is_prime
    monkeypatch.setattr(ff, "is_prime", lambda n: tested.append(n) or is_prime(n))
    density_report(CUBE, 3000)
    spl_set(CUBE, 3000)
    inclusion_check(CUBE, IntegerPolynomial([3, 0, 1]), 3000)
    assert tested == []
    verify_law(CUBE, 3000)
    assert tested == good_primes(CUBE, 3000)


def test_frobenius_tests_each_good_prime_once(monkeypatch):
    # the splitting field is built on the F_p that reduce_mod made, so p is
    # tested for primality there only, not again by ext_new
    tested = []
    is_prime = ff.is_prime
    monkeypatch.setattr(ff, "is_prime", lambda n: tested.append(n) or is_prime(n))
    frobenius_sweep(CUBE, 300)
    assert tested == good_primes(CUBE, 300) and len(tested) == 60


def test_only_square_discriminants_reach_the_kernel_power(monkeypatch):
    # (disc f / p) = -1 answers False by Stickelberger before x^p mod f runs
    calls = []
    ppowmod = ff._ppowmod
    monkeypatch.setattr(ff, "_ppowmod", lambda *a: calls.append(a[3]) or ppowmod(*a))
    report = density_report(CUBE, 3000)
    disc = discriminant(CUBE)
    squares = [p for p in good_primes(CUBE, 3000) if pow(disc, (p - 1) // 2, p) == 1]
    assert calls == squares and len(squares) == 207 and report.good_count == 428


def test_verify_takes_one_derivative_per_prime(monkeypatch):
    # squarefreeness is read off factorize's decomposition; the curve
    # constructor takes no second derivative
    calls = []
    squarefree_parts = poly._squarefree_parts
    monkeypatch.setattr(
        poly, "_squarefree_parts", lambda f, p: calls.append(f) or squarefree_parts(f, p)
    )
    verify_law(CUBE, 3000)
    assert len(calls) == len(good_primes(CUBE, 3000)) == 428


def test_verify_walks_the_two_torsion_with_cantor_add(monkeypatch):
    # 2^(n-1) adds at each prime with n > 1 factors: 2^(n-1) - 1 walk steps
    # and the closing doubling. Where the cubic splits (g = 1), the steps
    # h1 + h2 and h3 + h1 have degree 2 and each takes one reduction.
    adds, reductions = [], []
    add, monic = torsion.add, jacobian._monic_raw
    monkeypatch.setattr(torsion, "add", lambda a, b: adds.append(a) or add(a, b))
    monkeypatch.setattr(jacobian, "_monic_raw", lambda ctx, a: reductions.append(a) or monic(ctx, a))
    report = verify_law(CUBE, 3000)
    sizes = [len(r.splitting.pairs) for r in report.records]
    assert len(adds) == sum(1 << (n - 1) for n in sizes if n > 1) == 714
    assert len(reductions) == 2 * sizes.count(3) == 136


def test_verify_runs_no_prime_field_context_arithmetic(monkeypatch):
    # factorization and the Cantor adds and reductions of the 2-torsion walk,
    # whose classes all have v = 0, run on ff's int-tuple kernel, not
    # element by element
    calls = []
    for name in ("add", "sub", "mul", "neg", "inv"):
        method = getattr(PrimeFieldContext, name)
        monkeypatch.setattr(
            PrimeFieldContext, name,
            lambda self, *a, name=name, method=method: calls.append(name) or method(self, *a),
        )
    verify_law(CUBE, 3000)
    assert calls == []


def test_frobenius_builds_one_field_per_prime(monkeypatch):
    # roots are found in one kind of field: F_p too is built, as ext_new(F_p, 1)
    calls = []
    ext_new = ff.ext_new
    monkeypatch.setattr(
        ff, "ext_new", lambda base, *a, **kw: calls.append(base.p) or ext_new(base, *a, **kw)
    )
    frobenius_sweep(CUBE, 300)
    assert calls == good_primes(CUBE, 300) and len(calls) == 60


def test_splitting_type_and_fast_path_agree():
    f = IntegerPolynomial([-1, -1, 0, 0, 0, 1])
    for p in good_primes(f, 200):
        st_ = factorize(f.reduce_mod(p), seed=0).splitting_type()
        assert st_.all_linear == splits_completely(f, p)
        assert sum(d * m for d, m in st_.pairs) == 5


def test_splitting_type_matches_sympy():
    f = IntegerPolynomial([3, 1, 4, 1, 5, 9, 2, 1])
    for p in (3, 5, 7, 11, 13, 101):
        got = factorize(f.reduce_mod(p), seed=0).splitting_type().pairs
        fp = sympy.Poly(list(reversed(f.coeffs)), X, modulus=p)
        want = tuple(sorted((g.degree(), m) for g, m in fp.factor_list()[1]))
        assert got == want, p


# ---------------------------------------------------------------------------
# The law itself
# ---------------------------------------------------------------------------


def test_verify_law_cubic_frozen_values():
    report = verify_law(CUBE, 100)
    assert report.verdict is True
    assert report.violations() == []
    assert report.genus == 1
    assert report.bad_primes == (2, 3)
    assert len(report.records) == 23
    assert report.spl == (31, 43)
    assert report.density == Fraction(2, 23)
    ranks = {r.p: r.torsion_rank for r in report.records}
    assert ranks[31] == 2 and ranks[43] == 2
    assert ranks[5] == 1 and ranks[7] == 0


def test_verify_law_record_cross_check():
    report = verify_law(CUBE, 60)
    for r in report.records:
        assert r.splits_completely == r.splitting.all_linear
        assert r.splitting == factorize(CUBE.reduce_mod(r.p), seed=0).splitting_type()
        assert r.law_consistent == (r.splits_completely == (r.torsion_rank == 2))
        # recompute the rank through the public curve route
        C = HyperellipticCurve(CUBE.reduce_mod(r.p))
        assert two_torsion_points(C, seed=0).rank == r.torsion_rank


def test_verify_law_is_worker_invariant():
    a = verify_law(CUBE, 400, workers=1)
    b = verify_law(CUBE, 400, workers=3)
    assert a == b


def test_verify_law_pool_is_no_wider_than_primes_or_cpus(monkeypatch):
    asked = []

    class SerialPool:
        """Records the requested width and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    report = verify_law(CUBE, 200, workers=10**6)
    width = min(len(report.records), os.cpu_count() or 1)
    assert asked == ([width] if width > 1 else [])
    assert report == verify_law(CUBE, 200)

    # the driver itself keeps the prime order at every width
    for primes in ([], [3], [5, 3, 7], list(range(3, 200, 2))):
        for workers in (1, 2, 10**6):
            asked.clear()
            assert reciprocity._sweep(str, primes, workers) == tuple(map(str, primes))
            width = min(workers, len(primes), os.cpu_count() or 1)
            assert asked == ([width] if width > 1 else [])

    asked.clear()
    assert len(reciprocity.frobenius_sweep(CUBE, 200)) == len(report.records)
    assert asked == []


def test_verify_law_quintic():
    f = IntegerPolynomial([-1, -1, 0, 0, 0, 1])  # x^5 - x - 1, disc 2869 = 19*151
    report = verify_law(f, 200)
    assert report.bad_primes == (2, 19, 151)
    assert report.verdict is True
    assert report.genus == 2
    for r in report.records:
        assert (r.torsion_rank == 4) == r.splits_completely


def test_verify_law_rejects_bad_inputs():
    # both per-prime sweeps refuse the same inputs, whatever the bound
    for sweep in (verify_law, reciprocity.frobenius_sweep):
        with pytest.raises(EvenDegree):
            sweep(IntegerPolynomial([1, 0, 0, 0, 1]), 50)
        with pytest.raises(EvenDegree):
            sweep(IntegerPolynomial([1, 0, 0, 0, 1]), 2)  # no good primes
        with pytest.raises(NotMonic):
            sweep(IntegerPolynomial([1, 0, 0, 2]), 50)
        with pytest.raises(NotIrreducible):
            sweep(IntegerPolynomial([-1, 0, 0, 1]), 50)  # root 1
        with pytest.raises(NotIrreducible):
            sweep(IntegerPolynomial([-8, 0, 0, 1]), 50)  # root 2
        with pytest.raises(NotIrreducible):
            sweep(IntegerPolynomial([0, 0, 0, 0, 0, 1]), 50)  # root 0


def test_verify_law_with_no_good_primes_is_vacuous():
    # the library stays permissive; the command line rejects bound < 2
    report = verify_law(CUBE, 4)
    assert report.records == () and report.spl == ()
    assert report.verdict is True
    assert report.density is None


def test_spl_set_frozen_values():
    assert spl_set(CUBE, 100) == [31, 43]
    assert spl_set(CUBE, 200) == [31, 43, 109, 127, 157]


def test_spl_set_is_prefix_stable():
    long = spl_set(CUBE, 2000)
    short = spl_set(CUBE, 500)
    assert long[: len(short)] == short
    assert all(p <= 500 for p in short)


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


def test_density_exact_small_case():
    rep = density_report(CUBE, 100, group_order=6)
    assert rep.good_count == 23
    assert rep.split_count == 2
    assert rep.observed == Fraction(2, 23)
    assert rep.deviation == Fraction(11, 138)


def test_density_without_group_order():
    rep = density_report(CUBE, 100)
    assert rep.group_order is None and rep.deviation is None


@pytest.mark.parametrize("order", [0, -3])
def test_density_refuses_a_nonpositive_group_order_before_the_sweep(monkeypatch, order):
    monkeypatch.setattr(reciprocity, "sieve_primes", lambda bound: pytest.fail("sieve started"))
    with pytest.raises(ValueError, match="group order must be positive"):
        density_report(CUBE, 10**6, group_order=order)


def test_density_agrees_with_verify():
    rep = density_report(CUBE, 300)
    report = verify_law(CUBE, 300)
    assert rep.observed == report.density
    assert rep.split_count == len(report.spl)
    assert rep.good_count == len(report.records)


def test_density_empty_range():
    with pytest.raises(EmptyRange):
        density_report(CUBE, 4)


# ---------------------------------------------------------------------------
# Split-set inclusion
# ---------------------------------------------------------------------------


def test_inclusion_cubic_in_its_resolvent_quadratic():
    rep = inclusion_check(CUBE, IntegerPolynomial([3, 0, 1]), 2000)
    assert rep.holds and rep.exceptions == ()
    assert rep.first_counterexample is None


def test_inclusion_reverse_direction_fails_at_seven():
    rep = inclusion_check(IntegerPolynomial([3, 0, 1]), CUBE, 2000)
    assert not rep.holds
    assert rep.first_counterexample == 7
    assert rep.exceptions[0] == 7
    assert 31 not in rep.exceptions and 43 not in rep.exceptions


def test_inclusion_is_reflexive():
    for coeffs in ([-2, 0, 0, 1], [3, 0, 1], [-1, -1, 0, 0, 0, 1]):
        f = IntegerPolynomial(coeffs)
        assert inclusion_check(f, f, 500).holds


def test_inclusion_validates_inputs():
    with pytest.raises(NotMonic):
        inclusion_check(CUBE, IntegerPolynomial([1, 0, 2]), 100)
    with pytest.raises(NotIrreducible):
        inclusion_check(CUBE, IntegerPolynomial([-1, 0, 1]), 100)


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def test_default_seed_is_stable():
    assert DEFAULT_SEED == 271828


def test_verify_law_seed_changes_nothing_observable():
    # the seed steers factorization internals only; all reported values
    # are canonical
    assert verify_law(CUBE, 100, seed=1) == verify_law(CUBE, 100, seed=999)
