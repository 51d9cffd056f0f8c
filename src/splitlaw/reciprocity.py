"""Prime splitting of integer polynomials and the reciprocity sweep.

For monic irreducible f over the integers, a good prime (odd, not dividing
disc f) splits completely in the splitting field of f exactly when f mod p
factors into distinct linear polynomials, and the law under test states this
happens exactly when the rational 2-torsion of Jac(y^2 = f mod p) has full
rank 2g. The sweep computes the two sides by disjoint code paths: the left
by the discriminant character first (where disc f is a non-square mod p,
Stickelberger's theorem rules out complete splitting) and otherwise by
testing whether f divides x^p - x (no factorization; x^p - x has no
repeated factor, so divisibility also excludes repeated roots), the right
by building the whole 2-torsion subgroup through Cantor arithmetic. Their
agreement per prime is the verified instance of the law.

Good primes exclude p = 2 and p | disc(f). Any prime not dividing disc(f)
is prime to the conductor of the order generated by a root of f, so this
surrogate drops at most finitely many primes, which a law stated up to
finitely many exceptions tolerates.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from . import ff
from .errors import (
    INTERNAL_ERRORS,
    EmptyRange,
    EvenDegree,
    NotIrreducible,
    NotMonic,
    UnsupportedDegree,
    ZeroDiscriminant,
)
from .jacobian import HyperellipticCurve
from .poly import IntegerPolynomial, SplittingType
from .torsion import (
    cycle_lengths, frobenius_permutation, permutation_matrix, two_torsion_points
)

DEFAULT_SEED = 271828  # published default; all randomness derives from it


def sieve_primes(bound: int) -> list[int]:
    """All primes <= bound by the sieve of Eratosthenes."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for n in range(2, int(bound**0.5) + 1):
        if flags[n]:
            flags[n * n :: n] = bytes(len(range(n * n, bound + 1, n)))
    return list(itertools.compress(range(bound + 1), flags))


# ---------------------------------------------------------------------------
# Discriminant over the integers
# ---------------------------------------------------------------------------


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def resultant(f: IntegerPolynomial, g: IntegerPolynomial) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    n, m = f.degree, g.degree
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    size = n + m
    fa = list(reversed(f.coeffs))
    ga = list(reversed(g.coeffs))
    rows = []
    for i in range(m):
        rows.append([0] * i + fa + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + ga + [0] * (size - m - 1 - i))
    return _det_bareiss(rows)


def discriminant(f: IntegerPolynomial) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f of degree n >= 2."""
    if not f.is_monic:
        raise NotMonic("discriminant requires a monic polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("discriminant requires degree >= 2")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative())


# ---------------------------------------------------------------------------
# Per-prime splitting data
# ---------------------------------------------------------------------------


def _split_primes(
    bound: int, *polys: IntegerPolynomial
) -> tuple[list[int], list[int], tuple[int, ...]]:
    """(good, bad) primes <= bound and the disc of each polynomial.

    Bad means 2 or a divisor of some disc.
    """
    discs = tuple(map(discriminant, polys))
    disc = math.prod(discs)
    if disc == 0:
        raise ZeroDiscriminant("polynomial has a repeated root over the rationals")
    good, bad = [], []
    for p in sieve_primes(bound):
        (bad if p == 2 or disc % p == 0 else good).append(p)
    return good, bad, discs


def good_primes(f: IntegerPolynomial, bound: int) -> list[int]:
    """Odd primes <= bound not dividing disc(f); f mod p is then squarefree."""
    return _split_primes(bound, f)[0]


def splits_completely(f: IntegerPolynomial, p: int) -> bool:
    """True iff f mod p has full degree, is squarefree and has all factors linear.

    Computed without factorization: f mod p splits completely exactly when
    it divides x^p - x, the product of (x - a) over all a in F_p, tested as
    x^p = x mod f. That product has no repeated factor, so divisibility
    also settles squarefreeness. It runs on the F_p[x] kernel, on int
    tuples: no field context, so no primality test of p, which the caller
    has already sieved.
    """
    fbar = ff._pnorm([c % p for c in f.coeffs])
    if len(fbar) != len(f.coeffs) or len(fbar) < 2:
        return False
    return len(fbar) == 2 or ff._ppowmod((0, 1), p, fbar, p) == (0, 1)


def _split_at(f: IntegerPolynomial, disc: int, p: int) -> tuple[int, bool]:
    """(disc f / p) and whether f splits completely mod p, at a good prime p.

    By Stickelberger's theorem (disc f / p) = (-1)^(deg f - r) for the r
    irreducible factors of f mod p, so a non-square disc f rules out
    complete splitting; x^p mod f runs only where disc f is a square.
    """
    chi = 1 if pow(disc % p, (p - 1) // 2, p) == 1 else -1
    return chi, chi == 1 and splits_completely(f, p)


@dataclass(frozen=True)
class PrimeRecord:
    """Both sides of the law at a single prime."""

    p: int
    splitting: SplittingType
    torsion_rank: int | None
    splits_completely: bool
    law_consistent: bool


@dataclass(frozen=True)
class ReciprocityReport:
    """Outcome of a full sweep over the good primes up to a bound."""

    f: IntegerPolynomial
    genus: int
    bound: int
    bad_primes: tuple[int, ...]
    records: tuple[PrimeRecord, ...]
    spl: tuple[int, ...]
    verdict: bool
    density: Fraction | None

    def violations(self) -> list[PrimeRecord]:
        return [r for r in self.records if not r.law_consistent]


def _check_heuristic_irreducible(f: IntegerPolynomial) -> None:
    """Reject polynomials with an integer root (rational root test).

    Full factorization over the rationals is out of scope; absence of
    integer roots is a necessary condition only, so this is a heuristic
    gate for obviously reducible input.
    """
    if f.degree < 1:
        raise NotIrreducible("constant polynomial")
    if f.degree == 1:
        return
    a0 = f.coeffs[0]
    if a0 == 0:
        raise NotIrreducible("x divides the polynomial")
    divisors = []
    d = 1
    while d * d <= abs(a0):
        if a0 % d == 0:
            divisors.extend((d, abs(a0) // d))
        d += 1
    for d in divisors:
        for r in (d, -d):
            if f.evaluate(r) == 0:
                raise NotIrreducible(f"integer root {r} found")


def _validate_law_input(f: IntegerPolynomial) -> int:
    """Checks for the sweep entry points; returns the genus."""
    if not f.is_monic:
        raise NotMonic("the law requires a monic polynomial")
    if f.degree % 2 == 0:
        raise EvenDegree(f"degree {f.degree} is even; the law needs odd degree")
    if f.degree < 3:
        raise UnsupportedDegree("degree must be at least 3 for genus >= 1")
    _check_heuristic_irreducible(f)
    return (f.degree - 1) // 2


@contextlib.contextmanager
def at_prime(seed, p: int):
    """Yield the seed for the work at p; note both on an internal failure in it."""
    derived = f"{seed}:{p}"
    try:
        yield derived
    except (*INTERNAL_ERRORS, ValueError) as exc:
        exc.add_note(f"at p = {p}, seed {derived}")
        raise


def _sweep(task, primes: list[int], workers: int = 1) -> tuple:
    """task(p) for each prime, in order; a pool no wider than the primes or CPUs."""
    workers = min(workers, len(primes), os.cpu_count() or 1)
    if workers <= 1:
        return tuple(map(task, primes))
    # imported here: at start-up it would cost every serial run about 30 ms and 2.4 MB
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(primes) // (4 * workers))
        return tuple(pool.map(task, primes, chunksize=chunk))


def _prime_record(f: IntegerPolynomial, genus: int, disc: int, seed, p: int) -> PrimeRecord:
    """Both sides of the law at p; the two sides share no code path.

    The torsion side's factor count is checked against (disc f / p) by
    Stickelberger's theorem; the rank itself never depends on it.
    """
    with at_prime(seed, p) as derived:
        chi, split = _split_at(f, disc, p)
        sub = two_torsion_points(HyperellipticCurve(f.reduce_mod(p)), seed=derived)
        if chi != (-1) ** (f.degree - sub.n):
            raise RuntimeError(f"{sub.n} factors of f mod p contradict (disc f / p) = {chi}")
    law = split == (sub.rank == 2 * genus)
    return PrimeRecord(
        p=p,
        splitting=sub.factorization.splitting_type(),
        torsion_rank=sub.rank,
        splits_completely=split,
        law_consistent=law,
    )


def verify_law(
    f: IntegerPolynomial,
    bound: int,
    *,
    seed=DEFAULT_SEED,
    workers: int = 1,
) -> ReciprocityReport:
    """Check the law at every good prime <= bound.

    Records are listed by ascending prime regardless of worker scheduling,
    so reports are reproducible for a fixed seed.
    """
    genus = _validate_law_input(f)
    good, bad, (disc,) = _split_primes(bound, f)
    records = _sweep(functools.partial(_prime_record, f, genus, disc, seed), good, workers)
    spl = tuple(r.p for r in records if r.splits_completely)
    verdict = all(r.law_consistent for r in records)
    density = Fraction(len(spl), len(good)) if good else None
    return ReciprocityReport(
        f=f,
        genus=genus,
        bound=bound,
        bad_primes=tuple(bad),
        records=records,
        spl=spl,
        verdict=verdict,
        density=density,
    )


@dataclass(frozen=True)
class FrobeniusRecord:
    """Frobenius at a single prime, on the roots of f and on J_f[2].

    The matrix is derived from the permutation in the embedded-root basis
    v_i = (x - r_i, 0), i <= 2g, by the relation v_{2g+1} = v_1 + ... + v_2g;
    no divisor is built. tests/oracles.py builds that basis by Cantor
    addition and checks it. Roots are labelled factor by factor, in
    factorize's order, and along each factor's Frobenius orbit, so the
    permutation and matrix depend only on the factor degrees of f mod p.
    The three orders are one number: the lcm of the cycle lengths, checked
    against the matrix order.
    """

    p: int
    splitting_degree: int  # order of Frobenius on the roots, for squarefree f mod p
    matrix: tuple[tuple[int, ...], ...]  # rows of the matrix in GL_2g(F_2)
    order: int  # of the matrix
    permutation: tuple[int, ...]  # image index of each root, labelled as above
    permutation_order: int
    is_identity: bool
    splits_completely: bool


def _frobenius_record(
    f: IntegerPolynomial, disc: int, seed, cap: int, p: int
) -> FrobeniusRecord:
    """Frobenius at p as a permutation of the roots and as a matrix.

    The sign of the permutation must be (disc f / p), by Stickelberger's
    theorem; that checks the roots, their field and their order together.
    The matrix order must be the lcm of the cycle lengths, for a faithful
    action on J_f[2].
    """
    with at_prime(seed, p) as derived:
        chi, split = _split_at(f, disc, p)
        perm = frobenius_permutation(f.reduce_mod(p), p, derived, cap=cap)
        cycles = cycle_lengths(perm)
        if chi != (-1) ** (len(perm) - len(cycles)):
            raise RuntimeError(f"Frobenius permutation {perm} has sign {-chi}")
        M = permutation_matrix(perm)
        order = math.lcm(*cycles)
        if M.order() != order:
            raise RuntimeError(f"Frobenius matrix has order {M.order()}, its permutation {order}")
        return FrobeniusRecord(
            p=p, splitting_degree=order, matrix=tuple(map(tuple, M.to_lists())),
            order=order, permutation=tuple(perm), permutation_order=order,
            is_identity=M.is_identity, splits_completely=split,
        )


def frobenius_sweep(
    f: IntegerPolynomial, bound: int, *, seed=DEFAULT_SEED, cap: int = ff.DEFAULT_EXT_CAP
) -> tuple[FrobeniusRecord, ...]:
    """Frobenius at every good prime <= bound, by ascending prime."""
    _validate_law_input(f)
    good, _, (disc,) = _split_primes(bound, f)
    return _sweep(functools.partial(_frobenius_record, f, disc, seed, cap), good)


def spl_set(f: IntegerPolynomial, bound: int) -> list[int]:
    """Ascending good primes <= bound where f splits completely."""
    _validate_law_input(f)
    good, _, (disc,) = _split_primes(bound, f)
    return [p for p in good if _split_at(f, disc, p)[1]]


@dataclass(frozen=True)
class InclusionReport:
    """Empirical test of Spl(f) being contained in Spl(h)."""

    holds: bool
    exceptions: tuple[int, ...]
    first_counterexample: int | None
    good_count: int
    bound: int


def inclusion_check(
    f: IntegerPolynomial, h: IntegerPolynomial, bound: int
) -> InclusionReport:
    """Test whether every good prime splitting f also splits h, up to bound.

    Good primes exclude 2 and divisors of either discriminant. Both
    polynomials must be monic of degree >= 2 (h may have even degree; only
    factorizations are compared).
    """
    for poly in (f, h):
        if not poly.is_monic:
            raise NotMonic("inclusion test requires monic polynomials")
        if poly.degree < 2:
            raise UnsupportedDegree("inclusion test requires degree >= 2")
        _check_heuristic_irreducible(poly)
    good, _, (disc_f, disc_h) = _split_primes(bound, f, h)
    exceptions = tuple(
        p for p in good if _split_at(f, disc_f, p)[1] and not _split_at(h, disc_h, p)[1]
    )
    return InclusionReport(
        holds=not exceptions,
        exceptions=exceptions,
        first_counterexample=exceptions[0] if exceptions else None,
        good_count=len(good),
        bound=bound,
    )


@dataclass(frozen=True)
class DensityReport:
    """Observed frequency of completely-split primes up to a bound."""

    bound: int
    good_count: int
    split_count: int
    observed: Fraction
    group_order: int | None
    deviation: Fraction | None  # |observed - 1/group_order| when supplied


def density_report(
    f: IntegerPolynomial, bound: int, group_order: int | None = None
) -> DensityReport:
    """Frequency of split primes among good primes <= bound.

    With the Galois group order G supplied, also reports the deviation from
    the expected density 1/G.
    """
    if group_order is not None and group_order < 1:
        raise ValueError("group order must be positive")
    _validate_law_input(f)
    good, _, (disc,) = _split_primes(bound, f)
    if not good:
        raise EmptyRange(f"no good primes up to {bound}")
    split = [p for p in good if _split_at(f, disc, p)[1]]
    observed = Fraction(len(split), len(good))
    deviation = None
    if group_order is not None:
        deviation = abs(observed - Fraction(1, group_order))
    return DensityReport(
        bound=bound,
        good_count=len(good),
        split_count=len(split),
        observed=observed,
        group_order=group_order,
        deviation=deviation,
    )
