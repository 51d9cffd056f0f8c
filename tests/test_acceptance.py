"""Acceptance suite: one test per shipped claim, with pinned tolerances.

Each criterion is a single test, so `pytest -v` emits exactly one
pass/fail line per claim. Every test also prints a CRITERION line with
the measured quantities and the stated budget (visible with -s or in the
captured output of a failure). Oracles are independent of the code under
test: sympy factorization, exhaustive root scans, and byte comparison of
subprocess output.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy

from splitlaw import (
    BinaryMatrix,
    HyperellipticCurve,
    IntegerPolynomial,
    Polynomial,
    PrimeFieldContext,
    add,
    blowup_chain,
    cycle_lengths,
    discriminant,
    density_report,
    frobenius_permutation,
    good_primes,
    inclusion_check,
    permutation_matrix,
    spl_set,
    splits_completely,
    two_torsion_points,
    verify_law,
)

from oracles import embed_root, enumerate_jacobian, identity, neg, scalar_mul, torsion_basis

CUBE = IntegerPolynomial([-2, 0, 0, 1])
X = sympy.Symbol("x")


def report(n, text):
    print(f"CRITERION {n}: PASS - {text}")


def test_criterion_1_cubic_law_below_ten_thousand():
    t0 = time.perf_counter()
    rep = verify_law(CUBE, 10**4)
    assert rep.verdict is True
    assert rep.violations() == []
    for r in rep.records:
        assert r.splits_completely == (r.torsion_rank == 2)
    # DERIVED oracle: exhaustive root search per prime below 100
    brute = [
        p
        for p in good_primes(CUBE, 100)
        if sum(1 for x in range(p) if (x**3 - 2) % p == 0) == 3
    ]
    assert spl_set(CUBE, 100) == brute == [31, 43]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds the 5 s budget"
    report(
        1,
        f"law holds at all {len(rep.records)} good primes < 10^4, "
        f"spl(100)=[31,43] vs root-scan oracle ({elapsed:.2f}s < 5s)",
    )


def test_criterion_2_quintic_law_with_independent_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    quintics = []
    while len(quintics) < 20:
        coeffs = [rng.randint(-10, 10) for _ in range(5)] + [1]
        f = IntegerPolynomial(coeffs)
        if discriminant(f) != 0:  # squarefree over the rationals
            quintics.append(f)
    checked = 0
    for f in quintics:
        fs = sympy.Poly(list(reversed(f.coeffs)), X)
        for p in good_primes(f, 500):
            factors = fs.set_modulus(p).factor_list()[1]
            assert all(m == 1 for _, m in factors), (f, p)
            n = len(factors)
            split = all(g.degree() == 1 for g, _ in factors)
            C = HyperellipticCurve(f.reduce_mod(p))
            sub = two_torsion_points(C, seed=0)
            assert len(sub.elements) == 2 ** (n - 1), (f, p)
            rank = sub.rank
            assert rank == n - 1, (f, p)
            assert split == (rank == 4) == splits_completely(f, p), (f, p)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds the 60 s budget"
    report(
        2,
        f"20 quintics x good p<500: {checked} prime reductions, "
        f"count=2^(n-1) and law vs sympy oracle, zero violations "
        f"({elapsed:.2f}s < 60s)",
    )


def test_criterion_3_split_density_of_the_cubic():
    t0 = time.perf_counter()
    rep = density_report(CUBE, 10**5, group_order=6)
    deviation = float(rep.deviation)
    assert deviation < 0.015, f"deviation {deviation:.4f} breaches 0.015"
    assert rep.observed == Fraction(rep.split_count, rep.good_count)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds the 30 s budget"
    report(
        3,
        f"|{rep.split_count}/{rep.good_count} - 1/6| = {deviation:.4f} < 0.015 "
        f"at bound 10^5 ({elapsed:.2f}s < 30s)",
    )


def test_criterion_4_group_law_suite():
    t0 = time.perf_counter()
    curves = [
        (13, [-2, 0, 0, 1]),  # g=1
        (31, [-2, 0, 0, 1]),  # g=1
        (7, [1, 0, 0, 0, 0, 1]),  # g=2
        (13, [2, 1, 0, 0, 0, 1]),  # g=2
        (7, [1, 1, 0, 0, 0, 0, 0, 1]),  # g=3
    ]
    rng = random.Random(0xD1CE)
    triples = 0
    lagrange_elements = 0
    for p, coeffs in curves:
        assert p < 100
        C = HyperellipticCurve(Polynomial(PrimeFieldContext(p), coeffs))
        J = enumerate_jacobian(C)
        E = identity(C)
        for _ in range(220):
            A, B, D = (rng.choice(J) for _ in range(3))
            assert add(add(A, B), D) == add(A, add(B, D))
            assert add(A, B) == add(B, A)
            assert add(A, E) == A
            assert add(A, neg(A)).is_identity
            triples += 1
        if p <= 13 and C.genus <= 2:
            N = len(J)
            for D in J:
                assert scalar_mul(N, D).is_identity
                lagrange_elements += 1
    assert triples >= 1000
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds the 60 s budget"
    report(
        4,
        f"{len(curves)} curves g in {{1,2,3}}: {triples} random triples pass "
        f"associativity/commutativity/identity/inverse, Lagrange on "
        f"{lagrange_elements} enumerated elements ({elapsed:.2f}s < 60s)",
    )


def test_criterion_5_torsion_basis_independence():
    t0 = time.perf_counter()
    cases = [(CUBE.reduce_mod(p), p) for p in spl_set(CUBE, 200)]
    # one split quintic instance: x(x-1)(x-2)(x-3)(x-4) mod 7
    cases.append((Polynomial(PrimeFieldContext(7), [0, 3, 6, 0, 4, 1]), 7))
    checked = []
    for fbar, p in cases:
        tb = torsion_basis(fbar, p, seed=1)
        g = tb.curve.genus
        for mask in range(1, 1 << (2 * g)):
            acc = identity(tb.curve)
            for i in range(2 * g):
                if mask >> i & 1:
                    acc = add(acc, tb.basis[i])
            assert not acc.is_identity, (p, mask)
        total = identity(tb.curve)
        for e in tb.roots:
            total = add(total, embed_root(e, tb.curve))
        assert total.is_identity, p
        checked.append((p, 2 * g))
    elapsed = time.perf_counter() - t0
    report(
        5,
        f"split reductions {checked[:-1]} of x^3-2 plus a split quintic mod 7: "
        f"all 2^2g-1 nonempty subset sums nonzero, root sums are the identity "
        f"({elapsed:.2f}s)",
    )


def test_criterion_6_frobenius_representation():
    t0 = time.perf_counter()
    primes = good_primes(CUBE, 300)[:50]
    assert len(primes) == 50
    split_primes = set(spl_set(CUBE, max(primes)))
    seen = set()
    for p in primes:
        fbar = CUBE.reduce_mod(p)
        perm = frobenius_permutation(fbar, p, seed=1)
        M = permutation_matrix(perm)
        assert M.is_invertible
        assert M.order() == math.lcm(*cycle_lengths(perm))
        assert M.is_identity == (p in split_primes) == splits_completely(CUBE, p)
        seen.add(M)
    # close the observed set under multiplication: must stay within a group
    # of order <= 6 (the full symmetric group of the three roots)
    closure = set(seen)
    closure.add(BinaryMatrix([1, 2]))
    while True:
        new = {A * B for A in closure for B in closure} - closure
        if not new:
            break
        closure |= new
    assert len(closure) <= 6
    elapsed = time.perf_counter() - t0
    report(
        6,
        f"first 50 good primes: invertible, order = permutation order, "
        f"identity iff split; {len(seen)} distinct matrices generate a group "
        f"of order {len(closure)} <= 6 ({elapsed:.2f}s)",
    )


def test_criterion_7_blowup_chain_termination():
    t0 = time.perf_counter()
    rng = random.Random(0xB10)
    rounds = 0
    for g in (2, 3, 4):
        for _ in range(20):
            p = rng.choice([3, 5, 7, 11, 13, 101, 1009])
            coeffs = [rng.randrange(p) for _ in range(2 * g + 1)]
            charts = blowup_chain(g, coeffs, p)
            exponents = [c.residual_exponent for c in charts]
            assert exponents == list(range(2 * g - 1, 2, -2)), (g, coeffs, p)
            assert all(b - a == -2 for a, b in zip(exponents, exponents[1:]))
            assert charts[-1].terminal and exponents[-1] == 3
            d = {(i, j): c for i, j, c in charts[-1].equation.terms}
            assert d[(2, 0)] == 1  # S(0) = 1
            assert d[(0, 3)] == p - 1  # the -u^3 branch of the cusp
            assert all(i == 2 or (i, j) == (0, 3) for (i, j) in d)
            rounds += len(charts)
    elapsed = time.perf_counter() - t0
    report(
        7,
        f"g in {{2,3,4}} x 20 random vectors: every chain ends in the cusp "
        f"w^2*S(u)-u^3 with S(0)=1, exponents drop by exactly 2 per round "
        f"({rounds} rounds, {elapsed:.2f}s)",
    )


def test_criterion_8_split_set_inclusion():
    t0 = time.perf_counter()
    quad = IntegerPolynomial([3, 0, 1])
    forward = inclusion_check(CUBE, quad, 10**4)
    assert forward.holds and forward.exceptions == ()
    reverse = inclusion_check(quad, CUBE, 10**4)
    assert not reverse.holds
    assert reverse.first_counterexample == 7
    elapsed = time.perf_counter() - t0
    report(
        8,
        f"Spl(x^3-2) within Spl(x^2+3) up to 10^4 with no exceptions; "
        f"reverse fails first at p=7 with {len(reverse.exceptions)} exceptions "
        f"({elapsed:.2f}s)",
    )


def test_criterion_9_byte_identical_reports():
    t0 = time.perf_counter()
    argv = [sys.executable, "-m", "splitlaw", "verify", "x^3-2", "--bound", "10000"]
    outputs = []
    for extra in ([], [], ["--workers", "3"]):
        proc = subprocess.run(
            argv + extra, capture_output=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    doc = json.loads(outputs[0])
    assert doc["payload"]["verdict"] is True
    elapsed = time.perf_counter() - t0
    report(
        9,
        f"three runs (one at --workers 3) produced byte-identical "
        f"{len(outputs[0])}-byte reports ({elapsed:.2f}s)",
    )
