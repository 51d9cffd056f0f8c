"""Dedekind and Chebotarev on polynomials whose Galois group is not S_n.

Under S_n every cycle type occurs, so a factorization with a wrong degree
pattern, or a Frobenius permutation with a wrong cycle type, breaks no
group-theoretic expectation there. Over this corpus it does. At a good
prime p, the degree pattern of f mod p is the cycle type of Frobenius
(Dedekind), so it must be a cycle type of G = Gal(f); and as p grows, each
type occurs with the share of G it takes (Chebotarev).

Each class table maps a cycle type to the number of elements of G with it.
For degrees up to 6 the table is checked against sympy's galois_group. For
x^7 - 7x + 3 (Trinks' polynomial, G = PSL(2,7) of order 168, as in Erbach,
Fischer & McKay, J. Number Theory 11, 1979) it is the group's action on
the 7 points of the Fano plane, which sympy does not compute.
"""

import collections
import math

import pytest
import sympy

from splitlaw import factorize
from splitlaw.cli import parse_polynomial
from splitlaw.reciprocity import frobenius_sweep, verify_law
from splitlaw.torsion import cycle_lengths

BOUND = 600  # about 107 good primes each
# a class frequency may stray this many binomial standard deviations from its share
TOLERANCE_SD = 3.0

CORPUS = {
    "x^3-3x+1": ("C3", {(1, 1, 1): 1, (3,): 2}),
    "x^5-5x+12": ("D5", {(1, 1, 1, 1, 1): 1, (1, 2, 2): 5, (5,): 4}),
    "x^5-2": ("F20", {(1, 1, 1, 1, 1): 1, (1, 2, 2): 5, (1, 4): 10, (5,): 4}),
    "x^5+20x+16": ("A5", {(1, 1, 1, 1, 1): 1, (1, 2, 2): 15, (1, 1, 3): 20, (5,): 24}),
    "x^7-7x+3": (
        "PSL(2,7)",
        {(1, 1, 1, 1, 1, 1, 1): 1, (1, 1, 1, 2, 2): 21, (1, 3, 3): 56, (1, 2, 4): 42, (7,): 48},
    ),
}


def cycle_type(perm) -> tuple:
    return tuple(sorted(cycle_lengths(list(perm))))


@pytest.mark.parametrize("text", [t for t in CORPUS if parse_polynomial(t).degree <= 6])
def test_class_table_is_sympy_s_galois_group(text):
    f = parse_polynomial(text)
    G, _ = sympy.galois_group(sympy.Poly(f.coeffs[::-1], sympy.Symbol("x")))
    degree = f.degree
    table = collections.Counter()
    for g in G.elements:
        lengths = [n for n, k in g.cycle_structure.items() for _ in range(k)]
        table[tuple(sorted(lengths + [1] * (degree - sum(lengths))))] += 1
    assert dict(table) == CORPUS[text][1]


@pytest.mark.parametrize("text", list(CORPUS))
def test_frobenius_classes_lie_in_the_galois_group(text):
    name, table = CORPUS[text]
    order = sum(table.values())
    f = parse_polynomial(text)
    records = frobenius_sweep(f, BOUND)
    seen = collections.Counter()
    for r in records:
        pattern = tuple(sorted(g.degree for g, _ in factorize(f.reduce_mod(r.p), seed=0).factors))
        assert cycle_type(r.permutation) == pattern, (name, r.p)  # Dedekind
        assert pattern in table, (name, r.p, pattern)
        seen[pattern] += 1
    n = len(records)
    for pattern, size in table.items():  # Chebotarev, to a binomial tolerance
        share = size / order
        sd = math.sqrt(share * (1 - share) / n)
        assert abs(seen[pattern] / n - share) <= TOLERANCE_SD * sd, (name, pattern, seen[pattern], n)
    report = verify_law(f, BOUND)
    assert report.verdict is True
    assert report.spl == tuple(r.p for r in records if r.is_identity)
