"""Jacobian arithmetic in Mumford coordinates.

Two independent oracles keep the composition algorithm honest: the
classical chord-and-tangent law for genus 1, and zeta-function point
counting (curve points over F_p, F_{p^2}, F_{p^3} determine the group
order) for the brute-force enumeration.
"""

import random

import pytest

from splitlaw import (
    CurveMismatch,
    EvenDegree,
    HyperellipticCurve,
    NotMonic,
    NotSquarefree,
    Polynomial,
    PrimeFieldContext,
    UnsupportedDegree,
    add,
    ext_new,
    two_torsion_points,
)
from splitlaw.poly import _deriv_raw

from oracles import (
    divisor,
    elements,
    embed_poly,
    enumerate_jacobian,
    evaluate,
    identity,
    neg,
    power,
    scalar_mul,
)


def curve(p, coeffs):
    return HyperellipticCurve(Polynomial(PrimeFieldContext(p), coeffs))


def point_divisor(C, x0, y0):
    ctx = C.f.ctx
    return divisor(C, Polynomial(ctx, [-x0, 1]), Polynomial(ctx, [y0]))


def affine_points(C):
    ctx = C.f.ctx
    pts = []
    for x0 in range(ctx.p):
        fx = evaluate(C.f, x0)
        for y0 in range(ctx.p):
            if y0 * y0 % ctx.p == fx:
                pts.append((x0, y0))
    return pts


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_curve_validation():
    ctx = PrimeFieldContext(7)
    with pytest.raises(EvenDegree):
        HyperellipticCurve(Polynomial(ctx, [1, 0, 0, 0, 1]))
    with pytest.raises(NotMonic):
        HyperellipticCurve(Polynomial(ctx, [1, 0, 0, 3]))
    C = HyperellipticCurve(Polynomial(ctx, [0, 0, 0, 1]))  # x^3 = x * x^2
    with pytest.raises(NotSquarefree):
        two_torsion_points(C, seed=0)
    with pytest.raises(UnsupportedDegree):
        HyperellipticCurve(Polynomial(ctx, [3, 1]))
    with pytest.raises(UnsupportedDegree, match="zero"):
        HyperellipticCurve(Polynomial.zero(ctx))
    # wild but squarefree degrees are fine: deg 7 = char 7
    assert curve(7, [1, 1, 0, 0, 0, 0, 0, 1]).genus == 3


def test_genus_from_degree():
    assert curve(7, [-2, 0, 0, 1]).genus == 1
    assert curve(7, [1, 0, 0, 0, 0, 1]).genus == 2
    assert curve(7, [1, 1, 0, 0, 0, 0, 0, 1]).genus == 3


def test_identity_element_is_u_one_v_zero():
    C = curve(7, [-2, 0, 0, 1])
    E = identity(C)
    assert E.is_identity
    assert E.u == Polynomial(C.f.ctx, [1])
    assert E.v.is_zero


def test_divisor_validation():
    C = curve(31, [-2, 0, 0, 1])
    ctx = C.f.ctx
    D = point_divisor(C, 4, 0)
    assert D.u.coeffs == (27, 1)
    with pytest.raises(ValueError, match="does not divide"):
        point_divisor(C, 5, 1)  # 1 != f(5)
    with pytest.raises(ValueError, match="monic"):
        divisor(C, Polynomial(ctx, [1, 2]), Polynomial.zero(ctx))
    with pytest.raises(ValueError, match="exceeds genus"):
        # deg u = 2 > g = 1
        divisor(C, Polynomial(ctx, [1, 0, 1]), Polynomial.zero(ctx))
    with pytest.raises(ValueError, match="below deg u"):
        # deg v >= deg u
        divisor(C, Polynomial(ctx, [27, 1]), Polynomial(ctx, [0, 1]))
    other = curve(31, [-3, 0, 0, 1])
    with pytest.raises(CurveMismatch):
        add(D, point_divisor(other, 0, 11))
    f5 = PrimeFieldContext(5)
    with pytest.raises(ValueError, match="different field"):
        divisor(C, Polynomial(f5, [1, 1]), Polynomial.zero(f5))


def test_divisors_work_over_extension_fields():
    ext = ext_new(5, 2, seed=4)
    f = embed_poly(Polynomial(PrimeFieldContext(5), [-2, 0, 0, 1]), ext)
    C = HyperellipticCurve(f)
    roots = [a for a in elements(ext) if evaluate(f, a) == ext.zero]
    assert len(roots) == 3
    D = divisor(C, Polynomial(ext, [ext.neg(roots[0]), 1]), Polynomial.zero(ext))
    assert add(D, D).is_identity


# ---------------------------------------------------------------------------
# Genus 1: Cantor must reproduce the chord-and-tangent law
# ---------------------------------------------------------------------------


def chord_sum(C, P, Q):
    """Classical group law on y^2 = cubic; None encodes the point at infinity."""
    p = C.f.ctx.p
    f = C.f
    a2 = f.coeffs[2] if f.degree >= 2 else 0
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        df = Polynomial._raw(f.ctx, _deriv_raw(f.ctx, f.coeffs))
        lam = (evaluate(df, x1) * pow(2 * y1, p - 2, p)) % p
    else:
        lam = ((y2 - y1) * pow(x2 - x1, p - 2, p)) % p
    x3 = (lam * lam - a2 - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


@pytest.mark.parametrize("p,coeffs", [(13, [-2, 0, 0, 1]), (11, [1, 2, 0, 1]), (7, [3, 1, 1, 1])])
def test_cantor_matches_chord_law_exhaustively(p, coeffs):
    C = curve(p, coeffs)
    pts = affine_points(C)
    assert pts, "curve should have affine points"
    for P in pts:
        for Q in pts:
            got = add(point_divisor(C, *P), point_divisor(C, *Q))
            want = chord_sum(C, P, Q)
            if want is None:
                assert got.is_identity, (P, Q)
            else:
                assert got == point_divisor(C, *want), (P, Q)


def test_frozen_addition_example():
    C = curve(31, [-2, 0, 0, 1])
    D = add(point_divisor(C, 4, 0), point_divisor(C, 7, 0))
    assert D == point_divisor(C, 20, 0)


# ---------------------------------------------------------------------------
# Enumeration and the zeta-function oracle
# ---------------------------------------------------------------------------


def zeta_order(p, coeffs, genus):
    """#J(F_p) from curve-point counts over F_p, ..., F_{p^genus}."""
    f = Polynomial(PrimeFieldContext(p), coeffs)
    counts = []
    for k in range(1, genus + 1):
        ctx = ext_new(p, k, seed=0)  # k = 1 is F_p itself, relabelled
        fk = embed_poly(f, ctx)
        affine = 0
        for a in elements(ctx):
            val = evaluate(fk, a)
            if val == ctx.zero:
                affine += 1
            elif power(ctx, val, (ctx.order - 1) // 2) == ctx.one:
                affine += 2
        counts.append(affine + 1)  # one point at infinity for odd degree
    s = [p**k + 1 - counts[k - 1] for k in range(1, genus + 1)]
    if genus == 1:
        return 1 - s[0] + p
    if genus == 2:
        e1, e2 = s[0], (s[0] ** 2 - s[1]) // 2
        return 1 - e1 + e2 - p * e1 + p**2
    if genus == 3:
        e1 = s[0]
        e2 = (s[0] ** 2 - s[1]) // 2
        e3 = (s[0] ** 3 - 3 * s[0] * s[1] + 2 * s[2]) // 6
        return 1 - e1 + e2 - e3 + p * e2 - p**2 * e1 + p**3
    raise ValueError("genus out of range for this oracle")


@pytest.mark.parametrize(
    "p,coeffs,expected",
    [
        (5, [-2, 0, 0, 1], 6),
        (7, [1, 0, 0, 0, 0, 1], 50),
    ],
)
def test_enumeration_matches_frozen_and_zeta_counts(p, coeffs, expected):
    C = curve(p, coeffs)
    J = enumerate_jacobian(C)
    assert len(J) == expected
    assert len(J) == zeta_order(p, coeffs, C.genus)
    assert len(set(J)) == len(J)
    keys = [D.key() for D in J]
    assert keys == sorted(keys)
    assert identity(C) in J


@pytest.mark.parametrize("p,coeffs", [(5, [1, 1, 0, 0, 0, 1]), (3, [0, 1, 0, 0, 1, 1])])
def test_enumeration_agrees_with_zeta_for_genus_two(p, coeffs):
    C = curve(p, coeffs)
    J = enumerate_jacobian(C)
    assert len(J) == zeta_order(p, coeffs, 2)


def test_enumeration_agrees_with_zeta_for_genus_three():
    C = curve(3, [1, 2, 0, 0, 0, 0, 0, 1])
    assert len(enumerate_jacobian(C)) == zeta_order(3, [1, 2, 0, 0, 0, 0, 0, 1], 3)


def test_enumeration_cap():
    C = curve(13, [1, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="exceed cap"):
        enumerate_jacobian(C, cap=100)


# ---------------------------------------------------------------------------
# Group structure
# ---------------------------------------------------------------------------


GROUP_CASES = [
    (5, [-2, 0, 0, 1]),
    (7, [-2, 0, 0, 1]),
    (7, [1, 0, 0, 0, 0, 1]),
    (5, [1, 1, 0, 0, 0, 1]),
]


@pytest.mark.parametrize("p,coeffs", GROUP_CASES)
def test_group_axioms_on_the_full_jacobian(p, coeffs):
    C = curve(p, coeffs)
    J = enumerate_jacobian(C)
    E = identity(C)
    members = set(J)
    for D in J:
        assert add(D, E) == D
        assert add(D, neg(D)).is_identity
        assert D.u.degree <= C.genus
    rng = random.Random(0xACED)
    for _ in range(300):
        A, B, D = (rng.choice(J) for _ in range(3))
        AB = add(A, B)
        assert AB in members  # closure, with reduction bound enforced on entry
        assert AB == add(B, A)
        assert add(AB, D) == add(A, add(B, D))


@pytest.mark.parametrize("p,coeffs", GROUP_CASES)
def test_lagrange_annihilates_every_element(p, coeffs):
    C = curve(p, coeffs)
    J = enumerate_jacobian(C)
    N = len(J)
    for D in J:
        assert scalar_mul(N, D).is_identity


def test_scalar_mul_is_repeated_addition():
    C = curve(13, [-2, 0, 0, 1])
    D = point_divisor(C, *affine_points(C)[1])
    acc = identity(C)
    for n in range(8):
        assert scalar_mul(n, D) == acc
        acc = add(acc, D)
    with pytest.raises(ValueError):
        scalar_mul(-1, D)
