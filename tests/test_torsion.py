"""Two-torsion structure, Frobenius action, and the blow-up chain.

The blow-up chain is written down from g, not computed; sympy replays the
chart substitutions it stands for by expand/subs on honest bivariate
polynomials, and the factored powers and cofactor term dictionaries must
agree round by round. The Frobenius matrix is checked against the
permutation action it encodes (M^k must match the matrix rebuilt from the
k-fold permutation).
"""

import math
import random

import pytest
import sympy

from splitlaw import (
    BadCharacteristic,
    BinaryMatrix,
    ExtensionTooLarge,
    HyperellipticCurve,
    MumfordDivisor,
    NotSquarefree,
    Polynomial,
    PrimeFieldContext,
    add,
    blowup_chain,
    cycle_lengths,
    frobenius_permutation,
    permutation_matrix,
    two_torsion_points,
)

from oracles import embed_poly, embed_root, enumerate_jacobian, identity, torsion_basis


def curve(p, coeffs):
    return HyperellipticCurve(Polynomial(PrimeFieldContext(p), coeffs))


# ---------------------------------------------------------------------------
# Rational 2-torsion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,count,rank,n",
    [(31, 4, 2, 3), (5, 2, 1, 2), (7, 1, 0, 1)],
)
def test_cubic_two_torsion_counts(p, count, rank, n):
    C = curve(p, [-2, 0, 0, 1])
    sub = two_torsion_points(C, seed=0)
    assert len(sub) == count == len(sub.elements)
    assert sub.rank == rank
    assert sub.n == n == len(sub.factorization.splitting_type().pairs)
    assert two_torsion_points(C, seed=0).rank == rank
    assert len(sub.elements) == 2 ** (n - 1)


def test_two_torsion_elements_have_v_zero_and_order_two():
    C = curve(31, [-2, 0, 0, 1])
    sub = two_torsion_points(C, seed=0)
    for D in sub.elements:
        assert D.v.is_zero
        assert add(D, D).is_identity
    ids = [D for D in sub.elements if D.is_identity]
    assert len(ids) == 1


@pytest.mark.parametrize(
    "p,coeffs",
    [
        (31, [-2, 0, 0, 1]),
        (5, [-2, 0, 0, 1]),
        (7, [1, 0, 0, 0, 0, 1]),
        (5, [1, 1, 0, 0, 0, 1]),
        (7, [0, 3, 6, 0, 4, 1]),  # x(x-1)(x-2)(x-3)(x-4) mod 7
    ],
)
def test_two_torsion_is_exactly_the_doubling_kernel(p, coeffs):
    C = curve(p, coeffs)
    J = enumerate_jacobian(C)
    kernel = {D for D in J if add(D, D).is_identity}
    assert set(two_torsion_points(C, seed=0).elements) == kernel


def test_two_torsion_subgroup_is_closed():
    C = curve(7, [0, 3, 6, 0, 4, 1])
    sub = two_torsion_points(C, seed=0)
    elements = set(sub.elements)
    assert len(elements) == 16 and sub.rank == 4
    for A in elements:
        for B in elements:
            assert add(A, B) in elements


def test_two_torsion_requires_squarefree_curve():
    ctx = PrimeFieldContext(7)
    C = HyperellipticCurve(Polynomial(ctx, [5, 11, 7, 1]))  # (x + 1)^2 (x + 5)
    with pytest.raises(NotSquarefree):
        two_torsion_points(C, seed=0)


# ---------------------------------------------------------------------------
# Torsion basis over the splitting field
# ---------------------------------------------------------------------------


def embedded_two_torsion(f, tb):
    """two_torsion_points of the F_p curve y^2 = f, embedded in the basis's field."""
    return {
        MumfordDivisor(tb.curve, embed_poly(D.u, tb.ctx), embed_poly(D.v, tb.ctx))
        for D in two_torsion_points(HyperellipticCurve(f), seed=0).elements
    }


def test_basis_of_split_cubic_spans_the_two_torsion():
    f = Polynomial(PrimeFieldContext(31), [-2, 0, 0, 1])
    tb = torsion_basis(f, 31, seed=1)
    assert tb.ctx.k == 1  # already split: F_31 as the degree-1 extension
    assert len(tb.roots) == 3 and len(tb.basis) == 2
    sums = set()
    for mask in range(4):
        acc = identity(tb.curve)
        for i in range(2):
            if mask >> i & 1:
                acc = add(acc, tb.basis[i])
        sums.add(acc)
    assert sums == embedded_two_torsion(f, tb)


def test_basis_of_split_quintic_spans_the_two_torsion():
    f = Polynomial(PrimeFieldContext(7), [0, 3, 6, 0, 4, 1])
    tb = torsion_basis(f, 7, seed=1)
    assert len(tb.roots) == 5 and len(tb.basis) == 4
    sums = set()
    for mask in range(16):
        acc = identity(tb.curve)
        for i in range(4):
            if mask >> i & 1:
                acc = add(acc, tb.basis[i])
        sums.add(acc)
    assert len(sums) == 16
    assert sums == embedded_two_torsion(f, tb)


def test_basis_construction_over_an_extension():
    f = Polynomial(PrimeFieldContext(5), [-2, 0, 0, 1])
    tb = torsion_basis(f, 5, seed=1)
    assert tb.ctx.order == 25
    assert len(tb.roots) == 3
    total = identity(tb.curve)
    for e in tb.roots:
        total = add(total, embed_root(e, tb.curve))
    assert total.is_identity


def test_basis_respects_extension_cap():
    f = Polynomial(PrimeFieldContext(5), [-2, 0, 0, 1])
    with pytest.raises(ExtensionTooLarge):
        torsion_basis(f, 5, seed=1, cap=1)


def test_basis_requires_squarefree_input():
    ctx = PrimeFieldContext(5)
    with pytest.raises(NotSquarefree):
        torsion_basis(Polynomial(ctx, [1, 0, 0, 0, 0, 1]), 5, seed=1)


# ---------------------------------------------------------------------------
# Binary matrices
# ---------------------------------------------------------------------------


def test_binary_matrix_basics():
    I = BinaryMatrix([1, 2, 4])
    assert I.is_identity and I.is_invertible and I.order() == 1
    M = BinaryMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # 3-cycle
    assert M.order() == 3
    assert (M * M * M).is_identity
    singular = BinaryMatrix([[1, 1], [1, 1]])
    assert not singular.is_invertible
    with pytest.raises(ValueError):
        singular.order()


def test_binary_matrix_columns_and_apply():
    M = BinaryMatrix([[1, 1], [0, 1]])
    assert BinaryMatrix.from_columns([0b01, 0b11], 2) == M
    assert M.to_lists() == [[1, 1], [0, 1]]


def test_permutation_order():
    assert cycle_lengths([0, 1, 2]) == [1, 1, 1]
    assert cycle_lengths([1, 0, 2]) == [2, 1]
    assert cycle_lengths([1, 2, 0]) == [3]
    assert cycle_lengths([1, 0, 3, 4, 2]) == [2, 3]
    assert math.lcm(*cycle_lengths([1, 0, 3, 4, 2])) == 6


# ---------------------------------------------------------------------------
# Frobenius action on the 2-torsion
# ---------------------------------------------------------------------------


def matrix_from_permutation(perm):
    """Column rule: root 2g+1 expands as the sum of the basis roots."""
    size = len(perm) - 1
    all_ones = (1 << size) - 1
    cols = [(1 << perm[i]) if perm[i] < size else all_ones for i in range(size)]
    return BinaryMatrix.from_columns(cols, size)


@pytest.mark.parametrize(
    "p,matrix,order",
    [
        # the split case is seed-independent; the others pin the seed=1
        # root ordering, while the order is an invariant of the conjugacy
        # class and would survive any reordering
        (31, [[1, 0], [0, 1]], 1),
        (5, [[0, 1], [1, 0]], 2),
        (7, [[1, 1], [1, 0]], 3),
    ],
)
def test_frozen_cubic_frobenius_matrices(p, matrix, order):
    f = Polynomial(PrimeFieldContext(p), [-2, 0, 0, 1])
    M = permutation_matrix(frobenius_permutation(f, p, seed=1))
    assert M.to_lists() == matrix
    assert M.order() == order


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 43])
def test_cubic_frobenius_consistency(p):
    f = Polynomial(PrimeFieldContext(p), [-2, 0, 0, 1])
    perm = frobenius_permutation(f, p, seed=3)
    assert sorted(perm) == [0, 1, 2]
    M = permutation_matrix(perm)
    assert M.is_invertible
    assert M.order() == math.lcm(*cycle_lengths(perm))
    # the matrix of frob^k must match the k-fold permutation
    perm_k = list(range(3))
    Mk = BinaryMatrix([1, 2])
    for _ in range(1, 7):
        perm_k = [perm[i] for i in perm_k]
        Mk = M * Mk
        assert Mk == matrix_from_permutation(perm_k)


@pytest.mark.parametrize("p", [3, 7, 11, 13, 23, 41])
def test_quintic_frobenius_consistency(p):
    f = Polynomial(PrimeFieldContext(p), [-1, -1, 0, 0, 0, 1])  # x^5 - x - 1
    perm = frobenius_permutation(f, p, seed=3)
    assert sorted(perm) == [0, 1, 2, 3, 4]
    M = permutation_matrix(perm)
    assert M.n == 4 and M.is_invertible
    assert M.order() == math.lcm(*cycle_lengths(perm))
    perm_k = list(range(5))
    Mk = BinaryMatrix([1, 2, 4, 8])
    for _ in range(1, 7):
        perm_k = [perm[i] for i in perm_k]
        Mk = M * Mk
        assert Mk == matrix_from_permutation(perm_k)


def cycle_type(perm):
    seen, out = set(), []
    for i in range(len(perm)):
        n = 0
        while i not in seen:
            seen.add(i)
            i = perm[i]
            n += 1
        if n:
            out.append(n)
    return sorted(out)


@pytest.mark.parametrize(
    "coeffs,bound",
    [([-1, -1, 0, 0, 0, 1], 200), ([3, 1, -4, 1, 5, -9, 1, 1], 60)],
    ids=["x^5-x-1", "septic"],
)
def test_frobenius_cycle_type_is_the_factorization_type(coeffs, bound):
    """Each Frobenius orbit of roots is the root set of one F_p factor."""
    from splitlaw import IntegerPolynomial, factorize, good_primes

    f = IntegerPolynomial(coeffs)
    for p in good_primes(f, bound):
        fbar = f.reduce_mod(p)
        perm = frobenius_permutation(fbar, p, seed=p)
        degrees = sorted(g.degree for g, _ in factorize(fbar, seed=0).factors)
        assert cycle_type(perm) == sorted(cycle_lengths(perm)) == degrees, p


@pytest.mark.parametrize(
    "coeffs,bound", [([-2, 0, 0, 1], 100), ([-1, -1, 0, 0, 0, 1], 40), ([3, 1, -4, 1, 5, -9, 1, 1], 20)]
)
def test_reported_matrix_is_frobenius_on_the_torsion_basis(coeffs, bound):
    """Column i of the reported matrix sums, by Cantor addition, to (x - r_i^p, 0)."""
    from splitlaw import IntegerPolynomial, good_primes

    f = IntegerPolynomial(coeffs)
    orders = set()
    for p in good_primes(f, bound):
        fbar = f.reduce_mod(p)
        M = permutation_matrix(frobenius_permutation(fbar, p, seed=p))
        tb = torsion_basis(fbar, p, seed=p)  # the same field and root order
        orders.add(tb.ctx.order // p)
        for i in range(M.n):
            acc = identity(tb.curve)
            for j, row in enumerate(M.rows):
                if row >> i & 1:
                    acc = add(acc, tb.basis[j])
            assert acc == embed_root(tb.ctx.frobenius(tb.roots[i]), tb.curve), (p, i)
    assert max(orders) > 1  # some splitting fields are proper extensions


def test_identity_matrix_iff_split():
    from splitlaw import good_primes, IntegerPolynomial, splits_completely

    f = IntegerPolynomial([-2, 0, 0, 1])
    for p in good_primes(f, 100):
        fbar = f.reduce_mod(p)
        M = permutation_matrix(frobenius_permutation(fbar, p, seed=2))
        assert M.is_identity == splits_completely(f, p)


# ---------------------------------------------------------------------------
# Blow-up chain
# ---------------------------------------------------------------------------


def sympy_chain(g, coeffs, p):
    """Replay the chart substitutions with sympy; returns [(power, terms)]."""
    a = [1] + [c % p for c in coeffs]
    V, Z, U = sympy.symbols("V Z U")
    expr = sum(a[j] * V ** (2 * g + 1 - j) * Z**j for j in range(2 * g + 2))
    expr -= Z ** (2 * g - 1)
    expr = sympy.expand(expr.subs(Z, U * V))
    out = []
    for step in range(1, g + 1):
        poly = sympy.Poly(expr, V, U, modulus=p)
        d = {m: int(c) % p for m, c in poly.terms()}
        d = {m: c for m, c in d.items() if c}
        axis = 0 if step == 1 else 1
        power = min(key[axis] for key in d)
        d = {
            ((i - power, j) if axis == 0 else (i, j - power)): c
            for (i, j), c in d.items()
        }
        out.append((power, d))
        if d.get((0, 3)) is not None and all(
            i == 2 or (i, j) == (0, 3) for (i, j) in d
        ):
            return out
        expr = sympy.expand(
            sum(c * V**i * U**j for (i, j), c in d.items()).subs(V, V * U)
        )
    raise AssertionError("oracle found no terminal chart")


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 7])
def test_chain_shape_and_sympy_agreement(g):
    rng = random.Random(0xB10C * g)
    for p in (3, 5, 11, 101, 2**31 - 1):
        inputs = [[rng.randrange(p) for _ in range(2 * g + 1)] for _ in range(5)]
        for coeffs in inputs + [[0] * (2 * g + 1)]:
            charts = blowup_chain(g, coeffs, p)
            assert len(charts) == g - 1
            assert [c.residual_exponent for c in charts] == list(
                range(2 * g - 1, 2, -2)
            )
            assert charts[0].monomial == ("x", 2 * g - 1)
            assert all(c.monomial == ("u", 2) for c in charts[1:])
            assert [c.terminal for c in charts] == [False] * (g - 2) + [True]
            oracle = sympy_chain(g, coeffs, p)
            assert len(oracle) == len(charts)
            for chart, (power, terms) in zip(charts, oracle):
                assert chart.monomial[1] == power
                assert {(i, j): c for i, j, c in chart.equation.terms} == terms


def test_chart_variable_names():
    charts = blowup_chain(5, list(range(1, 12)), 13)
    assert [c.variables for c in charts] == [
        ("x", "u"),
        ("m", "u"),
        ("t", "u"),
        ("t2", "u"),
    ]


def test_terminal_chart_is_a_cusp():
    charts = blowup_chain(3, [1, 2, 3, 4, 5, 6, 0], 11)
    last = charts[-1]
    assert last.terminal and last.residual_exponent == 3
    d = {(i, j): c for i, j, c in last.equation.terms}
    assert d[(2, 0)] == 1  # S(0) = 1
    assert d[(0, 3)] == 10  # the -u^3 branch
    assert all(i == 2 or (i, j) == (0, 3) for (i, j) in d)


def test_genus_one_needs_no_blow_up():
    assert blowup_chain(1, [4, 5, 6], 7) == []


def test_blowup_input_validation():
    with pytest.raises(BadCharacteristic):
        blowup_chain(2, [1, 2, 3, 4, 5], 2)
    with pytest.raises(ValueError):
        blowup_chain(0, [], 7)
    with pytest.raises(ValueError):
        blowup_chain(2, [1, 2, 3], 7)  # wrong coefficient count
