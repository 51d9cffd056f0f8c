"""Rational 2-torsion of odd-degree Jacobians and the structures built on it.

For y^2 = f(x) with f monic squarefree of odd degree 2g+1, every 2-torsion
class has a unique reduced representative (u, 0) with u a monic divisor of
f and deg u <= g: the total degree 2g+1 is odd, so exactly one of u and f/u
stays within g. With n distinct irreducible factors h_1..h_n of f the
group is (Z/2Z)^(n-1), generated by the classes (h_i, 0) for i < n. Their
degrees sum to 2g+1, so at most one h_i has degree above g, and factorize's
order puts it last; each generator is therefore already reduced.
two_torsion_points walks the group from them with Cantor add.

Over the splitting field, the classes v_i = (x - r_i, 0) of the 2g+1 roots
span the full 2-torsion with the one relation v_{2g+1} = v_1 + ... + v_2g,
so v_1..v_2g is a basis; the Frobenius permutation of roots then turns into
an invertible 2g x 2g matrix over F_2. The matrix is derived from the
permutation alone; tests/oracles.py builds the basis and checks it. It is
fixed only up to the labelling of the roots, which follows the factors of
f mod p in factorize's order and, within each factor, the Frobenius orbit
from its least root; so permutation and matrix depend only on the factor
degrees (Dedekind: the cycle type), not on the seeded field modulus. The
curve's singularity at infinity resolves through g - 1 chart substitutions
ending in a cusp normal form; that chain is fixed by g, so it is written
down directly rather than computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ff
from .errors import BadCharacteristic, EvenDegree, NotSquarefree, UnsupportedDegree
from .jacobian import HyperellipticCurve, MumfordDivisor, add
from .poly import Factorization, Polynomial, factorize, roots_in


@dataclass(frozen=True)
class TwoTorsionSubgroup:
    """All rational 2-torsion classes of a curve's Jacobian."""

    elements: tuple[MumfordDivisor, ...]
    rank: int
    n: int  # distinct irreducible factors of f
    factorization: Factorization  # of f, the source of the elements


def two_torsion_points(C: HyperellipticCurve, seed) -> TwoTorsionSubgroup:
    """The full rational 2-torsion subgroup of the Jacobian of C.

    The generators are the classes (h_i, 0) of all irreducible factors of f
    but the last, in factorize's order; rank is their count, n - 1. The walk
    starts at the identity and visits the 2^(n-1) subset sums in Gray-code
    order, one Cantor add per step: step i adds generator j, the lowest set
    bit of i. Sums above degree g go through add's reduction, u -> f/u. The
    walk ends on the last generator, so one more add of it, a doubling,
    must give the identity. RuntimeError if a walked class is not reduced
    with v = 0, if the walk does not close, or if two walked classes share
    u. A repeated factor of f raises NotSquarefree: HyperellipticCurve
    leaves that check to here.
    """
    fact = factorize(C.f, seed)
    if any(m > 1 for _, m in fact.factors):
        raise NotSquarefree("curve polynomial has a repeated root")
    ctx = C.f.ctx
    zero = Polynomial.zero(ctx)
    gens = [MumfordDivisor(C, h, zero) for h, _ in fact.factors[:-1]]
    D = MumfordDivisor(C, Polynomial._raw(ctx, (1,)), zero)
    elements = [D]
    for i in range(1, 1 << len(gens)):
        D = add(D, gens[(i & -i).bit_length() - 1])
        if not D.v.is_zero or D.u.degree > C.genus:
            raise RuntimeError(f"walked class {D!r} is not reduced with v = 0")
        elements.append(D)
    if gens and not add(D, gens[-1]).is_identity:
        raise RuntimeError("the Gray-code walk of the 2-torsion does not close")
    if len({D.u for D in elements}) != len(elements):
        raise RuntimeError("the Gray-code walk of the 2-torsion repeats a class")
    elements.sort(key=MumfordDivisor.key)
    return TwoTorsionSubgroup(
        elements=tuple(elements), rank=len(gens), n=len(fact.factors), factorization=fact
    )


def _splitting_data(f: Polynomial, p: int, seed, cap: int):
    """Splitting field ext_new(F_p, k) of f mod p, k >= 1, and the roots of f in it.

    The roots, raw k-tuples, are listed factor by factor in factorize's
    canonical order; each factor's roots follow its Frobenius orbit r, r^p,
    ..., from its least root r. So Frobenius maps each root to the next one
    of its factor, and the permutation depends only on the factor degrees.
    A factor whose roots are not one orbit of its degree raises
    RuntimeError.
    """
    if not isinstance(f.ctx, ff.PrimeFieldContext) or f.ctx.p != p:
        raise ValueError(f"polynomial is not over F_{p}")
    fact = factorize(f, seed)
    if any(m > 1 for _, m in fact.factors):
        raise NotSquarefree(f"polynomial is not squarefree mod {p}")
    k = math.lcm(*(part.degree for part, _ in fact.factors))
    ctx = ff.ext_new(f.ctx, k, seed, cap=cap)
    roots = []
    for part, _ in fact.factors:
        found = roots_in(part, ctx, seed)  # ascending
        orbit = found[:1]
        while 0 < len(orbit) < part.degree:
            orbit.append(ctx.frobenius(orbit[-1]))
        if not orbit or sorted(orbit) != found or ctx.frobenius(orbit[-1]) != orbit[0]:
            raise RuntimeError(
                f"the roots of a degree-{part.degree} factor in F_{p}^{k} "
                f"are not one Frobenius orbit"
            )
        roots.extend(orbit)
    return ctx, tuple(roots)


class BinaryMatrix:
    """A square matrix over F_2, rows stored as bitmasks (bit j = column j)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        bitrows = []
        for row in rows:
            if isinstance(row, int):
                bitrows.append(row)
            else:
                bitrows.append(sum((1 << j) for j, e in enumerate(row) if e & 1))
        self.n = len(bitrows)
        self.rows = tuple(r & ((1 << self.n) - 1) for r in bitrows)

    @classmethod
    def from_columns(cls, cols: list[int], n: int) -> "BinaryMatrix":
        rows = [0] * n
        for j, col in enumerate(cols):
            for i in range(n):
                if col >> i & 1:
                    rows[i] |= 1 << j
        return cls(rows)

    def to_lists(self) -> list[list[int]]:
        return [[r >> j & 1 for j in range(self.n)] for r in self.rows]

    def __mul__(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if not isinstance(other, BinaryMatrix) or other.n != self.n:
            raise ValueError("size mismatch")
        rows = []
        for a in self.rows:
            acc = 0
            j = 0
            while a:
                if a & 1:
                    acc ^= other.rows[j]
                a >>= 1
                j += 1
            rows.append(acc)
        return BinaryMatrix(rows)

    @property
    def is_identity(self) -> bool:
        return self.rows == tuple(1 << i for i in range(self.n))

    @property
    def is_invertible(self) -> bool:
        rows = list(self.rows)
        rank = 0
        for col in range(self.n):
            pivot = next(
                (i for i in range(rank, self.n) if rows[i] >> col & 1), None
            )
            if pivot is None:
                return False
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(self.n):
                if i != rank and rows[i] >> col & 1:
                    rows[i] ^= rows[rank]
            rank += 1
        return True

    def order(self) -> int:
        """Multiplicative order, searched up to 10**6; requires invertibility."""
        if not self.is_invertible:
            raise ValueError("singular matrix has no multiplicative order")
        acc = self
        for k in range(1, 10**6 + 1):
            if acc.is_identity:
                return k
            acc = acc * self
        raise RuntimeError("order search exceeded its limit")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and other.n == self.n
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.to_lists()!r})"


def frobenius_permutation(
    f: Polynomial, p: int, seed, *, cap: int = ff.DEFAULT_EXT_CAP
) -> list[int]:
    """Image indices of the roots of f mod p under x -> x^p.

    Roots are labelled as _splitting_data lists them: factor by factor in
    factorize's order, each factor's roots along their Frobenius orbit. So
    each factor of degree d at index i is the cycle i -> i + 1 -> ... ->
    i + d - 1 -> i, read here from the images found in the field.
    """
    ctx, roots = _splitting_data(f, p, seed, cap)
    index = {e: i for i, e in enumerate(roots)}
    perm = []
    for e in roots:
        img = ctx.frobenius(e)
        if img not in index:
            raise RuntimeError("Frobenius image is not a listed root")
        perm.append(index[img])
    return perm


def permutation_matrix(perm: list[int]) -> BinaryMatrix:
    """A permutation of the 2g+1 roots acting on the basis v_1..v_2g.

    Column i is the image of v_i expanded in the basis, using the relation
    v_{2g+1} = v_1 + ... + v_2g when the permuted root falls off the basis.
    """
    m = len(perm)  # 2g + 1
    if m % 2 == 0:
        raise EvenDegree(f"{m} roots; the 2-torsion basis needs an odd count")
    if m < 3:
        raise UnsupportedDegree("the 2-torsion basis needs genus >= 1")
    size = m - 1  # 2g
    all_ones = (1 << size) - 1
    cols = []
    for i in range(size):
        j = perm[i]
        cols.append((1 << j) if j < size else all_ones)
    M = BinaryMatrix.from_columns(cols, size)
    if not M.is_invertible:
        raise RuntimeError("Frobenius matrix is singular")
    return M


def cycle_lengths(perm: list[int]) -> list[int]:
    """Lengths of the cycles of a permutation given as a list of image indices.

    Their lcm is the order of the permutation, and its sign is
    (-1)^(len(perm) - their count).
    """
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return lengths


# ---------------------------------------------------------------------------
# Blow-up of the singular point at infinity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BivariatePolynomial:
    """Exact bivariate polynomial over F_p; terms are (i, j, coeff) sorted."""

    variables: tuple[str, str]
    terms: tuple[tuple[int, int, int], ...]
    p: int

    @classmethod
    def from_dict(cls, variables, d: dict, p: int) -> "BivariatePolynomial":
        terms = tuple(
            sorted((i, j, c % p) for (i, j), c in d.items() if c % p != 0)
        )
        return cls(variables=tuple(variables), terms=terms, p=p)


@dataclass(frozen=True)
class BlowupChart:
    """One substitution round of the blow-up at the point at infinity."""

    step: int
    variables: tuple[str, str]  # chart coordinates after the substitution
    monomial: tuple[str, int]  # factored-out monomial (variable, power)
    equation: BivariatePolynomial  # cofactor after factoring
    residual_exponent: int  # e in the lone -u^e term
    terminal: bool  # cofactor has the cusp shape w^2*S(u) - u^3


_CHART_VARS = ("x", "m", "t")


def _chart_var(step: int) -> str:
    """First-coordinate name after the given substitution round."""
    if step <= len(_CHART_VARS):
        return _CHART_VARS[step - 1]
    return f"t{step - 2}"


def blowup_chain(g: int, coeffs, p: int) -> list["BlowupChart"]:
    """Resolve the singularity at infinity of y^2 = f(x) by chart substitutions.

    The x-z chart equation is sum(a_j x^(2g+1-j) z^j) - z^(2g-1), a_0 = 1.
    The chain is fixed by g; only S(u) = sum a_j u^j varies with the input:
    - z = u*x factors out x^(2g-1) and leaves S(u)*x^2 - u^(2g-1);
    - each later round w = w'*u factors out u^2 and lowers the lone
      exponent by 2;
    - so chart s (1 <= s <= g-1) is S(u)*w^2 - u^(2g+1-2s), terminal at the
      cusp normal form w^2*S(u) - u^3, with S(0) = 1.
    The charts are built from that shape directly; the tests replay the
    substitutions in sympy. Genus 1 needs no blow-up: the chain is empty.
    """
    if p == 2:
        raise BadCharacteristic("blow-up chain requires odd characteristic")
    if g < 1:
        raise ValueError("genus must be >= 1")
    ff.PrimeFieldContext(p)  # refuses p unless an odd prime below 2**31
    a = [1] + [int(c) % p for c in coeffs]
    if len(a) != 2 * g + 2:
        raise ValueError(f"expected {2 * g + 1} coefficients a_1..a_{2 * g + 1}")
    s_terms = {(2, j): aj for j, aj in enumerate(a)}  # S(u) * w^2
    charts = []
    for step in range(1, g):
        residual = 2 * g + 1 - 2 * step
        variables = (_chart_var(step), "u")
        terms = {**s_terms, (0, residual): p - 1}
        charts.append(
            BlowupChart(
                step=step,
                variables=variables,
                monomial=("x", 2 * g - 1) if step == 1 else ("u", 2),
                equation=BivariatePolynomial.from_dict(variables, terms, p),
                residual_exponent=residual,
                terminal=residual == 3,
            )
        )
    return charts
