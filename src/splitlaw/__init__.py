"""Empirical verification of a splitting law for odd-degree polynomials.

For monic irreducible f of odd degree 2g+1 over the integers and a good
odd prime p (not dividing disc f), f splits into distinct linear factors
mod p exactly when the rational 2-torsion of the Jacobian of y^2 = f(x)
over F_p is (Z/2Z)^2g. This package computes both sides of that
equivalence by independent routes and sweeps them against each other:

- ff: exact arithmetic in F_p and F_{p^k}, Frobenius included
- poly: univariate polynomials over those fields, full factorization over F_p
- jacobian: Mumford divisors and the Cantor group law
- torsion: 2-torsion subgroups, Frobenius matrices in GL_2g(F_2), and the
  blow-up chain at infinity
- reciprocity: good primes, the per-prime sweeps (the law, and Frobenius
  on J_f[2]), splitting sets, inclusion tests, and density statistics
- cli: the `splitlaw` command with JSON/CSV/text reports
"""

__version__ = "0.1.0"

from .errors import (
    BadCharacteristic,
    CurveMismatch,
    EmptyRange,
    EvenDegree,
    ExtensionTooLarge,
    NonInvertible,
    NotIrreducible,
    NotMonic,
    NotSquarefree,
    PolynomialSyntaxError,
    SplitlawError,
    UnsupportedDegree,
    ZeroDiscriminant,
    ZeroDivisor,
)
from .ff import (
    DEFAULT_EXT_CAP,
    ExtFieldContext,
    PrimeFieldContext,
    ext_new,
    is_prime,
)
from .poly import (
    Factorization,
    IntegerPolynomial,
    Polynomial,
    SplittingType,
    factorize,
    roots_in,
)
from .jacobian import (
    HyperellipticCurve,
    MumfordDivisor,
    add,
)
from .torsion import (
    BinaryMatrix,
    BivariatePolynomial,
    BlowupChart,
    TwoTorsionSubgroup,
    blowup_chain,
    cycle_lengths,
    frobenius_permutation,
    permutation_matrix,
    two_torsion_points,
)
from .reciprocity import (
    DEFAULT_SEED,
    DensityReport,
    FrobeniusRecord,
    InclusionReport,
    PrimeRecord,
    ReciprocityReport,
    density_report,
    discriminant,
    frobenius_sweep,
    good_primes,
    inclusion_check,
    resultant,
    sieve_primes,
    spl_set,
    splits_completely,
    verify_law,
)
