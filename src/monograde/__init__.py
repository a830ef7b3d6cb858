"""monograde: exact lattice geometry for normal affine monoid rings and
multigraded polynomial ideals.

The package computes, over arbitrary-precision integers and rationals:

* fraction-free ranks, unimodular inverses and rational solves, Hermite
  normal forms for lattice bases, integer kernels and integer solves,
  and Smith forms for elementary divisors (``exact_linalg``);
* polyhedral cone duality by the double description method (``cone``);
* affine monoid normalization, Hilbert bases, normality witnesses and
  unit groups (``monoid``);
* divisorial ideals, their minimal generators, the interior-point
  canonical module, divisor class groups and the Gorenstein decision
  (``divisorial``);
* reduced Groebner bases and normal forms over Q, computed
  fraction-free inside Buchberger's algorithm (``groebner``);
* multigraded hulls of ideals and graded-core diagnostics of primes
  (``multigraded``);
* a deterministic JSON command line front end (``cli``).
"""

__version__ = "0.1.0"

from .cone import Cone, facets_of_rays, membership, rays_of_facets
from .divisorial import (
    CanonicalModule,
    DivisorClassGroup,
    DivisorialIdeal,
    canonical_module,
    class_group,
    divisorial_ideal,
    is_gorenstein,
    members,
    minimal_generators,
    same_class,
)
from .exact_linalg import (
    BudgetExceededError,
    EnumerationLimitError,
    elementary_divisors,
    hnf,
    kernel_basis,
    primitive,
    rank,
    unimodular_inverse,
)
from .groebner import (
    IdealPresentation,
    Polynomial,
    TermOrder,
    buchberger,
    default_variables,
    elimination_order,
    format_polynomial,
    grevlex,
    lex,
    normal_form,
    parse_polynomial,
)
from .monoid import (
    AffineMonoid,
    NonNormalError,
    hilbert_basis,
    monoid_from_cone_rays,
    normalize_presentation,
)
from .multigraded import (
    GradedRingSpec,
    NotPrimeError,
    PrimeAnalysis,
    analyze_prime,
    graded_hull,
)

__all__ = [name for name in dir() if not name.startswith("_")]
