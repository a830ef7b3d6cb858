"""Multigraded structure on polynomial rings over Q.

A grading assigns each variable a degree in Z^r.  The module computes
the graded hull of an ideal (the largest subideal generated by
multigraded elements), and, for a prime
ideal, the graded core diagnostics: the hull is again prime, localizing
at it can only lower dimension, and the drop is bounded by the rank of
the degree subgroup.

The one-coordinate hull works by a torus substitution: send x_j to
t^(w_j) x_j with an auxiliary t that is invertible (an extra u with
t*u = 1), then eliminate t and u.  A polynomial survives exactly when
each of its graded components does, so iterating over the r coordinates
yields the full multigraded hull.

The hull passes and the prime analysis hold the primitive integer rows
of ``groebner``'s kernel (dicts from exponent tuple to int) from the
first call to the last: each pass substitutes, eliminates, filters and
re-bases rows, the rows of one pass feed the next, and the primality
samples are drawn, multiplied and reduced as packed integer terms.
Polynomials over Q are built once, for the answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from .exact_linalg import Vec, as_tuple, rank
from .groebner import (
    IdealPresentation,
    _as_budget,
    _grevlex_basis_dimension,
    _in_ideal,
    _integer_basis,
    _monic,
    _packed_product,
    _reduced_rows,
    elimination_order,
    grevlex,
)


class NotPrimeError(ValueError):
    """The input ideal failed a primality requirement."""


@dataclass(frozen=True)
class GradedRingSpec:
    """A Z^r grading of Q[x_1..x_n]: one degree vector per variable."""

    degrees: tuple[Vec, ...]

    def __post_init__(self):
        degs = tuple(as_tuple(d) for d in self.degrees)
        object.__setattr__(self, "degrees", degs)
        if not degs:
            raise ValueError("a grading needs at least one variable")
        r = len(degs[0])
        if r < 1:
            raise ValueError("degrees must live in Z^r with r >= 1")
        if any(len(d) != r for d in degs):
            raise ValueError("degrees have inconsistent lengths")

    @property
    def nvars(self) -> int:
        return len(self.degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees[0])

    def weights(self, axis: int) -> tuple[int, ...]:
        return tuple(d[axis] for d in self.degrees)

    def sigma(self) -> int:
        """Rank of the subgroup of Z^r generated by the variable degrees."""
        return rank(self.degrees)


def _hull_pass(rows, weights: tuple[int, ...], order, budget):
    """The reduced basis, under ``order``, of the largest subideal of the
    ideal of ``rows`` generated by elements homogeneous for one weight
    row, as primitive integer rows.

    Substituting x_j -> t^(w_j) x_j with invertible t spreads each
    polynomial over powers of t according to weighted degree; with the
    relation t*u = 1 adjoined, negative weighted degrees become powers
    of u.  The ideal is already saturated at t (t is a unit modulo the
    relation), so eliminating t and u directly cuts out the elements all
    of whose weight components lie in the ideal.
    """
    n = order.nvars
    subst = []
    for row in rows:
        terms = {}
        for e, c in row.items():
            d = sum(map(mul, e, weights))
            terms[e + ((d, 0) if d >= 0 else (0, -d))] = c
        subst.append(terms)
    subst.append({(0,) * n + (1, 1): 1, (0,) * (n + 2): -1})
    gb = _reduced_rows(subst, elimination_order((n, n + 1), n + 2), budget)
    # under the elimination order a t,u-free leading term makes a t,u-free row
    kept = [{e[:n]: c for e, c in row.items()} for row in gb if not any(next(iter(row))[n:])]
    return _reduced_rows(kept, order, budget)


def _hull_rows(rows, spec: GradedRingSpec, order, budget):
    """The rows of the hull: one pass per grading coordinate."""
    for axis in range(spec.rank):
        rows = _hull_pass(rows, spec.weights(axis), order, budget)
    return rows


def graded_hull(ideal: IdealPresentation, spec: GradedRingSpec,
                budget=None) -> IdealPresentation:
    """Largest subideal generated by Z^r-multigraded elements.

    One pass per grading coordinate; a polynomial lies in the hull
    exactly when all its multidegree components do, which each pass
    enforces for its own coordinate without breaking the previous ones.
    The result does not depend on the pass order.
    """
    if spec.nvars != ideal.nvars:
        raise ValueError("ideal does not match the grading")
    budget = _as_budget(budget)
    rows = _hull_rows([g.terms for g in ideal.generators], spec, ideal.order, budget)
    return IdealPresentation(_monic(rows, ideal.nvars), ideal.order)


@dataclass(frozen=True)
class PrimeAnalysis:
    """Grading diagnostics of a prime ideal.

    ``dim_p`` and ``dim_p_star`` are the heights (local dimensions) of
    the prime and of its graded core; ``tau`` is their difference and
    ``sigma`` the rank of the degree subgroup, with 1 <= tau <= sigma
    whenever the prime is not graded, and tau = 0 when it is.
    """

    p_star: IdealPresentation
    graded: bool
    dim_p: int
    dim_p_star: int
    tau: int
    sigma: int


def _random_nonmember(rng, n: int, basis, budget) -> dict[int, int]:
    """A random polynomial of degree at most 2 in each variable outside
    the proper ideal of a basis from :func:`_integer_basis`, as integer
    terms packed at its packing; if all draws fall inside, as they may
    for (x1, ..., xn), the last one plus 1."""
    randrange, pack = rng.randrange, basis[0]._pack
    for _ in range(64):
        terms = {}
        for _ in range(randrange(1, 5)):
            e = pack([randrange(3) for _ in range(n)])
            terms[e] = terms.get(e, 0) + randrange(-2, 3)
        terms = {e: c for e, c in terms.items() if c}
        if terms and not _in_ideal(terms, basis, budget):
            return terms
    c = terms.pop(0, 0) + 1  # 0 is the packed constant exponent
    if c:
        terms[0] = c
    return terms


def analyze_prime(p: IdealPresentation, spec: GradedRingSpec, budget=None,
                  samples: int = 8) -> PrimeAnalysis:
    """Graded core of a prime with dimension and rank diagnostics.

    Assumes ``p`` is prime; cheap sampled checks back that up, and any
    violated conclusion (a unit ideal, a product of nonmembers falling
    into the core, a dimension or rank bound failing) is reported as
    :class:`NotPrimeError` rather than returned as nonsense.
    """
    if spec.nvars != p.nvars:
        raise ValueError("ideal does not match the grading")
    budget = _as_budget(budget)
    n = p.nvars
    rows_p = _reduced_rows([g.terms for g in p.generators], p.order, budget)
    if any(not any(next(iter(r))) for r in rows_p):
        raise NotPrimeError("the unit ideal is not prime")
    rows_star = _hull_rows(rows_p, spec, p.order, budget)
    graded = rows_star == rows_p
    # both bases are reduced in p.order, so under grevlex they serve as is
    deg_order = grevlex(n)
    if p.order == deg_order:
        rows_p_deg, rows_star_deg = rows_p, rows_star
    else:
        rows_p_deg = _reduced_rows(rows_p, deg_order, budget)
        rows_star_deg = _reduced_rows(rows_star, deg_order, budget)
    dim_p = n - _grevlex_basis_dimension(rows_p_deg, n, budget)
    dim_star = n - _grevlex_basis_dimension(rows_star_deg, n, budget)
    tau = dim_p - dim_star
    sigma = spec.sigma()

    rng = random.Random(1)  # fixed, so reports repeat run to run
    if rows_star:
        # packed wide enough for a product of two samples, of degree 4n
        basis = _integer_basis(rows_star_deg, deg_order, 4 * n)
        for _ in range(samples):
            a = _random_nonmember(rng, n, basis, budget)
            b = _random_nonmember(rng, n, basis, budget)
            if _in_ideal(_packed_product(a, b), basis, budget):
                raise NotPrimeError(
                    "graded core contains a product of two nonmembers; "
                    "the input cannot be prime"
                )
    if graded:
        if tau != 0:
            raise RuntimeError("graded input with a dimension drop; this is a bug")
    else:
        if not 1 <= tau <= sigma:
            raise NotPrimeError(
                "dimension drop %d escapes the bound 1..%d expected for a "
                "nongraded prime; the input cannot be prime" % (tau, sigma)
            )
    star = IdealPresentation(_monic(rows_star, n), p.order)
    return PrimeAnalysis(star, graded, dim_p, dim_star, tau, sigma)
