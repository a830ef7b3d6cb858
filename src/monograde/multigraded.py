"""Multigraded structure on polynomial rings over Q.

A grading assigns each variable a degree in Z^r.  The module computes
coordinate homogeneous components, the graded hull of an ideal (the
largest subideal generated by multigraded elements), and, for a prime
ideal, the graded core diagnostics: the hull is again prime, localizing
at it can only lower dimension, and the drop is bounded by the rank of
the degree subgroup.

The one-coordinate hull works by a torus substitution: send x_j to
t^(w_j) x_j with an auxiliary t that is invertible (an extra u with
t*u = 1), then eliminate t and u.  A polynomial survives exactly when
each of its graded components does, so iterating over the r coordinates
yields the full multigraded hull.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exact_linalg import Vec, as_tuple, rank
from .groebner import (
    BudgetExceededError,
    IdealPresentation,
    Polynomial,
    _as_budget,
    _grevlex_basis_dimension,
    _in_ideal,
    _integer_basis,
    buchberger,
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

    def multidegree(self, exponent) -> Vec:
        out = [0] * self.rank
        for x, d in zip(exponent, self.degrees):
            for i in range(self.rank):
                out[i] += x * d[i]
        return tuple(out)

    def sigma(self) -> int:
        """Rank of the subgroup of Z^r generated by the variable degrees."""
        return rank(self.degrees)


def homogeneous_components(f: Polynomial, spec: GradedRingSpec) -> dict[Vec, Polynomial]:
    """Split into multidegree components; keys are the occurring degrees."""
    if f.nvars != spec.nvars:
        raise ValueError("polynomial does not match the grading")
    buckets: dict[Vec, dict] = {}
    for e, c in f.terms.items():
        buckets.setdefault(spec.multidegree(e), {})[e] = c
    return {g: Polynomial(f.nvars, t) for g, t in sorted(buckets.items())}


def delta_component(f: Polynomial, spec: GradedRingSpec, axis: int, value: int) -> Polynomial:
    """Terms whose multidegree has the given value in one coordinate."""
    if not 0 <= axis < spec.rank:
        raise ValueError("grading coordinate out of range")
    terms = {e: c for e, c in f.terms.items() if spec.multidegree(e)[axis] == value}
    return Polynomial(f.nvars, terms)


def is_graded(f: Polynomial, spec: GradedRingSpec) -> bool:
    return len(homogeneous_components(f, spec)) <= 1


def graded_hull_z(ideal: IdealPresentation, weights, budget=None) -> IdealPresentation:
    """Largest subideal generated by elements homogeneous for one weight row.

    Substituting x_j -> t^(w_j) x_j with invertible t spreads each
    polynomial over powers of t according to weighted degree; with the
    relation t*u = 1 adjoined, negative weighted degrees become powers
    of u.  The ideal is already saturated at t (t is a unit modulo the
    relation), so eliminating t and u directly cuts out the elements all
    of whose weight components lie in the ideal.
    """
    budget = _as_budget(budget)
    n = ideal.nvars
    wt = as_tuple(weights)
    if len(wt) != n:
        raise ValueError("need one weight per variable")
    ti, ui = n, n + 1
    subst = []
    for g in ideal.generators:
        terms = {}
        for e, c in g.terms.items():
            d = sum(x * w for x, w in zip(e, wt))
            terms[e + ((d, 0) if d >= 0 else (0, -d))] = c
        subst.append(Polynomial(n + 2, terms))
    rel_terms = {(0,) * n + (1, 1): 1, (0,) * (n + 2): -1}
    subst.append(Polynomial(n + 2, rel_terms))
    order = elimination_order((ti, ui), n + 2)
    gb = buchberger(subst, order, budget)
    kept = []
    for g in gb:
        if all(e[ti] == 0 and e[ui] == 0 for e in g.terms):
            kept.append(Polynomial(n, {e[:n]: c for e, c in g.terms.items()}))
    return IdealPresentation(buchberger(kept, ideal.order, budget), ideal.order)


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
    out = ideal
    for axis in range(spec.rank):
        out = graded_hull_z(out, spec.weights(axis), budget)
    return out


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


def _random_nonmember(rng, n: int, basis, budget) -> Polynomial:
    """A random polynomial of degree at most 2 in each variable outside
    the proper ideal whose Groebner basis has the packed integer elements
    ``basis``; if all draws fall inside, as they may for (x1, ..., xn),
    the last one plus 1."""
    for _ in range(64):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            terms[e] = terms.get(e, 0) + rng.randint(-2, 2)
        f = Polynomial(n, terms)
        if not f.is_zero and not _in_ideal(f, basis, budget):
            return f
    return f + Polynomial.constant(1, n)


def analyze_prime(p: IdealPresentation, spec: GradedRingSpec, budget=None,
                  samples: int = 8, seed: int = 1) -> PrimeAnalysis:
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
    gb_p = buchberger(p.generators, p.order, budget)
    if any(not any(g.leading(p.order)[0]) for g in gb_p):
        raise NotPrimeError("the unit ideal is not prime")
    star = graded_hull(IdealPresentation(gb_p, p.order), spec, budget)
    gb_star = star.generators
    graded = list(gb_star) == list(gb_p)
    # both bases are reduced in p.order, so under grevlex they serve as is
    deg_order = grevlex(n)
    if p.order == deg_order:
        deg_order, gb_p_deg, gb_star_deg = p.order, gb_p, gb_star
    else:
        gb_p_deg = buchberger(gb_p, deg_order, budget)
        gb_star_deg = buchberger(gb_star, deg_order, budget)
    dim_p = n - _grevlex_basis_dimension(gb_p_deg, deg_order, budget)
    dim_star = n - _grevlex_basis_dimension(gb_star_deg, deg_order, budget)
    tau = dim_p - dim_star
    sigma = spec.sigma()

    rng = random.Random(seed)
    if gb_star:
        # packed wide enough for a product of two samples, of degree 4n
        basis = _integer_basis(gb_star_deg, deg_order, 4 * n)
        for _ in range(samples):
            a = _random_nonmember(rng, n, basis, budget)
            b = _random_nonmember(rng, n, basis, budget)
            if _in_ideal(a * b, basis, budget):
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
    return PrimeAnalysis(star, graded, dim_p, dim_star, tau, sigma)
