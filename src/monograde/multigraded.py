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

The weighted degrees of a pass's rows, read in the substitution, decide
two cases before any elimination.  If every row is homogeneous for the
weight, the ideal is graded and is its own hull, so the pass returns its
reduced grevlex basis.  If there is a single row f and it is not
homogeneous, the hull is zero: Q[x] graded by the weight is a domain,
and the top and bottom weighted components of f*q are the products of
those of f and q, so f*q is homogeneous only when f is.

The hull passes and the prime analysis hold the primitive integer rows
of ``groebner``'s kernel (dicts from exponent tuple to int) from the
first call to the last: each pass the degrees do not decide substitutes
rows and asks the kernel for the eliminated ones alone, which are the
reduced grevlex basis of its hull and feed the next pass as they are.
The prime analysis works in grevlex throughout, since no term order
enters its invariants; the caller's order, when it is another one, only
re-bases the reported hull or core, once, at the end.  Polynomials over
Q are built once, for the answer.  The kernel also runs the primality
samples (``groebner._splits_a_product``); this module only sets their
policy, ``_SAMPLES`` products on draws from one process-wide stream per
variable count.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from itertools import count
from operator import mul

from .exact_linalg import Vec, _as_budget, _as_vectors, _eliminate
from .groebner import (
    IdealPresentation,
    _grevlex_basis_dimension,
    _monic,
    _reduced_rows,
    _splits_a_product,
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
        object.__setattr__(self, "degrees", _as_vectors(self.degrees, "degrees"))
        if not self.degrees:
            raise ValueError("a grading needs at least one variable")
        if not self.degrees[0]:
            raise ValueError("degrees must live in Z^r with r >= 1")

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
        return len(_eliminate(self.degrees, self.rank)[1])


def _hull_pass(rows, weights: tuple[int, ...], budget):
    """The reduced grevlex basis of the largest subideal of the ideal of
    ``rows`` generated by elements homogeneous for one weight row, as
    primitive integer rows.

    Substituting x_j -> t^(w_j) x_j with invertible t spreads each
    polynomial over powers of t according to weighted degree; with the
    relation t*u = 1 adjoined, negative weighted degrees become powers
    of u.  The ideal is already saturated at t (t is a unit modulo the
    relation), so eliminating t and u directly cuts out the elements all
    of whose weight components lie in the ideal.  The t,u-free elements
    of a basis under the elimination order are a basis of that ideal
    under the order on the rest, grevlex, so the kernel hands back only
    those, already reduced.

    The weighted degrees of the rows decide two cases with no
    elimination.  When every row is homogeneous for the weight, the
    ideal is graded, so its hull is the ideal itself, and the pass
    returns its reduced grevlex basis.  When there is one row and it is
    not homogeneous, the hull is zero: Q[x] graded by the weight is a
    domain, and the top and bottom weighted components of f*q are the
    products of those of f and q, so a nonzero homogeneous multiple of f
    forces f to be homogeneous, and (f) holds no nonzero homogeneous
    element.
    """
    n = len(weights)
    subst = []
    graded = True
    for row in rows:
        terms, degrees = {}, set()
        for e, c in row.items():
            d = sum(map(mul, e, weights))
            degrees.add(d)
            terms[e + ((d, 0) if d >= 0 else (0, -d))] = c
        subst.append(terms)
        graded = graded and len(degrees) == 1
    if graded:
        return _reduced_rows(rows, grevlex(n), budget)
    if len(rows) == 1:
        return []
    subst.append({(0,) * n + (1, 1): 1, (0,) * (n + 2): -1})
    return _reduced_rows(subst, elimination_order((n, n + 1), n + 2), budget, eliminate=True)


def _hull_rows(rows, spec: GradedRingSpec, budget):
    """The reduced grevlex rows of the hull: one pass per grading
    coordinate, each fed the rows of the last, until a pass leaves none,
    since every later pass would return none too."""
    for axis in range(spec.rank):
        if not rows:
            break
        rows = _hull_pass(rows, spec.weights(axis), budget)
    return rows


def graded_hull(ideal: IdealPresentation, spec: GradedRingSpec,
                budget=None) -> IdealPresentation:
    """Largest subideal generated by Z^r-multigraded elements.

    One pass per grading coordinate; a polynomial lies in the hull
    exactly when all its multidegree components do, which each pass
    enforces for its own coordinate without breaking the previous ones.
    The result does not depend on the pass order.  The passes stop at a
    zero hull, and their grevlex basis is re-based under the ideal's
    order, once, only when that order is not grevlex.
    """
    if spec.nvars != ideal.nvars:
        raise ValueError("ideal does not match the grading")
    budget = _as_budget(budget)
    rows = _hull_rows([g.terms for g in ideal.generators], spec, budget)
    if ideal.order.kind != "grevlex":
        rows = _reduced_rows(rows, ideal.order, budget)
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


# the products of two nonmembers each prime analysis tests
_SAMPLES = 8

# n -> (the draws random.Random(1) has made in n variables; the
# generator).  The draws never depend on the ideal, so every call shares
# them and reads them from the start, and no stream grows past the
# 2 * 64 * _SAMPLES draws a call reads at most; the lock lets one thread
# at a time extend a stream.
_draw_streams: dict[int, tuple[list, random.Random]] = {}
_draw_lock = threading.Lock()


def _draw(n: int, i: int) -> list:
    """The i-th polynomial drawn in ``n`` variables, as (exponent,
    coefficient) pairs with nonzero coefficients: 1-4 terms of exponents
    0..2 and coefficients -2..2, a repeated exponent adding to its term."""
    stream = _draw_streams.get(n)
    if stream is None or i >= len(stream[0]):
        with _draw_lock:
            stream = _draw_streams.setdefault(n, ([], random.Random(1)))
            draws, randrange = stream[0], stream[1].randrange
            while len(draws) <= i:
                terms = {}
                for _ in range(randrange(1, 5)):
                    e = tuple([randrange(3) for _ in range(n)])
                    terms[e] = terms.get(e, 0) + randrange(-2, 3)
                draws.append([(e, c) for e, c in terms.items() if c])
    return stream[0][i]


def analyze_prime(p: IdealPresentation, spec: GradedRingSpec, budget=None) -> PrimeAnalysis:
    """Graded core of a prime with dimension and rank diagnostics.

    Assumes ``p`` is prime; cheap sampled checks back that up, and any
    violated conclusion (a unit ideal, a product of nonmembers falling
    into the core, a dimension or rank bound failing) is reported as
    :class:`NotPrimeError` rather than returned as nonsense.  The core
    is tested on ``_SAMPLES`` products of two nonmembers drawn by
    :func:`_draw` (``groebner._splits_a_product``).

    It runs in grevlex from the prime's first basis on, and re-bases
    only the reported ``p_star`` under ``p.order``, after the checks.
    """
    if spec.nvars != p.nvars:
        raise ValueError("ideal does not match the grading")
    budget = _as_budget(budget)
    n = p.nvars
    rows_p = _reduced_rows([g.terms for g in p.generators], grevlex(n), budget)
    if any(not any(next(iter(r))) for r in rows_p):
        raise NotPrimeError("the unit ideal is not prime")
    rows_star = _hull_rows(rows_p, spec, budget)
    graded = rows_star == rows_p
    dim_p = n - _grevlex_basis_dimension(rows_p, n, budget)
    dim_star = n - _grevlex_basis_dimension(rows_star, n, budget)
    tau = dim_p - dim_star
    sigma = spec.sigma()

    if rows_star and _splits_a_product(rows_star, n, (_draw(n, i) for i in count()),
                                       _SAMPLES, budget):
        raise NotPrimeError(
            "graded core contains a product of two nonmembers; "
            "the input cannot be prime"
        )
    if not graded and not 1 <= tau <= sigma:
        raise NotPrimeError(
            "dimension drop %d escapes the bound 1..%d expected for a "
            "nongraded prime; the input cannot be prime" % (tau, sigma)
        )
    if p.order.kind != "grevlex":
        rows_star = _reduced_rows(rows_star, p.order, budget)
    star = IdealPresentation(_monic(rows_star, n), p.order)
    return PrimeAnalysis(star, graded, dim_p, dim_star, tau, sigma)
