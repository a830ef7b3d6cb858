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
first call to the last: each pass substitutes rows and asks the kernel
for the eliminated ones alone, which are the reduced grevlex basis of
its hull and feed the next pass as they are.  The prime analysis works
in grevlex throughout, since no term order enters its invariants; the
caller's order, when it is another one, only re-bases the reported
hull or core, once, at the end.  Polynomials over Q are built once, for
the answer.

The primality samples run on packed integer terms.  Their draws come
from one process-wide stream per variable count, the draws of
``random.Random(1)``, which every call reads from the start.  A call
reads at most 64 draws per nonmember and two nonmembers per sample, so
no stream grows past 2 * 64 * ``_SAMPLES`` draws.  A draw's membership
test stops at the first irreducible leading term, and what it leaves, a
positive multiple of the draw modulo the core, is what the product test
multiplies.
"""

from __future__ import annotations

import random
import threading
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
    _reduce,
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
    """
    n = len(weights)
    subst = []
    for row in rows:
        terms = {}
        for e, c in row.items():
            d = sum(map(mul, e, weights))
            terms[e + ((d, 0) if d >= 0 else (0, -d))] = c
        subst.append(terms)
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

# n -> (the draws random.Random(1) has made in n variables, unpacked; the
# generator).  The draws never depend on the ideal, so every call shares
# them; the lock lets one thread at a time extend a stream.
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


def _random_nonmember(n: int, i: int, basis, budget):
    """(index after it, draw, representative) of the first draw from the
    ``i``-th on (:func:`_draw`) outside the proper ideal of a basis from
    :func:`_integer_basis`, packed at its packing.

    The representative is the draw reduced until its leading term is
    irreducible (``_reduce``'s ``lead_only``, which is the membership
    test): r = k*a modulo the ideal for an integer k > 0.  If all 64
    draws fall inside, as they may for (x1, ..., xn), the sample is the
    last one plus 1 and its own representative, the very dict."""
    pk, elements = basis
    pack = pk._pack
    for i in range(i, i + 64):
        terms = {pack(e): c for e, c in _draw(n, i)}
        if terms and (rep := _reduce(dict(terms), elements, pk, budget, lead_only=True)):
            return i + 1, terms, rep
    c = terms.pop(0, 0) + 1  # 0 is the packed constant exponent
    if c:
        terms[0] = c
    return i + 1, terms, terms


def _check_samples(rows, n: int, samples: int, budget) -> None:
    """Refuse a prime whose graded core, the proper ideal of the reduced
    grevlex ``rows``, contains the product of two sampled nonmembers a
    and b, for ``samples`` pairs drawn in turn.

    The test multiplies their representatives r_a = k_a*a and r_b = k_b*b
    modulo the core, with k_a, k_b > 0 (:func:`_random_nonmember`): then
    r_a*r_b = k_a*k_b*ab modulo the core, and k_a*k_b is a unit of Q, so
    r_a*r_b lies in the core exactly when ab does, and every decision is
    the raw product's.  A grevlex step never raises a total degree, so a
    representative has degree at most 2n, as its draw, and the product
    fits the packing of degree 4n.
    """
    basis = _integer_basis(rows, n, 4 * n)
    i = 0
    for _ in range(samples):
        i, _, ra = _random_nonmember(n, i, basis, budget)
        i, _, rb = _random_nonmember(n, i, basis, budget)
        if _in_ideal(_packed_product(ra, rb), basis, budget):
            raise NotPrimeError(
                "graded core contains a product of two nonmembers; "
                "the input cannot be prime"
            )


def analyze_prime(p: IdealPresentation, spec: GradedRingSpec, budget=None) -> PrimeAnalysis:
    """Graded core of a prime with dimension and rank diagnostics.

    Assumes ``p`` is prime; cheap sampled checks back that up, and any
    violated conclusion (a unit ideal, a product of nonmembers falling
    into the core, a dimension or rank bound failing) is reported as
    :class:`NotPrimeError` rather than returned as nonsense.  The core
    is tested on ``_SAMPLES`` products (:func:`_check_samples`).

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

    if rows_star:
        _check_samples(rows_star, n, _SAMPLES, budget)
    if graded:
        if tau != 0:
            raise RuntimeError("graded input with a dimension drop; this is a bug")
    else:
        if not 1 <= tau <= sigma:
            raise NotPrimeError(
                "dimension drop %d escapes the bound 1..%d expected for a "
                "nongraded prime; the input cannot be prime" % (tau, sigma)
            )
    if p.order.kind != "grevlex":
        rows_star = _reduced_rows(rows_star, p.order, budget)
    star = IdealPresentation(_monic(rows_star, n), p.order)
    return PrimeAnalysis(star, graded, dim_p, dim_star, tau, sigma)
