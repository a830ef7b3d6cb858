"""Shared truncated-maximality check for graded hulls.

For every multidegree realized by monomials up to a total degree cap,
the dimension of the graded piece of the input ideal must match the
dimension of the same piece of its hull.  Piece dimensions are kernel
ranks of the normal-form map restricted to the monomials of that
multidegree, with the rank computed by rational row reduction on the
test side.
"""

import itertools
from fractions import Fraction

from monograde.groebner import Polynomial, buchberger, grevlex, normal_form
from oracles import frac_rref


def multidegree(e, spec):
    """The degree in Z^r of the monomial with exponent ``e``."""
    return tuple(sum(x * d[i] for x, d in zip(e, spec.degrees)) for i in range(spec.rank))


def is_graded(f, spec):
    return len({multidegree(e, spec) for e in f.terms}) <= 1


def monomials_up_to(nvars, dmax):
    out = []
    for total in range(dmax + 1):
        for e in itertools.product(range(total + 1), repeat=nvars):
            if sum(e) == total:
                out.append(e)
    return out


def piece_dimension(gb, order, exponents, nvars):
    """Dimension of span(monomials) intersected with the ideal of gb."""
    if not exponents:
        return 0
    images = [
        normal_form(Polynomial.monomial(e, 1, nvars), gb, order, 10_000_000)
        for e in exponents
    ]
    support = sorted({m for f in images for m in f.terms})
    if not support:
        return len(exponents)
    mat = [[Fraction(f.terms.get(m, 0)) for m in support] for f in images]
    r, _, _ = frac_rref(mat)
    return len(exponents) - r


def assert_hull_is_maximal_truncated(ideal, hull, spec, dmax, budget=10_000_000):
    n = ideal.nvars if ideal.generators else spec.nvars
    order = grevlex(spec.nvars)
    gb_i = buchberger(ideal.generators, order, budget)
    gb_h = buchberger(hull.generators, order, budget) if hull.generators else ()
    buckets = {}
    for e in monomials_up_to(spec.nvars, dmax):
        buckets.setdefault(multidegree(e, spec), []).append(e)
    for degree, exponents in sorted(buckets.items()):
        di = piece_dimension(gb_i, order, exponents, spec.nvars)
        dh = piece_dimension(gb_h, order, exponents, spec.nvars)
        assert di == dh, (degree, di, dh)


def assert_hull_contract(ideal, hull, spec, dmax=8):
    """Containment, gradedness, idempotence, and truncated maximality."""
    from monograde.multigraded import graded_hull

    order = grevlex(spec.nvars)
    gb_i = buchberger(ideal.generators, order, 10_000_000)
    for g in hull.generators:
        assert is_graded(g, spec)
        assert normal_form(g, gb_i, order, 10_000_000).is_zero
    again = graded_hull(hull, spec, 10_000_000)
    assert again.generators == hull.generators
    assert_hull_is_maximal_truncated(ideal, hull, spec, dmax)
