"""Graded hulls and prime analysis under torus gradings."""

import random
from fractions import Fraction

import pytest

from monograde import groebner, multigraded
from monograde.groebner import (
    IdealPresentation,
    Polynomial,
    buchberger,
    default_variables,
    format_polynomial,
    grevlex,
    lex,
    normal_form,
    parse_polynomial,
)
from monograde.multigraded import (
    GradedRingSpec,
    NotPrimeError,
    analyze_prime,
    delta_component,
    graded_hull,
    graded_hull_z,
    homogeneous_components,
    is_graded,
)
from hullcheck import assert_hull_contract

V1 = default_variables(1)
V2 = default_variables(2)
STD2 = GradedRingSpec(((1, 0), (0, 1)))
TOT2 = GradedRingSpec(((1,), (1,)))


def poly(text, variables=V2):
    return parse_polynomial(text, variables)


def fmt(p, variables=V2):
    return format_polynomial(p, variables)


# -- grading bookkeeping -------------------------------------------------


def test_spec_basics():
    assert STD2.nvars == 2 and STD2.rank == 2 and STD2.sigma() == 2
    assert STD2.multidegree((2, 1)) == (2, 1)
    assert TOT2.multidegree((2, 1)) == (3,)
    assert GradedRingSpec(((1, 1), (2, 2))).sigma() == 1


def test_homogeneous_components_and_delta():
    f = poly("x1^2 + x1*x2")
    comps = homogeneous_components(f, STD2)
    assert {d: fmt(p) for d, p in comps.items()} == {(1, 1): "x1*x2", (2, 0): "x1^2"}
    assert fmt(delta_component(f, STD2, 0, 2)) == "x1^2"
    assert delta_component(f, STD2, 0, 5).is_zero
    assert sum(comps.values(), Polynomial.zero(2)) == f


def test_is_graded():
    assert is_graded(poly("x1*x2"), STD2)
    assert not is_graded(poly("x1 + x2^2"), STD2)
    assert is_graded(poly("x1^2 + x1*x2"), TOT2)
    assert is_graded(Polynomial.zero(2), STD2)


# -- graded hull -----------------------------------------------------------


def test_hull_of_line_plus_square():
    ideal = IdealPresentation((poly("x1+x2"), poly("x2^2")), grevlex(2))
    hull = graded_hull(ideal, STD2)
    assert [fmt(g) for g in hull.generators] == ["x2^2", "x1*x2", "x1^2"]
    assert_hull_contract(ideal, hull, STD2)


def test_hull_of_a_line_is_zero():
    ideal = IdealPresentation((poly("x1+x2"),), grevlex(2))
    hull = graded_hull(ideal, STD2)
    assert hull.generators == ()
    assert_hull_contract(ideal, hull, STD2)


def test_hull_of_graded_ideal_is_itself():
    ideal = IdealPresentation((poly("x1^2"), poly("x1*x2")), grevlex(2))
    hull = graded_hull(ideal, STD2)
    assert set(fmt(g) for g in hull.generators) == {"x1^2", "x1*x2"}
    assert_hull_contract(ideal, hull, STD2)


def test_hull_single_weight_grading():
    ideal = IdealPresentation((poly("x1 + x2^2"),), grevlex(2))
    hull = graded_hull(ideal, TOT2)
    assert hull.generators == ()
    spec1 = GradedRingSpec(((1,),))
    z = graded_hull_z(IdealPresentation((poly("x1+1", V1),), grevlex(1)), (1,))
    assert z.generators == ()


def test_hull_axis_order_does_not_matter():
    # the hull runs one pass per degree coordinate, so reversing the
    # coordinates reverses the passes
    ideal = IdealPresentation((poly("x1 + x2"), poly("x2^3 - x1")), grevlex(2))
    a = graded_hull(ideal, STD2)
    b = graded_hull(ideal, GradedRingSpec(tuple(d[::-1] for d in STD2.degrees)))
    assert a.generators == b.generators


def test_hull_respects_budget():
    from monograde.groebner import BudgetExceededError

    ideal = IdealPresentation((poly("x1+x2"), poly("x2^2")), grevlex(2))
    with pytest.raises(BudgetExceededError):
        graded_hull(ideal, STD2, budget=1)


# -- prime analysis ----------------------------------------------------------


def test_point_off_axis():
    p = IdealPresentation((poly("x1+1"), poly("x2")), grevlex(2))
    a = analyze_prime(p, STD2)
    assert not a.graded
    assert (a.dim_p, a.dim_p_star, a.tau, a.sigma) == (2, 1, 1, 2)
    assert [fmt(g) for g in a.p_star.generators] == ["x2"]
    for g in a.p_star.generators:
        assert is_graded(g, STD2)


def test_point_on_line():
    spec = GradedRingSpec(((1,),))
    p = IdealPresentation((poly("x1-1", V1),), grevlex(1))
    a = analyze_prime(p, spec)
    assert not a.graded
    assert (a.dim_p, a.dim_p_star, a.tau, a.sigma) == (1, 0, 1, 1)
    assert a.p_star.generators == ()


def test_graded_prime_has_no_drop():
    a = analyze_prime(IdealPresentation((poly("x2"),), grevlex(2)), STD2)
    assert a.graded and a.tau == 0
    assert a.dim_p == a.dim_p_star == 1


def test_prime_analysis_catches_obvious_nonprimes():
    with pytest.raises(NotPrimeError, match="unit ideal"):
        analyze_prime(
            IdealPresentation((poly("x1"), poly("x1-1")), grevlex(2)), STD2
        )
    with pytest.raises(NotPrimeError, match="product of two nonmembers"):
        analyze_prime(
            IdealPresentation((poly("x1^2"),), grevlex(2)), STD2, samples=32
        )


def test_tau_bounds_hold_on_point_kernels():
    # kernels of evaluation at points with nonzero coordinates
    rng = random.Random(3)
    for _ in range(5):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        p = IdealPresentation((poly(f"x1 - {a}"), poly(f"x2 - {b}")), grevlex(2))
        out = analyze_prime(p, STD2)
        assert not out.graded
        assert 1 <= out.tau <= out.sigma
        assert out.dim_p - out.dim_p_star == out.tau
        for g in out.p_star.generators:
            assert is_graded(g, STD2)


def test_prime_analysis_computes_each_basis_once(monkeypatch):
    # one basis of the prime, two per hull pass, and under grevlex no
    # more: the prime's basis and the core are already reduced grevlex
    # bases, which serve the dimensions and the primality samples alike;
    # under lex each of the two is recomputed once under grevlex
    calls = []
    real = groebner.buchberger

    def counted(gens, order, budget=None):
        calls.append(order)
        return real(gens, order, budget)

    monkeypatch.setattr(groebner, "buchberger", counted)
    monkeypatch.setattr(multigraded, "buchberger", counted)
    V3 = default_variables(3)
    gens = ("x1 - 2", "x2 + 1", "x3 - 3")
    for spec in (GradedRingSpec(((1,), (1,), (1,))), GradedRingSpec(((1, 0), (0, 1), (1, 1))),
                 GradedRingSpec(((1, 0, 0), (0, 1, 0), (0, 0, 1)))):
        r = spec.rank
        for order, extra in ((grevlex(3), 0), (lex(3), 2)):
            calls.clear()
            p = IdealPresentation(tuple(parse_polynomial(t, V3) for t in gens), order)
            out = analyze_prime(p, spec)
            assert not out.graded and 1 <= out.tau <= out.sigma
            assert len(calls) == 1 + 2 * r + extra
