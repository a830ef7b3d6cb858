"""Graded hulls and prime analysis under torus gradings."""

import collections
import itertools
import json
import random
import sys
import threading
from fractions import Fraction

import pytest

from monograde import exact_linalg, groebner, multigraded
from monograde.groebner import (
    BudgetExceededError,
    IdealPresentation,
    Polynomial,
    buchberger,
    default_variables,
    format_polynomial,
    grevlex,
    lex,
    parse_polynomial,
)
from monograde.multigraded import (
    GradedRingSpec,
    NotPrimeError,
    PrimeAnalysis,
    analyze_prime,
    graded_hull,
)
from hullcheck import assert_hull_contract, is_graded
from corpora import hull_job_corpus, random_pointed_cones
from oracles import brute_irreducibles, dot, frac_rref, true_facets
import digests  # noqa: F401  (puts perfbench on the path)
import workloads
from references import (
    fresh_draws,
    full_hull_rows,
    poly_product,
    poly_sum,
    polynomial_analyze_prime,
    polynomial_graded_hull,
    raw_product_samples,
    substituted_rows,
    toric_ideal,
    two_order_analyze_prime,
    weighted_degrees,
)

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
    assert TOT2.weights(0) == (1, 1)
    assert GradedRingSpec(((1, 1), (2, 2))).sigma() == 1
    for degrees, message in (((), "a grading needs at least one variable"),
                             (((), ()), r"degrees must live in Z\^r with r >= 1"),
                             (((1,), (1, 0)), "degrees have inconsistent lengths")):
        with pytest.raises(ValueError, match="^%s$" % message):
            GradedRingSpec(degrees)


def test_mismatched_variable_counts_are_rejected():
    f = parse_polynomial("x1 + x3^5", default_variables(3))
    ideal = IdealPresentation((f,), grevlex(3))
    with pytest.raises(ValueError, match="does not match the grading"):
        graded_hull(ideal, STD2)
    with pytest.raises(ValueError, match="does not match the grading"):
        analyze_prime(ideal, STD2)


# -- graded hull -----------------------------------------------------------


def test_hull_of_line_plus_square():
    ideal = IdealPresentation((poly("x1+x2"), poly("x2^2")), grevlex(2))
    hull = graded_hull(ideal, STD2)
    assert [fmt(g) for g in hull.generators] == ["x2^2", "x1*x2", "x1^2"]
    assert_hull_contract(ideal, hull, STD2)
    # under lex the passes' grevlex basis is re-based once
    lex_hull = graded_hull(IdealPresentation(ideal.generators, lex(2)), STD2)
    assert lex_hull.order == lex(2) and lex_hull.generators == buchberger(hull.generators, lex(2))


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
    z = graded_hull(IdealPresentation((poly("x1+1", V1),), grevlex(1)), spec1)
    assert z.generators == ()


def test_hull_of_a_high_power_keeps_its_pairs_and_counts():
    """The graded-hull job of (x1^150, x2) under the total degree: the
    ideal is graded, so its one pass reduces the two monomials under
    grevlex and eliminates nothing, and the meter reads no S-pair.  The
    elimination the pass skips, run on the same substituted rows, is
    where the chain criterion prunes most of the pairs, and must prune
    exactly the ones it always did, so its rows and meter are pinned."""
    ideal = IdealPresentation((poly("x1^150"), poly("x2")), grevlex(2))
    budget = groebner._Budget(exact_linalg.DEFAULT_BUDGET)
    hull = graded_hull(ideal, TOT2, budget)
    assert [fmt(g) for g in hull.generators] == ["x2", "x1^150"]
    assert (budget.spairs, budget.zero_reductions) == (0, 0)
    assert budget.remaining == exact_linalg.DEFAULT_BUDGET  # no reduction step spent
    rows = substituted_rows([g.terms for g in ideal.generators], TOT2.weights(0))
    budget = groebner._Budget(exact_linalg.DEFAULT_BUDGET)
    kept = groebner._reduced_rows(rows, groebner.elimination_order((2, 3), 4), budget,
                                  eliminate=True)
    assert kept == [{(0, 1): 1}, {(150, 0): 1}]
    assert (budget.spairs, budget.zero_reductions) == (452, 301)
    assert budget.remaining == exact_linalg.DEFAULT_BUDGET


def test_hull_axis_order_does_not_matter():
    # the hull runs one pass per degree coordinate, so reversing the
    # coordinates reverses the passes
    ideal = IdealPresentation((poly("x1 + x2"), poly("x2^3 - x1")), grevlex(2))
    a = graded_hull(ideal, STD2)
    b = graded_hull(ideal, GradedRingSpec(tuple(d[::-1] for d in STD2.degrees)))
    assert a.generators == b.generators


def test_rank_two_hull_builds_one_polynomial_per_generator(monkeypatch):
    # the passes hand integer rows to each other; only the answer is
    # made of polynomials, each built once through the private builder
    ideal = IdealPresentation((poly("2*x1 + 3*x2"), poly("x2^2 - 1/2*x1*x2")), grevlex(2))
    built = {"init": 0, "clean": 0}
    real_init, real_clean = Polynomial.__init__, Polynomial._clean.__func__

    def init(self, nvars, terms=None):
        built["init"] += 1
        real_init(self, nvars, terms)

    def clean(cls, nvars, terms):
        built["clean"] += 1
        return real_clean(cls, nvars, terms)

    monkeypatch.setattr(Polynomial, "__init__", init)
    monkeypatch.setattr(Polynomial, "_clean", classmethod(clean))
    hull = graded_hull(ideal, STD2)
    assert len(hull.generators) == 3
    assert built == {"init": 0, "clean": len(hull.generators)}


def test_passes_stop_at_an_empty_hull(monkeypatch):
    # the graph x2 = -5*x1^2 - 4 is no union of x1-orbits, so its hull
    # is zero after the first pass; that pass gets one row, not
    # homogeneous for the weight (1, 0), so its weighted degrees decide
    # it with no elimination and a meter that reads nothing.  Times
    # (x1, x2), the graph leaves two rows, so the first pass eliminates,
    # and its empty hull ends the passes there.  The second pass, on no
    # rows, would spend nothing and return nothing, and is not run
    eliminations = []
    real = multigraded._reduced_rows

    def counted(rows, order, budget, eliminate=False):
        eliminations.append(eliminate)
        return real(rows, order, budget, eliminate)

    monkeypatch.setattr(multigraded, "_reduced_rows", counted)
    ideal = IdealPresentation((poly("x2 + 5*x1^2 + 4"),), grevlex(2))
    hull_budget = groebner._Budget(1000)
    assert graded_hull(ideal, STD2, hull_budget).generators == ()
    assert eliminations == []
    assert (hull_budget.remaining, hull_budget.spairs, hull_budget.zero_reductions) \
        == (1000, 0, 0)
    times = IdealPresentation((poly("x1*x2 + 5*x1^3 + 4*x1"), poly("x2^2 + 5*x1^2*x2 + 4*x2")),
                              grevlex(2))
    hull_budget = groebner._Budget(1000)
    assert graded_hull(times, STD2, hull_budget).generators == ()
    assert eliminations == [True]
    first = groebner._Budget(1000)
    assert multigraded._hull_pass([g.terms for g in times.generators], STD2.weights(0),
                                  first) == []
    second = groebner._Budget(1000)
    assert multigraded._hull_pass([], STD2.weights(1), second) == []
    meter = (hull_budget.remaining, hull_budget.spairs, hull_budget.zero_reductions)
    assert meter == (first.remaining, first.spairs, first.zero_reductions) != (1000, 0, 0)
    assert (second.remaining, second.spairs, second.zero_reductions) == (1000, 0, 0)
    eliminations.clear()
    out = analyze_prime(ideal, STD2)
    assert (out.graded, out.p_star.generators, out.tau) == (False, (), 1)
    assert eliminations == [False]


def test_hull_respects_budget():
    from monograde.groebner import BudgetExceededError

    ideal = IdealPresentation((poly("x1+x2"), poly("x2^2")), grevlex(2))
    with pytest.raises(BudgetExceededError):
        graded_hull(ideal, STD2, budget=1)


# -- the passes the weighted degrees decide -----------------------------------


def test_decided_passes_return_what_the_elimination_returns(monkeypatch):
    """A pass whose rows are all homogeneous for its weight returns their
    reduced grevlex basis, and a pass whose one row is not returns no
    rows; in both cases the elimination the pass skips, run on the same
    substituted rows, returns the same rows, term for term.  Checked on
    every decided pass of the hull job corpus (graded hulls and prime
    analyses, at a budget that cuts some short) and of the benchmark's
    ``graded-ideal`` jobs, seed 811.  Each rule fires at least 20 times,
    and the principal one at least 20 times on the benchmark's jobs,
    which are rarely graded."""
    decided = {"graded": 0, "principal": 0}
    real = multigraded._hull_pass

    def checked(rows, weights, budget):
        out = real(rows, weights, budget)
        spread = [len(weighted_degrees(r, weights)) for r in rows]
        rule = "graded" if set(spread) == {1} else "principal" if len(spread) == 1 else None
        if rule is not None:
            n = len(weights)
            want = groebner._reduced_rows(substituted_rows(rows, weights),
                                          groebner.elimination_order((n, n + 1), n + 2),
                                          groebner._Budget(20_000), eliminate=True)
            assert [list(r.items()) for r in out] == [list(r.items()) for r in want]
            decided[rule] += 1
        return out

    monkeypatch.setattr(multigraded, "_hull_pass", checked)
    for text in hull_job_corpus(97, 200):
        job = json.loads(text)
        n = job["vars"]
        spec = GradedRingSpec(tuple(tuple(d) for d in job["grading"]))
        run, field = (graded_hull, "ideal") if job["command"] == "graded-hull" \
            else (analyze_prime, "prime")
        gens = tuple(parse_polynomial(t, default_variables(n)) for t in job[field])
        try:
            run(IdealPresentation(gens, grevlex(n)), spec, 4000)
        except (BudgetExceededError, ValueError):
            pass
    corpus = dict(decided)
    for job in workloads.generate("graded-ideal", 811, 120):
        inp = job["input"]
        n = inp["vars"]
        spec = GradedRingSpec(tuple(tuple(d) for d in inp["grading"]))
        gens = tuple(parse_polynomial(t, default_variables(n)) for t in inp["polys"])
        run = graded_hull if inp["op"] == "hull" else analyze_prime
        run(IdealPresentation(gens, grevlex(n)), spec)
    assert min(decided.values()) >= 20 and decided["principal"] - corpus["principal"] >= 20, \
        (corpus, decided)


def test_rational_normal_curves_fit_a_small_budget(monkeypatch):
    """The rational normal curve of degree N, the toric ideal of the
    columns (1, 0), (1, 1), ..., (1, N), is graded by them, so its hull
    passes eliminate nothing and ``analyze_prime`` answers within 3000
    units for N = 6..12.  The passes that eliminate, those of
    ``references.full_hull_rows``, run out of those units at N = 8."""
    for N in range(6, 13):
        cols = tuple((1, i) for i in range(N + 1))
        p = IdealPresentation(toric_ideal(cols), grevlex(N + 1))
        assert len(p.generators) == N * (N - 1) // 2
        out = analyze_prime(p, GradedRingSpec(cols), 3000)
        assert out.graded and out.tau == 0
        assert out.p_star.generators == buchberger(p.generators, grevlex(N + 1))
    monkeypatch.setattr(multigraded, "_hull_rows", full_hull_rows)
    with pytest.raises(BudgetExceededError):
        analyze_prime(IdealPresentation(toric_ideal(cols[:9]), grevlex(9)),
                      GradedRingSpec(cols[:9]), 3000)


def test_decided_passes_reduce_no_pair_of_a_high_degree():
    """The graded hull of x1^1000 - x2 under the degrees (1, 2), the
    prime analysis of x1^1000 - x2 - 1 and the graded hull of (x1^600,
    x2) under the total degree reduce no S-pair: their passes are
    decided, one principal and not homogeneous, the last graded.  The
    eliminations they skip reduced 1,004, 1,002 and 1,802 S-pairs."""
    cases = ((graded_hull, ("x1^1000 - x2",), ((1,), (2,)), []),
             (analyze_prime, ("x1^1000 - x2 - 1",), TOT2.degrees, []),
             (graded_hull, ("x1^600", "x2"), TOT2.degrees, ["x2", "x1^600"]))
    for run, gens, degrees, want in cases:
        budget = groebner._Budget(exact_linalg.DEFAULT_BUDGET)
        out = run(IdealPresentation(tuple(map(poly, gens)), grevlex(2)),
                  GradedRingSpec(degrees), budget)
        hull = out if run is graded_hull else out.p_star
        assert [fmt(g) for g in hull.generators] == want
        assert (budget.spairs, budget.zero_reductions) == (0, 0)


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


def test_prime_analysis_catches_obvious_nonprimes(monkeypatch):
    with pytest.raises(NotPrimeError, match="unit ideal"):
        analyze_prime(
            IdealPresentation((poly("x1"), poly("x1-1")), grevlex(2)), STD2
        )
    monkeypatch.setattr(multigraded, "_SAMPLES", 32)
    with pytest.raises(NotPrimeError, match="product of two nonmembers"):
        analyze_prime(IdealPresentation((poly("x1^2"),), grevlex(2)), STD2)


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
    # one grevlex basis of the prime, one elimination per hull pass that
    # the weighted degrees do not decide, and under grevlex no more: the
    # passes hand back reduced grevlex bases, and the prime's basis and
    # the core serve the dimensions and the primality samples alike;
    # under lex only the reported core is re-based once, under lex, after
    # the checks.  Under the standard grading the third pass gets the one
    # row x3 - 3, not homogeneous for (0, 0, 1), so it eliminates nothing
    calls = []
    real = multigraded._reduced_rows

    def counted(rows, order, budget, eliminate=False):
        calls.append(order)
        return real(rows, order, budget, eliminate)

    monkeypatch.setattr(multigraded, "_reduced_rows", counted)
    V3 = default_variables(3)
    gens = ("x1 - 2", "x2 + 1", "x3 - 3")
    for spec, r in ((GradedRingSpec(((1,), (1,), (1,))), 1),
                    (GradedRingSpec(((1, 0), (0, 1), (1, 1))), 2),
                    (GradedRingSpec(((1, 0, 0), (0, 1, 0), (0, 0, 1))), 2)):
        for order, extra in ((grevlex(3), 0), (lex(3), 1)):
            calls.clear()
            p = IdealPresentation(tuple(parse_polynomial(t, V3) for t in gens), order)
            out = analyze_prime(p, spec)
            assert not out.graded and 1 <= out.tau <= out.sigma
            assert len(calls) == 1 + r + extra
            assert sum(o.kind == "elim" for o in calls) == r
            assert calls[0] == grevlex(3) and calls[1 + r:] == [order] * extra


# -- the row route against the polynomial route ------------------------------


def metered(call, limit):
    """(answer, or the error's type and message; then the budget's
    remaining, spairs and zero_reductions) of ``call(budget)``."""
    budget = groebner._Budget(limit)
    try:
        out = call(budget)
    except (BudgetExceededError, ValueError) as e:
        out = (type(e).__name__, str(e))
    return out, budget.remaining, budget.spairs, budget.zero_reductions


def record_draws(monkeypatch, draws, fallbacks):
    """Append each sample ``analyze_prime`` draws to ``draws``, unpacked
    to a polynomial (the draw, not its representative), and to
    ``fallbacks`` whether it is the last draw plus 1, which is the one
    sample that is its own representative.

    The samples are read off what ``_splits_a_product`` does in turn: it
    takes draws, reduces each nonzero one lead-only, and a reduction that
    leaves terms, the representative, makes its draw the sample; after
    64 draws that fall inside, the sample is the last one plus 1; after
    each two samples it reduces the product of their representatives,
    which is checked.  A run cut short by the budget ends wherever the
    budget ran out."""
    real, real_reduce = groebner._splits_a_product, groebner._reduce
    events = []  # each draw; (input, output) of each lead-only reduction

    def reduce(work, basis, pk, budget, lead_only=False):
        if not lead_only:
            return real_reduce(work, basis, pk, budget)
        def unpack(terms):
            return Polynomial(pk.nvars, {pk._unpack(e): c for e, c in terms.items()})

        given = unpack(work)
        out = real_reduce(work, basis, pk, budget, lead_only)
        events.append((given, unpack(out)))
        return out

    def splits(rows, n, stream, samples, budget):
        def take(draw):
            events.append(Polynomial(n, dict(draw)))
            return draw

        events.clear()
        try:
            return real(rows, n, map(take, stream), samples, budget)
        finally:
            read_samples(iter(events), n, draws, fallbacks)

    monkeypatch.setattr(groebner, "_reduce", reduce)
    monkeypatch.setattr(multigraded, "_splits_a_product", splits)


def read_samples(events, n, draws, fallbacks):
    """Append the samples of ``record_draws``'s events to ``draws`` and
    ``fallbacks`` until the events end, checking that each membership
    test reduces its draw and each product test the product of the two
    representatives."""
    try:
        while True:
            reps = []
            for _ in range(2):
                for _ in range(64):
                    f = next(events)
                    if not f.is_zero:
                        given, rep = next(events)
                        assert given == f
                        if not rep.is_zero:
                            draws.append(f)
                            fallbacks.append(False)
                            break
                else:
                    rep = poly_sum(f, Polynomial(n, {(0,) * n: 1}))
                    draws.append(rep)
                    fallbacks.append(True)
                reps.append(rep)
            given, _ = next(events)
            assert given == poly_product(*reps)
    except StopIteration:
        pass


def test_row_route_matches_the_polynomial_route(monkeypatch):
    """The hull passes on integer rows and the packed samples give the
    hull, the prime analysis (or the error), the meter and the sample
    draws of the polynomial route they replaced, on the hull job corpus
    under grevlex and, for the primes, lex, at budgets that cut some
    jobs short.  Lex re-bases the core under lex from integer rows whose
    leading coefficients are not 1."""
    draws, fallbacks = [], []
    record_draws(monkeypatch, draws, fallbacks)
    outcomes = []
    sampled = 0
    for text in hull_job_corpus(97, 200):
        job = json.loads(text)
        n = job["vars"]
        names = default_variables(n)
        spec = GradedRingSpec(tuple(tuple(d) for d in job["grading"]))
        if job["command"] == "graded-hull":
            routes = [(graded_hull, lambda i, s, b, d: polynomial_graded_hull(i, s, b),
                       job["ideal"], grevlex(n))]
        else:
            routes = [(analyze_prime, polynomial_analyze_prime, job["prime"], o)
                      for o in (grevlex(n), lex(n))]
        for fast, slow, gens, order in routes:
            ideal = IdealPresentation(tuple(parse_polynomial(t, names) for t in gens), order)
            # a lex job that spends 4000 steps takes seconds
            for limit in (40, 400, 4000) if order.kind == "grevlex" else (40, 400):
                want_draws = []
                want = metered(lambda b: slow(ideal, spec, b, want_draws), limit)
                draws.clear()
                got = metered(lambda b: fast(ideal, spec, b), limit)
                assert got == want, text
                assert draws == want_draws, text
                sampled += bool(draws)
                outcomes.append(type(got[0]))
    assert tuple in outcomes and IdealPresentation in outcomes and PrimeAnalysis in outcomes
    assert sampled > 20
    # a graded monomial prime: samples fall inside it until one has a
    # constant term, and when all 64 draws of a sample miss, it is the
    # last draw plus 1
    V4 = default_variables(4)
    spec = GradedRingSpec(((1, 0), (0, 1), (1, 1), (2, -1)))
    p = IdealPresentation(tuple(parse_polynomial(v, V4) for v in V4), grevlex(4))
    want_draws = []
    want = metered(lambda b: polynomial_analyze_prime(p, spec, b, want_draws, samples=16), 10**6)
    draws.clear()
    fallbacks.clear()
    monkeypatch.setattr(multigraded, "_SAMPLES", 16)
    got = metered(lambda b: analyze_prime(p, spec, b), 10**6)
    assert got == want and draws == want_draws and len(draws) == 32
    assert any(fallbacks) and not all(fallbacks)


def test_grevlex_inside_moves_lex_primes_only_out_of_budget_errors():
    """Working in grevlex from the prime's first basis on spends less
    than the bookkeeping of two orders that ``references`` keeps, and
    nothing else changes: on the corpus's primes under lex every answer
    and every other error is the old one.  The checks run before the
    core is re-based under lex, so a lex prime is refused exactly as its
    grevlex twin is, with the same meter."""
    moved = 0
    for text in hull_job_corpus(97, 200):
        job = json.loads(text)
        if job["command"] != "analyze-prime":
            continue
        n = job["vars"]
        spec = GradedRingSpec(tuple(tuple(d) for d in job["grading"]))
        gens = tuple(parse_polynomial(t, default_variables(n)) for t in job["prime"])
        ideal, twin = IdealPresentation(gens, lex(n)), IdealPresentation(gens, grevlex(n))
        for limit in (40, 400):
            old = metered(lambda b: two_order_analyze_prime(ideal, spec, b, []), limit)
            new = metered(lambda b: analyze_prime(ideal, spec, b), limit)
            if old[0] != new[0]:
                assert isinstance(old[0], tuple) and old[0][0] == "BudgetExceededError", text
                moved += 1
            grevlex_run = metered(lambda b: analyze_prime(twin, spec, b), limit)
            if isinstance(grevlex_run[0], tuple):
                assert new == grevlex_run, text
    assert moved


def test_lex_prime_is_refused_within_its_budget():
    # fed its lex basis, as in two_order_analyze_prime, the passes of
    # this lex job run out of 4000 steps, slowly; from its grevlex basis
    # it is refused as its grevlex twin is, and the core is never re-based
    text = hull_job_corpus(97, 63)[62]
    job = json.loads(text)
    spec = GradedRingSpec(tuple(tuple(d) for d in job["grading"]))
    gens = tuple(parse_polynomial(t, default_variables(4)) for t in job["prime"])
    outcomes = [metered(lambda b: analyze_prime(IdealPresentation(gens, o), spec, b), 4000)
                for o in (lex(4), grevlex(4))]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == ("NotPrimeError", "dimension drop 0 escapes the bound 1..1 "
                              "expected for a nongraded prime; the input cannot be prime")


# -- the primality samples ----------------------------------------------------


def raw_splits(rows, n, stream, samples, budget):
    """``raw_product_samples`` in the place of ``_splits_a_product``,
    which draws its own samples, so ``stream`` goes unread."""
    try:
        raw_product_samples(rows, n, samples, budget)
    except NotPrimeError:
        return True
    return False


def test_samples_move_primes_only_out_of_budget_errors(monkeypatch):
    """The draw streams, the lead-only membership test and the product of
    the representatives decide every sample as the packed route of
    ``raw_product_samples`` did: on the corpus's primes every answer and
    every other error is the old one, the Groebner counts do not move,
    and the units spent never rise at an equal outcome."""
    moved = fewer = 0
    for text in hull_job_corpus(97, 200):
        job = json.loads(text)
        if job["command"] != "analyze-prime":
            continue
        n = job["vars"]
        spec = GradedRingSpec(tuple(tuple(d) for d in job["grading"]))
        gens = tuple(parse_polynomial(t, default_variables(n)) for t in job["prime"])
        ideal = IdealPresentation(gens, grevlex(n))
        for limit in (40, 400, 4000):
            new = metered(lambda b: analyze_prime(ideal, spec, b), limit)
            with monkeypatch.context() as m:
                m.setattr(multigraded, "_splits_a_product", raw_splits)
                old = metered(lambda b: analyze_prime(ideal, spec, b), limit)
            assert new[2:] == old[2:], text
            if new[0] != old[0]:
                assert old[0][0] == "BudgetExceededError", text
                moved += 1
            else:
                assert new[1] >= old[1], text
                fewer += new[1] > old[1]
    assert moved and fewer


def prime_cases():
    """(n, samples, graded prime, grading) for n = 1..5 and 8, 16 and 32
    samples, the variable counts interleaved: the monomial prime (x1, ...,
    xn) under the total degree, whose samples can fall back to the last
    draw plus 1, or (x1 - x2, ..., x(n-1) - xn, xn^2 + xn + 1) under the
    zero grading, which is its own core."""
    cases = []
    for samples in (8, 16, 32):
        for n in (3, 1, 5, 2, 4):
            names = default_variables(n)
            if (n + samples // 8) % 2:
                texts, degree = names, 1
            else:
                texts = ["x%d - x%d" % (i, i + 1) for i in range(1, n)]
                texts, degree = texts + ["x%d^2 + x%d + 1" % (n, n)], 0
            gens = tuple(parse_polynomial(t, names) for t in texts)
            cases.append((n, samples, IdealPresentation(gens, grevlex(n)),
                          GradedRingSpec(((degree,),) * n)))
    return cases


def test_draw_streams_repeat_a_fresh_generator_per_call(monkeypatch):
    """Every call draws the samples a fresh ``random.Random(1)`` gives it,
    whatever ran before, with any variable count; each stream is as long
    as the most draws one call has read; and once the streams hold them,
    a call draws no random number."""
    monkeypatch.setattr(multigraded, "_draw_streams", {})
    reads = {}

    def check(rows, n, stream, samples, budget):
        draws, fallbacks, want = [], [], []
        with monkeypatch.context() as m:
            record_draws(m, draws, fallbacks)
            split = multigraded._splits_a_product(rows, n, stream, samples, budget)
        made = raw_product_samples(rows, n, samples, groebner._Budget(exact_linalg.DEFAULT_BUDGET), want)
        assert draws == want and len(draws) == 2 * samples
        reads[n] = max(reads.get(n, 0), made)
        assert len(multigraded._draw_streams[n][0]) == reads[n]
        check.fallbacks += sum(fallbacks)
        return split

    check.fallbacks = 0
    cases = prime_cases()

    def analyze_all():
        outs = []
        for _, samples, p, spec in cases:
            monkeypatch.setattr(multigraded, "_SAMPLES", samples)
            outs.append(analyze_prime(p, spec))
        return outs

    with monkeypatch.context() as m:
        m.setattr(multigraded, "_splits_a_product", check)
        outs = analyze_all()
    assert sorted(reads) == [1, 2, 3, 4, 5] and check.fallbacks
    assert all(out.graded and out.tau == 0 for out in outs)

    def no_draw(*args):
        raise AssertionError("a filled stream drew a random number")

    monkeypatch.setattr(random.Random, "randrange", no_draw)
    assert analyze_all() == outs


def test_two_threads_draw_one_stream(monkeypatch):
    """Two threads reading one variable count's stream at once, while it
    grows, each read the draws of a fresh ``random.Random(1)``."""
    monkeypatch.setattr(multigraded, "_draw_streams", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [None, None]

        def read(k):
            got[k] = [dict(multigraded._draw(3, i)) for i in range(0, 600, 1 + k)]

        threads = [threading.Thread(target=read, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    want = list(itertools.islice(fresh_draws(3), 600))
    assert got[0] == want and got[1] == want[::2]
    assert len(multigraded._draw_streams[3][0]) == 600


def test_default_samples_bound_every_stream(monkeypatch):
    """The samples are a fixed count, not a parameter, so no call reads a
    stream past 2 * 64 * ``_SAMPLES`` draws, not even on the monomial
    prime (x1, ..., xn) under the total degree, whose draws mostly fall
    inside it."""
    monkeypatch.setattr(multigraded, "_draw_streams", {})
    for n in range(1, 7):
        names = default_variables(n)
        p = IdealPresentation(tuple(parse_polynomial(v, names) for v in names), grevlex(n))
        out = analyze_prime(p, GradedRingSpec(((1,),) * n))
        assert out.graded and out.tau == 0
    streams = multigraded._draw_streams
    assert sorted(streams) == [1, 2, 3, 4, 5, 6]
    assert all(len(draws) <= 2 * 64 * multigraded._SAMPLES for draws, _ in streams.values())
    with pytest.raises(TypeError):
        analyze_prime(p, GradedRingSpec(((1,),) * 6), samples=8)


def test_certified_toric_primes_are_never_refused():
    """Toric ideals are prime, so under any grading ``analyze_prime``
    refuses none of them: a graded one has no drop, and any other one a
    drop between 1 and the rank of its degree group.  Each nonzero one
    is also analyzed under its own grading, by the columns a_i, where it
    is graded and is its own core, so its samples run on it."""
    rng = random.Random(859)
    outcomes = []
    for _, rays in random_pointed_cones(60, 3, 2, 7)[:50]:
        m = len(rays)
        p = IdealPresentation(toric_ideal(rays), grevlex(m))
        r = rng.randint(1, 2)
        specs = [GradedRingSpec(tuple(tuple(rng.randint(-2, 2) for _ in range(r))
                                      for _ in range(m)))]
        if p.generators:
            specs.append(GradedRingSpec(tuple(rays)))
        for spec in specs:
            out = analyze_prime(p, spec)
            if out.graded:
                assert out.tau == 0
            else:
                assert 1 <= out.tau <= out.sigma
            outcomes.append((out.graded, bool(out.p_star.generators)))
    assert set(outcomes) == {(True, False), (True, True), (False, False), (False, True)}
    assert outcomes.count((True, True)) > 20


def test_graded_cores_of_torus_orbit_points():
    """Grade S = Q[x_a : a in A] by deg x_a = a, for A the box-scan
    Hilbert basis of a pointed cone, and take F ⊆ A and λ in (Q^*)^d.  An
    A-homogeneous f of degree b takes the value λ^b * s at the point of
    the maximal ideal P = (x_a - λ^a : a in F) + (x_a : a not in F), where
    s is the coefficient sum of its monomials in the variables of F
    alone.  So f lies in P iff s = 0, and the graded core of P is
    I_{A_F} + (x_a : a not in F), I_{A_F} the toric ideal of F
    (``references.toric_ideal``): its dimension drop is rank A_F, and P
    is graded only for F empty.  F ranges over the empty set, each
    facet's part of A, the whole of A and one seeded random subset; λ
    has negative and fractional entries."""
    rng = random.Random(883)
    kinds = collections.Counter()
    corpus = random_pointed_cones(30, 3, 3, 17) + random_pointed_cones(30, 4, 2, 23)
    for d, rays in corpus:
        if d == 4 and len(rays) == 6:
            continue  # the box scan's Fourier-Motzkin elimination takes up to minutes
        gens = brute_irreducibles(rays, 0)
        n = len(gens)
        if n > 12:
            continue
        spec = GradedRingSpec(tuple(gens))
        unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        parts = {()}
        for f in true_facets(rays):
            parts.add(tuple(i for i, a in enumerate(gens) if dot(f, a) == 0))
        parts.add(tuple(range(n)))
        parts.add(tuple(sorted(rng.sample(range(n), rng.randint(0, n)))))
        for face in sorted(parts):
            lam = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
                   for _ in range(d)]
            point = []
            for i, a in enumerate(gens):
                value = Fraction(1)
                for x, e in zip(lam, a):
                    value *= x ** e
                terms = {unit[i]: 1, (0,) * n: -value} if i in face else {unit[i]: 1}
                point.append(Polynomial(n, terms))
            out = analyze_prime(IdealPresentation(tuple(point), grevlex(n)), spec)
            core = [Polynomial(n, {tuple(dict(zip(face, e)).get(j, 0) for j in range(n)): c
                                   for e, c in g.terms.items()})
                    for g in toric_ideal([gens[i] for i in face])] if face else []
            core += [Polynomial(n, {unit[i]: 1}) for i in range(n) if i not in face]
            tau = frac_rref([list(map(Fraction, gens[i])) for i in face])[0] if face else 0
            case = (rays, face, lam)
            assert out.p_star.generators == buchberger(core, grevlex(n)), case
            assert (out.tau, out.sigma, out.graded) == (tau, d, not face), case
            kinds["cases"] += 1
            kinds["negative"] += any(x < 0 for x in lam)
            kinds["fractional"] += any(x.denominator > 1 for x in lam)
            kinds["toric"] += len(core) > n - len(face)
    assert kinds == collections.Counter(cases=251, negative=208, fractional=210, toric=85), kinds
