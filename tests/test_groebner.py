"""Exact Groebner machinery over the rationals.

Known-answer fixtures were derived independently; randomized checks
enforce the defining reduction properties of a reduced basis.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from monograde import exact_linalg, groebner
from monograde.groebner import (
    BudgetExceededError,
    IdealPresentation,
    Polynomial,
    buchberger,
    default_variables,
    elimination_order,
    format_polynomial,
    grevlex,
    lex,
    normal_form,
    parse_polynomial,
)
from monograde.multigraded import GradedRingSpec
import references
from corpora import hull_job_corpus, polynomial_fuzz_texts
from references import (
    monic,
    poly_product,
    poly_sort_key,
    poly_sum,
    rational_buchberger,
    reference_buchberger,
    reference_ideal_dimension,
    reference_key,
    s_polynomial,
)

V2 = default_variables(2)
V3 = default_variables(3)


def poly(text, variables=V2):
    return parse_polynomial(text, variables)


def fmt(p, variables=V2):
    return format_polynomial(p, variables)


def random_poly(rng, n, max_terms=3, max_exp=2, bound=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[e] = terms.get(e, Fraction(0)) + Fraction(rng.randint(-bound, bound))
    terms = {e: c for e, c in terms.items() if c}
    return Polynomial(n, terms)


# -- term orders ---------------------------------------------------------


def test_grevlex_sequence():
    o = grevlex(3)
    mons = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(mons, key=o.key, reverse=True) == mons


def test_lex_sequence():
    o = lex(3)
    mons = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert sorted(mons, key=o.key, reverse=True) == mons


def test_elimination_order_separates_blocks():
    rng = random.Random(19)
    o = elimination_order((0,), 3)
    for _ in range(50):
        with_drop = (rng.randint(1, 3), rng.randint(0, 5), rng.randint(0, 5))
        without = (0, rng.randint(0, 5), rng.randint(0, 5))
        assert o.key(with_drop) > o.key(without)
    for drop in ((), (0, 0)):  # elimination_order itself drops repeats
        with pytest.raises(ValueError, match="^elimination order needs a set of dropped variables$"):
            groebner.TermOrder("elim", 3, drop)
    for drop in ((3,), (-1,)):
        with pytest.raises(ValueError, match="^dropped variable out of range$"):
            elimination_order(drop, 3)
    with pytest.raises(ValueError, match="^unknown order kind 'revlex'$"):
        groebner.TermOrder("revlex", 3)


def seeded_orders(rng, n):
    """grevlex, lex and an elimination order of a random nonempty block
    (all variables too)."""
    drop = rng.sample(range(n), rng.randint(1, n))
    return [grevlex(n), lex(n), elimination_order(drop, n)]


def test_compiled_keys_match_the_reference_dispatch():
    rng = random.Random(61)
    for n in range(1, 6):
        for _ in range(8):
            for o in seeded_orders(rng, n):
                exps = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(40)]
                for e in exps:
                    assert o.key(e) == reference_key(o, e)
                    assert o.key(e) == reference_key(o, e)  # memo hit
                assert sorted(exps, key=o.key) == sorted(exps, key=lambda e: reference_key(o, e))


def test_packed_exponents_sort_as_the_reference_keys():
    """At any width, the packed ints of exponents up to the packing's
    degree cap sort as :func:`reference_key` does, unpack to the
    exponents, add as the exponents add, and pass the guard-bit test
    exactly when one exponent divides the other."""
    rng = random.Random(83)
    for n in range(1, 6):
        for degree in (1, 20, 300, 2**40):
            for o in seeded_orders(rng, n):
                pk = groebner._Packing(o, degree)
                hi = pk.cap // (2 * n)
                exps = [tuple(rng.randint(0, rng.choice((1, hi))) for _ in range(n))
                        for _ in range(40)]
                packed = {e: pk._pack(e) for e in exps}
                assert sorted(exps, key=packed.get) == \
                    sorted(exps, key=lambda e: reference_key(o, e))
                assert len(set(packed.values())) == len(set(exps))
                G = pk.G
                for a, b in zip(exps, exps[1:]):
                    assert pk._unpack(packed[a]) == a
                    assert packed[a] + packed[b] == pk._pack(groebner._exp_add(a, b))
                    divides = (((packed[b] | G) - packed[a]) & G) == G
                    assert divides == groebner._divides(a, b)


def record_pairs(monkeypatch, spairs):
    """Append each S-pair either route reduces to ``spairs`` as the
    leading exponents (lt_i, lt_j) of its two elements: ``buchberger``
    forms them with the integer kernel's ``_s_pair`` (whose packed
    exponents the recorder unpacks), the rational oracles with
    ``s_polynomial``."""
    real_pair, real_spoly = groebner._s_pair, references.s_polynomial

    def integer_pair(f, g, l, pk):
        spairs.append((pk._unpack(f[0]), pk._unpack(g[0])))
        return real_pair(f, g, l, pk)

    def rational_pair(f, g, order):
        spairs.append((f.leading(order)[0], g.leading(order)[0]))
        return real_spoly(f, g, order)

    monkeypatch.setattr(groebner, "_s_pair", integer_pair)
    monkeypatch.setattr(references, "s_polynomial", rational_pair)


def test_heap_selects_the_pairs_of_the_min_scan(monkeypatch):
    """Same basis, same S-pairs in the same order and same reduction steps
    as the reference route, which picks each pair by min over the
    pending set."""
    spairs = []
    record_pairs(monkeypatch, spairs)
    rng = random.Random(67)
    checked = 0
    for n in range(2, 6):
        for _ in range(20):
            gens = [random_poly(rng, n, max_terms=3, max_exp=2) for _ in range(rng.randint(2, 3))]
            for o in seeded_orders(rng, n):
                outcomes = []
                for route in (buchberger, reference_buchberger):
                    budget = groebner._Budget(20_000)
                    spairs.clear()
                    try:
                        gb = route(gens, o, budget)
                    except BudgetExceededError:
                        gb = None
                    outcomes.append((gb, list(spairs), budget.remaining))
                assert outcomes[0] == outcomes[1]
                checked += outcomes[0][0] is not None
    assert checked > 150


def strategy_corpus(seed):
    """Random ideals in 2-4 variables under grevlex, lex and an
    elimination order, plus the torus-substituted inputs of the passes
    of further random ideals' graded hulls, each run at budget 2000, as
    the unskipped passes of ``references.hull_eliminations`` build
    them."""
    rng = random.Random(seed)
    cases = []
    for n in range(2, 5):
        for _ in range(10):
            gens = [random_poly(rng, n) for _ in range(rng.randint(2, 3))]
            drop = rng.sample(range(n), rng.randint(1, n - 1))
            cases.extend((gens, o) for o in (grevlex(n), lex(n), elimination_order(drop, n)))
    for n in range(2, 5):
        for _ in range(12):
            gens = tuple(g for g in (random_poly(rng, n) for _ in range(rng.randint(1, 2)))
                         if not g.is_zero)
            r = rng.randint(1, 2)
            spec = GradedRingSpec(tuple(tuple(rng.randint(-2, 2) for _ in range(r))
                                        for _ in range(n)))
            for rows, order in references.hull_eliminations([g.terms for g in gens], spec, 2000):
                cases.append(([references.row_polynomial(r, order.nvars) for r in rows], order))
    return cases


def hull_corpus_eliminations(count):
    """(rows, order) of each elimination the unskipped hull passes of
    ``references.hull_eliminations`` hand the kernel on the first
    ``count`` jobs of ``hull_job_corpus(97, ...)``, each job run at
    budget 1000 under grevlex: a prime's passes start from its reduced
    grevlex basis, as ``analyze_prime``'s do, and a unit ideal has none."""
    cases = []
    for text in hull_job_corpus(97, count):
        job = json.loads(text)
        n = job["vars"]
        names = default_variables(n)
        spec = GradedRingSpec(tuple(tuple(d) for d in job["grading"]))
        budget = groebner._Budget(1000)
        rows = [parse_polynomial(t, names).terms for t in job.get("ideal", job.get("prime"))]
        rows = [r for r in rows if r]
        if job["command"] == "analyze-prime":
            try:
                rows = groebner._reduced_rows(rows, grevlex(n), budget)
            except BudgetExceededError:
                continue
            if any(not any(next(iter(r))) for r in rows):
                continue
        cases += references.hull_eliminations(rows, spec, budget)
    return cases


def test_eliminated_rows_are_the_kept_rows_of_the_full_basis():
    """Asked for the elimination ideal alone, the kernel returns the rows
    of the full reduced basis whose leading term is free of the dropped
    variables, read in the remaining ones, term order included, after
    the same S-pairs and fewer or as many steps.  Those rows are the
    reduced grevlex basis of what they generate, so re-basing them
    under grevlex returns them unchanged: the re-basis a hull pass
    skips.  Checked on the elimination inputs of the strategy corpus,
    whose dropped blocks are random, and of the hull corpus."""
    cases = [([g.terms for g in gens if not g.is_zero], o)
             for gens, o in strategy_corpus(83) if o.kind == "elim"]
    cases += hull_corpus_eliminations(100)
    checked = discarded = saved = 0
    for rows, order in cases:
        full_budget, kept_budget = groebner._Budget(20_000), groebner._Budget(20_000)
        try:
            full = groebner._reduced_rows(rows, order, full_budget)
        except BudgetExceededError:
            continue
        kept = groebner._reduced_rows(rows, order, kept_budget, eliminate=True)
        want = [references.eliminated_row(r, order) for r in full
                if not any(next(iter(r))[i] for i in order.drop)]
        assert [list(r.items()) for r in kept] == [list(r.items()) for r in want]
        assert (kept_budget.spairs, kept_budget.zero_reductions) \
            == (full_budget.spairs, full_budget.zero_reductions)
        assert kept_budget.remaining >= full_budget.remaining
        rest = grevlex(order.nvars - len(order.drop))
        again = groebner._reduced_rows(kept, rest, groebner._Budget(20_000))
        assert [list(r.items()) for r in again] == [list(r.items()) for r in kept]
        checked += bool(kept)
        discarded += len(full) - len(kept)
        saved += kept_budget.remaining - full_budget.remaining
    assert len(cases) > 200 and checked > 150 and discarded > 500 and saved > 300


def test_sugar_and_the_normal_strategy_reach_the_same_basis(monkeypatch):
    """The reduced basis is unique, so the pair selection cannot change
    it; sugar must not need more S-pairs in all than the normal
    strategy, which stalls on some elimination inputs (its count there
    is what it spent before the budget ran out).  Sugar's count is read
    from the budget's meter, the oracle's by counting its
    ``s_polynomial`` calls."""
    cases = strategy_corpus(71)
    assert sum(o.kind == "elim" for _, o in cases) > 60
    spairs = []
    record_pairs(monkeypatch, spairs)
    totals = [0, 0]
    for gens, o in cases:
        budget = groebner._Budget(2000)
        sugar = buchberger(gens, o, budget)
        totals[0] += budget.spairs
        spairs.clear()
        try:
            normal = rational_buchberger(gens, o, 2000, strategy="normal")
        except BudgetExceededError:
            normal = None
        totals[1] += len(spairs)
        assert normal is None or sugar == normal
    assert 0 < totals[0] <= totals[1]


def test_integer_kernel_matches_the_rational_route(monkeypatch):
    """The integer route reduces the same S-pairs in the same order
    (and counts them on the budget), spends the same steps and returns
    the same basis as the rational route it replaced, on the strategy
    corpus and on random ideals with fractional coefficients, including
    runs cut short by the budget."""
    cases = strategy_corpus(73)
    rng = random.Random(79)
    for n in range(2, 5):
        for _ in range(20):
            gens = [poly_product(random_poly(rng, n),
                                 Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4)))
                    for _ in range(rng.randint(2, 3))]
            cases.extend((gens, o) for o in seeded_orders(rng, n))
    spairs = []
    record_pairs(monkeypatch, spairs)
    cut = 0
    for k, (gens, o) in enumerate(cases):
        limit = 6 if k % 4 == 0 else 20_000
        outcomes = []
        for route in (buchberger, rational_buchberger):
            budget = groebner._Budget(limit)
            spairs.clear()
            try:
                gb = route(gens, o, budget)
            except BudgetExceededError:
                gb = None
            outcomes.append((gb, list(spairs), budget.remaining))
            if route is buchberger:
                assert budget.spairs == len(spairs)
        assert outcomes[0] == outcomes[1]
        cut += outcomes[0][0] is None
    assert len(cases) > 300 and 0 < cut < len(cases) // 4


def test_rows_are_taken_in_the_order_of_the_polynomials_they_stand_for(monkeypatch):
    """``_reduced_rows`` takes its rows in the order the rational route
    takes the polynomials they stand for (a Fraction row as given, an
    int row as its monic form): under lex, the primitive rows x2^3 + x1
    and 3*x2^2 + 2*x1 tie on x1, where the monic 2/3 ranks below 1
    though the raw 2 ranks above it; the given 2*x1 + 1/2 ranks above
    both."""
    order = lex(2)
    rows = [{(0, 3): 1, (1, 0): 1}, {(0, 2): 3, (1, 0): 2},
            {(1, 0): Fraction(2), (0, 0): Fraction(1, 2)}]
    taken = []
    real = groebner._element

    def element(terms, pk):
        taken.append({pk._unpack(e): c for e, c in terms.items()})
        return real(terms, pk)

    monkeypatch.setattr(groebner, "_element", element)
    groebner._reduced_rows(rows, order, groebner._Budget(1000))
    want = sorted((references.row_polynomial(r, 2) for r in rows),
                  key=lambda g: poly_sort_key(g, order))
    got = [monic(Polynomial(2, t), order) for t in taken[:3]]
    assert got == [monic(g, order) for g in want]
    assert [g.terms for g in want] == [{(0, 2): 1, (1, 0): Fraction(2, 3)},
                                       {(0, 3): 1, (1, 0): 1},
                                       {(1, 0): 2, (0, 0): Fraction(1, 2)}]


def record_packings(monkeypatch):
    """The degree cap of every packing the kernel builds, in order."""
    caps = []

    class Recorded(groebner._Packing):
        __slots__ = ()

        def __init__(self, order, degree):
            super().__init__(order, degree)
            caps.append(self.cap)

    monkeypatch.setattr(groebner, "_Packing", Recorded)
    return caps


def rational_meter(monkeypatch, gens, order, limit):
    """``rational_buchberger``'s basis (None if the budget ran out), its
    S-pairs, the S-polynomials that reduced to zero and its steps spent,
    counted at ``s_polynomial`` and ``normal_form``."""
    count = {"spairs": 0, "zero": 0}
    last = [None]
    real_spoly, real_nf = references.s_polynomial, groebner.normal_form

    def spoly(f, g, order):
        count["spairs"] += 1
        last[0] = h = real_spoly(f, g, order)
        return h

    def nf(f, basis, order, budget=None):
        r = real_nf(f, basis, order, budget)
        count["zero"] += f is last[0] and r.is_zero
        return r

    budget = groebner._Budget(limit)
    with monkeypatch.context() as m:
        m.setattr(references, "s_polynomial", spoly)
        m.setattr(groebner, "normal_form", nf)
        try:
            gb = rational_buchberger(gens, order, budget)
        except BudgetExceededError:
            gb = None
    return gb, count["spairs"], count["zero"], limit - budget.remaining


def test_an_overflowing_width_restarts_wider_and_charges_once(monkeypatch):
    """Degrees past the packing's cap restart the call at a wider packing,
    with the budget's meter as it was on entry: the basis, the S-pairs,
    the zero reductions and the steps spent are the rational route's,
    also when the budget runs out before or after the restart.

    - lex, x1 - x2^16 and x1^16: the S-pair reduces to x2^256, past the
      cap of 127 that input degree 16 starts with, and with x1^13 to
      x2^208, which still fits the 8-bit field but not under its guard;
    - grevlex, the first overflow at an S-pair: lcms of the leading
      terms outgrow the cap of 255 before any reduction step does;
    - x1^(2^40) + x2 with x1*x2: an exponent no fixed width holds;
    - x1 - x2^(2^40) and x1^8: the same, and x2^(2^43) is past its own
      cap.
    """
    big = 2**40
    grevlex_spair = [Polynomial(3, {(10, 0, 23): 1, (16, 0, 22): 1}),
                     Polynomial(3, {(0, 11, 0): 1, (28, 0, 1): 1})]
    cases = [  # generators, order, restarts, budgets
        ([poly("x1 - x2^16"), poly("x1^16")], lex(2), 1, (5, 10, 20_000)),
        ([poly("x1 - x2^16"), poly("x1^13")], lex(2), 1, (20_000,)),
        (grevlex_spair, grevlex(3), 1, (40, 20_000)),
        ([Polynomial(2, {(big, 0): 1, (0, 1): 1}), poly("x1*x2")], lex(2), 0, (2, 20_000)),
        ([Polynomial(2, {(1, 0): 1, (0, big): -1}), poly("x1^8")], lex(2), 1, (3, 20_000)),
    ]
    for gens, o, restarts, limits in cases:
        for limit in limits:
            want = rational_meter(monkeypatch, gens, o, limit)
            with monkeypatch.context() as m:
                caps = record_packings(m)
                budget = groebner._Budget(limit)
                try:
                    gb = buchberger(gens, o, budget)
                except BudgetExceededError:
                    gb = None
            assert (gb, budget.spairs, budget.zero_reductions,
                    limit - budget.remaining) == want
            if gb is not None:
                assert want[1] > 0
                assert len(caps) == 1 + restarts
                assert max(sum(e) for g in gb for e in g.terms) <= caps[-1]


def test_membership_by_reduction_stays_within_the_grevlex_packing(monkeypatch):
    """The lead-only ``_reduce`` that ``_splits_a_product`` tests
    membership with reduces terms packed at the grevlex width of the
    basis, and no packing restarts: a step never raises a term's degree,
    so even terms at the cap, x1^127 under x1 - x2 (cap 127, the width
    the entry packs two variables at), reduce within the width.  The
    answer is that of the rational ``normal_form``, and the steps are
    those of ``lead_normal_form``, which stops at the first irreducible
    leading term: on a member all of ``normal_form``'s, on
    x1^2*x2^4 + x1^5 none of its one."""
    cases = (
        ("x1 - x2", (("x1^120 - x2^120", True), ("x1^127", False),
                     ("x1^127 - x1^3*x2^124", True))),
        ("x1^5 - x2^5", (("x1^5*x2 - x2^6", True), ("x1^2 - x2^2", False),
                         ("x1^2*x2^4 + x1^5", False))),
    )
    order = grevlex(2)
    for basis_text, members in cases:
        g = poly(basis_text)
        with monkeypatch.context() as m:
            caps = record_packings(m)
            groebner._splits_a_product([g.terms], 2, map(dict.items, references.fresh_draws(2)),
                                       8, groebner._Budget(exact_linalg.DEFAULT_BUDGET))
        assert caps == [127]
        pk, elements = references.packed_grevlex_basis([g.terms], 2, 1)
        assert pk.cap == 127 and pk.order == order
        pack = pk._pack
        for text, member in members:
            f = poly(text)
            terms = groebner._integer_terms([(pack(e), c) for e, c in f.terms.items()])
            budgets = [groebner._Budget(10_000) for _ in range(3)]
            with monkeypatch.context() as m:
                caps = record_packings(m)
                rest = groebner._reduce(terms, elements, pk, budgets[0], lead_only=True)
            assert (not rest) is member
            assert caps == []
            assert normal_form(f, [g], order, budgets[1]).is_zero is member
            assert references.lead_normal_form(f, [g], order, budgets[2]).is_zero is member
            assert budgets[0].remaining == budgets[2].remaining
            if member:
                assert budgets[1].remaining == budgets[2].remaining
    assert (budgets[0].remaining, budgets[1].remaining) == (10_000, 9_999)


def test_lead_only_reduction_is_a_prefix_of_the_full_one():
    """``_reduce``'s ``lead_only`` answers membership as the full
    reduction does and spends a prefix of its steps, all of them on a
    member; what it returns is a positive multiple of the rational
    ``lead_normal_form``.  Checked on the products of two sample draws
    modulo the grevlex bases of the hull job corpus's ideals."""
    members = shorter = 0
    for text in hull_job_corpus(97, 60):
        job = json.loads(text)
        n = job["vars"]
        names = default_variables(n)
        order = grevlex(n)
        gb = buchberger([parse_polynomial(t, names) for t in job.get("ideal", job.get("prime"))],
                        order)
        if any(not any(g.leading(order)[0]) for g in gb):
            continue  # the unit ideal
        pk, elements = references.packed_grevlex_basis([g.terms for g in gb], n, 4 * n)
        draws = list(itertools.islice(references.fresh_draws(n), 12))
        for a, b in zip(draws[::2], draws[1::2]):
            f = poly_product(Polynomial(n, a), Polynomial(n, b))
            terms = {pk._pack(e): int(c) for e, c in f.terms.items()}
            budgets = [groebner._Budget(10**6) for _ in range(3)]
            lead = groebner._reduce(dict(terms), elements, pk, budgets[0], lead_only=True)
            full = groebner._reduce(dict(terms), elements, pk, budgets[1])
            want = references.lead_normal_form(f, gb, order, budgets[2])
            assert budgets[0].remaining == budgets[2].remaining >= budgets[1].remaining
            assert (not lead) == (not full) == want.is_zero
            if lead:
                rep = Polynomial(n, {pk._unpack(e): c for e, c in lead.items()})
                e, c = rep.leading(order)
                k = c / want.terms[e]
                assert k > 0 and rep == poly_product(want, k)
                shorter += budgets[0].remaining > budgets[1].remaining
            else:
                assert budgets[0].remaining == budgets[1].remaining
                members += 1
    assert members and shorter


# -- parsing and formatting ----------------------------------------------


def test_parse_format_round_trip():
    for text in (
        "x1^2*x2 - 3/2*x1 + 1",
        "-x1 - 1",
        "3/4",
        "0",
        "x2^5 - 3*x2^3 + x2 + 1",
    ):
        assert fmt(poly(text)) == text


def test_parse_accepts_coefficient_juxtaposition():
    assert poly("2x1") == poly("2*x1")
    assert poly("x1^2x2") == poly("x1^2*x2")


def test_parse_errors():
    with pytest.raises(ValueError, match="unknown variable"):
        poly("x3 + 1")
    with pytest.raises(ValueError, match="exponent"):
        poly("x1 ^^ 2")
    with pytest.raises(ValueError, match="dangling sign"):
        poly("x1 +")
    with pytest.raises(ValueError, match="unexpected character"):
        poly("2x1 @")
    # a '*' needs a factor after it: none of these is read as x1, 2 or x1 - x2
    for text in ("x1*", "2*", "x1 * - x2", "x1 ** x2", "x1* + 1"):
        with pytest.raises(ValueError, match="expected a factor after '\\*'"):
            poly(text)


def _parse_outcome(parse, text, variables):
    try:
        return parse(text, variables)
    except ValueError as exc:
        return "ValueError: %s" % exc


def test_factor_reader_keeps_the_token_parsers_language_and_errors():
    """The factor reader against the token-stream parser it replaced:
    the same Polynomial or the same ValueError message on seeded fuzz
    strings under three variable lists, one with a repeated name and one
    empty, and on the edge cases of the language."""
    traps = {
        "٣*x1": poly("3*x1"),
        "²": "ValueError: unexpected character '²' in polynomial",
        "x1\x1c+ 1": poly("x1 + 1"),
        "x1x2": "ValueError: unknown variable 'x1x2'",
        "2x1": poly("2*x1"),
        "x1 2": poly("2*x1"),
        "x1^2x2": poly("x1^2*x2"),
        "- -x1": poly("x1"),
        "1/2/3": "ValueError: expected '+' or '-' between terms",
        "x1/2": "ValueError: expected '+' or '-' between terms",
        "x1^2^3": "ValueError: expected '+' or '-' between terms",
        "*x1": "ValueError: empty term in polynomial",
        "x1 + ^2": "ValueError: empty term in polynomial",
        "y^": "ValueError: unknown variable 'y'",
        "1/0 + y": "ValueError: zero denominator",
        "": poly("0"),
        "  ": poly("0"),
    }
    for text, expected in traps.items():
        assert _parse_outcome(parse_polynomial, text, V2) == expected, text
        assert _parse_outcome(references.token_parse_polynomial, text, V2) == expected, text
    for text in polynomial_fuzz_texts(2027, 20_000):
        for variables in (("x1", "x2", "x3"), ("x1", "x1", "x2"), ()):
            new = _parse_outcome(parse_polynomial, text, variables)
            old = _parse_outcome(references.token_parse_polynomial, text, variables)
            assert new == old and type(new) is type(old), (text, variables)


def test_polynomial_basics():
    f = Polynomial(2, {(1, 0): 1, (0, 1): 0, (2.0, 1): Fraction(3, 4)})
    assert f == poly("3/4*x1^2*x2 + x1") and f.terms[2, 1] == Fraction(3, 4)
    assert f.total_degree() == 3 and Polynomial(2, {}).total_degree() == -1
    assert f.leading(grevlex(2)) == ((2, 1), Fraction(3, 4))
    assert Polynomial.monomial((0, 2), 5, 2) == poly("5*x2^2")
    assert Polynomial(2, {(0, 0): 0}).is_zero
    # keys that read as one exponent add up, and cancel to nothing
    assert Polynomial(2, {(0, 1): 1, range(2): 2}) == poly("3*x2")
    assert Polynomial(2, {(0, 1): 1, range(2): -1}).is_zero
    assert repr(Polynomial(2.0, {(1, 0): 2})) == "Polynomial(2, {(1, 0): Fraction(2, 1)})"
    with pytest.raises(ValueError, match="^the zero polynomial has no leading term$"):
        Polynomial(2, {}).leading(grevlex(2))
    with pytest.raises(ValueError, match="bad exponent"):
        Polynomial(2, {(1, -1): 1})


def test_variable_count_is_read_like_every_integer_input():
    """2.0 variables are taken as 2; 2.7, 2.5 or a negative count raise
    ValueError instead of being truncated or accepted."""
    f = Polynomial(2.0, {(1, 0): 1})
    assert f.nvars == 2 and type(f.nvars) is int and f == poly("x1")
    for bad in (2.7, 2.5, -1):
        with pytest.raises(ValueError):
            Polynomial(bad, {})


# -- Groebner bases -------------------------------------------------------


def test_lex_basis_of_circle_pair():
    ideal = IdealPresentation((poly("x1^2 - 1"), poly("x1*x2 - 1")), lex(2))
    gb = buchberger(ideal.generators, ideal.order)
    assert [fmt(g) for g in gb] == ["x2^2 - 1", "x1 - x2"]


def test_grevlex_basis_fixture():
    ideal = IdealPresentation((poly("x1*x2-1"), poly("x2^2-1")), grevlex(2))
    assert [fmt(g) for g in buchberger(ideal.generators, ideal.order)] == ["x1 - x2", "x2^2 - 1"]


def test_linear_pair_reduces_to_variables():
    ideal = IdealPresentation((poly("x1+x2"), poly("x1-x2")), grevlex(2))
    assert [fmt(g) for g in buchberger(ideal.generators, ideal.order)] == ["x2", "x1"]


def test_quartic_lex_fixture():
    ideal = IdealPresentation(
        (poly("x1^4*x2 - x2^3 + 1"), poly("x1^2 + x2^2 - 1")), lex(2)
    )
    assert [fmt(g) for g in buchberger(ideal.generators, ideal.order)] == [
        "x2^5 - 3*x2^3 + x2 + 1",
        "x1^2 + x2^2 - 1",
    ]


def test_basis_is_reduced_and_closed_random():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 3)
        order = grevlex(n) if rng.random() < 0.5 else lex(n)
        gens = tuple(p for p in (random_poly(rng, n) for _ in range(rng.randint(2, 3))) if not p.is_zero)
        if not gens:
            continue
        gb = buchberger(gens, order, 2_000_000)
        assert gb
        lts = [g.leading(order)[0] for g in gb]
        for i, g in enumerate(gb):
            # monic leading coefficient
            assert g.leading(order)[1] == 1
            # leading terms pairwise indivisible
            for j, e in enumerate(lts):
                if i != j:
                    assert not all(a >= b for a, b in zip(lts[i], e))
            # tails are fully reduced
            for e in g.terms:
                if e != lts[i]:
                    assert not any(all(a >= b for a, b in zip(e, lt)) for lt in lts)
        # every generator lies in the basis ideal
        for f in gens:
            assert normal_form(f, gb, order).is_zero
        # every s-polynomial reduces to zero
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                sp = s_polynomial(gb[i], gb[j], order)
                assert normal_form(sp, gb, order).is_zero
        # recomputation on the reduced basis is a fixed point
        assert buchberger(gb, order, 2_000_000) == gb


def test_s_polynomial_fixture():
    sp = s_polynomial(poly("x1^2-1"), poly("x1*x2-1"), lex(2))
    assert fmt(sp) == "x1 - x2"
    # leading coefficients other than 1 are divided out
    sp = s_polynomial(poly("2*x1^2-2"), poly("-3*x1*x2+3"), lex(2))
    assert fmt(sp) == "x1 - x2"


# -- normal forms ----------------------------------------------------------


def test_normal_form_fixture():
    ideal = IdealPresentation((poly("x1^2 - 1"), poly("x1*x2 - 1")), lex(2))
    gb = buchberger(ideal.generators, ideal.order)
    assert fmt(normal_form(poly("x1^2*x2"), gb, lex(2))) == "x2"
    # a divisor that is not monic: x1 = 1/2 modulo 2*x1 - 1
    assert fmt(normal_form(poly("x1^2 + x2"), [poly("2*x1 - 1")], lex(2))) == "x2 + 1/4"


def test_normal_form_refuses_mixed_variable_counts():
    """x1^2 in 2 variables modulo x1 in 3 is refused, as ``buchberger``
    refuses such generators and an ideal refuses generators its order
    does not fit, instead of reducing to a false zero."""
    with pytest.raises(ValueError, match="mixed variable counts"):
        normal_form(poly("x1^2"), [poly("x1", V3)], grevlex(2))
    with pytest.raises(ValueError, match="mixed variable counts"):
        normal_form(poly("x1^2"), [poly("x2"), poly("x1", V3)], grevlex(2))
    with pytest.raises(ValueError, match="^mixed variable counts$"):
        buchberger([poly("x1^2"), poly("x1", V3)], grevlex(2))
    with pytest.raises(ValueError, match="^generators do not match the order's variable count$"):
        IdealPresentation((poly("x1", V3),), grevlex(2))


def test_normal_form_is_linear_and_idempotent():
    rng = random.Random(47)
    ideal = IdealPresentation((poly("x1^2 - x2"), poly("x2^2 - 1")), grevlex(2))
    gb = buchberger(ideal.generators, ideal.order)
    o = grevlex(2)
    for _ in range(25):
        f = random_poly(rng, 2, max_terms=4, max_exp=4)
        g = random_poly(rng, 2, max_terms=4, max_exp=4)
        nf, ng = normal_form(f, gb, o), normal_form(g, gb, o)
        assert normal_form(poly_sum(f, g), gb, o) == poly_sum(nf, ng)
        assert normal_form(nf, gb, o) == nf
        # the reduction difference is in the ideal
        assert normal_form(poly_sum(f, poly_product(nf, -1)), gb, o).is_zero


# -- dimension -------------------------------------------------------------


def ideal_dimension(ideal, budget=None):
    """The quotient dimension as ``analyze_prime`` reads it: the cover
    search of ``_grevlex_basis_dimension`` on the reduced grevlex rows."""
    budget = exact_linalg._as_budget(budget)
    n = ideal.nvars
    rows = groebner._reduced_rows([g.terms for g in ideal.generators], grevlex(n), budget)
    return groebner._grevlex_basis_dimension(rows, n, budget)


def test_ideal_dimension_fixtures():
    assert ideal_dimension(IdealPresentation((poly("x1*x2", V3),), grevlex(3))) == 2
    assert ideal_dimension(IdealPresentation((), grevlex(3))) == 3
    gens = tuple(poly(v, V3) for v in V3)
    assert ideal_dimension(IdealPresentation(gens, grevlex(3))) == 0
    assert ideal_dimension(IdealPresentation((poly("x1", V3),), lex(3))) == 2
    with pytest.raises(ValueError, match="unit ideal"):
        ideal_dimension(IdealPresentation((poly("1", V3),), grevlex(3)))


def test_ideal_dimension_matches_the_subset_scan():
    rng = random.Random(127)
    for _ in range(600):
        n = rng.randint(1, 8)
        exps = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        gens = [Polynomial.monomial(e, 1, n) for e in exps if any(e)]
        if n <= 4 and len(gens) > 1:
            # a binomial keeps the ideal from being monomial
            v = rng.randrange(n)
            minus_x = Polynomial.monomial([int(i == v) for i in range(n)], -1, n)
            gens[0] = poly_sum(gens[0], poly_product(gens[1], minus_x))
        ideal = IdealPresentation(tuple(gens), grevlex(n))
        assert ideal_dimension(ideal) == reference_ideal_dimension(ideal)


def test_ideal_dimension_spends_the_budget():
    # (x1*x2, x3*x4, ..., x29*x30): 2^15 least covers to branch through
    n = 30
    pairs = tuple(Polynomial.monomial(tuple(int(j in (i, i + 1)) for j in range(n)), 1, n)
                  for i in range(0, n, 2))
    ideal = IdealPresentation(pairs, grevlex(n))
    assert len(buchberger(ideal.generators, ideal.order, 1000)) == 15
    with pytest.raises(BudgetExceededError, match="dimension search budget exceeded"):
        ideal_dimension(ideal, budget=1000)
    assert ideal_dimension(ideal) == 15


def test_budget_exhaustion_raises():
    ideal = IdealPresentation(
        (poly("x1^4*x2 - x2^3 + 1"), poly("x1^2 + x2^2 - 1")), lex(2)
    )
    with pytest.raises(BudgetExceededError):
        buchberger(ideal.generators, ideal.order, 1)
