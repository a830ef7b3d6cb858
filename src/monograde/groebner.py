"""Exact multivariate polynomial arithmetic over Q with Buchberger's
algorithm.

Polynomials are sparse maps from exponent tuples to Fractions.  The
module provides graded reverse lexicographic and lexicographic orders,
block elimination orders, reduced Groebner bases and full normal forms;
``multigraded`` reads quotient dimensions off the leading terms of the
private grevlex rows (:func:`_grevlex_basis_dimension`).  All loops
that can run long honor a reduction-step budget and fail with
:class:`BudgetExceededError` when it is exhausted.

Each order's sort key serves the public API.  Buchberger's algorithm
does not call it: inside, every exponent is packed into one int whose
integer order is the term order (see :class:`_Packing`), so the key of
an exponent is the exponent itself, a monomial product is one addition
and a divisibility test one subtraction and mask.  Pairs
are selected by the sugar strategy: pending S-pairs sit in a heap keyed
by their sugar (the degree the S-polynomial would have after
homogenizing the input), then by their packed lcm, each pair pushed
once, so picking the next pair costs a logarithm of the queue instead
of a scan of it.  Basis elements are primitive integer polynomials and
every S-pair and reduction step is fraction-free.  The private entry
:func:`_reduced_rows` hands the reduced basis back as primitive integer
rows (dicts from exponent tuple to int), which the graded hulls and the
prime analysis in ``multigraded`` feed straight into the next call.
Under an elimination order it can instead hand back the elimination
ideal's reduced basis alone: only the elements free of the dropped
variables are interreduced and unpacked, in the remaining ones, which
is all a hull pass keeps.  :func:`buchberger` makes the rows monic over
Q, the only place a kernel answer becomes a :class:`Polynomial`, and
always returns the full basis.  The private entry
:func:`_splits_a_product` runs the prime analysis's sampled product test
on such rows, so no packed exponent leaves the module.  The public
:func:`normal_form` works over Q.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import add, itemgetter, le, mul, sub

from .exact_linalg import BudgetExceededError  # noqa: F401  (re-exported)
from .exact_linalg import _as_budget, _as_count, _Budget, as_tuple

Exponent = tuple[int, ...]

# -- term orders -----------------------------------------------------


def _grevlex_key(e) -> tuple:
    """(degree, negated exponents read backwards)."""
    return sum(e), tuple([-x for x in reversed(e)])


@dataclass(frozen=True)
class TermOrder:
    """A monomial order on a fixed number of variables.

    ``kind`` is "grevlex", "lex", or "elim".  An elimination order
    compares the ``drop`` block by grevlex first, so any leading term
    free of dropped variables certifies that the whole polynomial is.

    :meth:`key` serves the public API (:meth:`Polynomial.leading`,
    :func:`format_polynomial`, the rational :func:`normal_form`).
    Buchberger's algorithm packs exponents instead (see :class:`_Packing`),
    at a width it sets per call from the input degrees, so the order holds
    no packing.
    """

    kind: str
    nvars: int
    drop: tuple[int, ...] = ()

    def __post_init__(self):
        # the variable count and the dropped variables are read like every
        # integer input: 2.0 is taken as 2, and 2.5 raises ValueError
        nvars = _as_count(self.nvars, 0, "number of variables must be nonnegative")
        object.__setattr__(self, "nvars", nvars)
        if self.kind not in ("grevlex", "lex", "elim"):
            raise ValueError("unknown order kind %r" % (self.kind,))
        if self.kind == "elim":
            object.__setattr__(self, "drop", as_tuple(self.drop))
            if not self.drop or sorted(set(self.drop)) != sorted(self.drop):
                raise ValueError("elimination order needs a set of dropped variables")
            if any(i < 0 or i >= self.nvars for i in self.drop):
                raise ValueError("dropped variable out of range")

    def key(self, e) -> tuple:
        """The sort key of exponent ``e``: larger means larger in the
        order.  A grevlex key is :func:`_grevlex_key`, a lex key the
        exponent itself, and an elimination key the grevlex key of the
        dropped block, then that of the rest."""
        if self.kind == "elim":
            return (_grevlex_key([e[i] for i in self.drop]),
                    _grevlex_key([x for i, x in enumerate(e) if i not in self.drop]))
        return _grevlex_key(e) if self.kind == "grevlex" else tuple(e)


def grevlex(nvars: int) -> TermOrder:
    return TermOrder("grevlex", nvars)


def lex(nvars: int) -> TermOrder:
    return TermOrder("lex", nvars)


def elimination_order(drop, nvars: int) -> TermOrder:
    return TermOrder("elim", nvars, tuple(sorted(set(as_tuple(drop)))))


# -- polynomials -----------------------------------------------------


class Polynomial:
    """Sparse polynomial over Q in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = _as_count(nvars, 0, "number of variables must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        for e, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if not c:
                continue
            e = as_tuple(e)
            if len(e) != self.nvars or any(x < 0 for x in e):
                raise ValueError("bad exponent %r" % (e,))
            if e not in clean:
                clean[e] = c
            elif acc := clean[e] + c:
                clean[e] = acc
            else:
                del clean[e]
        self.terms = clean

    @classmethod
    def _clean(cls, nvars: int, terms: dict) -> "Polynomial":
        """A polynomial on ``terms`` taken as they are: the package
        already holds them clean, with valid exponent tuples and nonzero
        Fraction coefficients, so nothing is checked or copied."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def monomial(cls, e, c, nvars: int) -> "Polynomial":
        return cls(nvars, {tuple(e): Fraction(c)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self, order: TermOrder) -> tuple[Exponent, Fraction]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return "Polynomial(%d, %r)" % (self.nvars, self.terms)


def _divides(d: Exponent, e: Exponent) -> bool:
    return all(map(le, d, e))


def _exp_sub(e: Exponent, d: Exponent) -> Exponent:
    return tuple(map(sub, e, d))


def _exp_add(e: Exponent, d: Exponent) -> Exponent:
    return tuple(map(add, e, d))


# -- reduction and Buchberger ----------------------------------------


def normal_form(f: Polynomial, basis, order: TermOrder, budget=None) -> Polynomial:
    """Full remainder of f modulo the basis: no remainder term is
    divisible by any basis leading term.  Deterministic: the largest
    reducible term is rewritten by the first matching basis element."""
    budget = _as_budget(budget)
    basis = [g for g in basis if not g.is_zero]
    if any(g.nvars != f.nvars for g in basis):
        raise ValueError("mixed variable counts")
    lts = [(g, *g.leading(order)) for g in basis]
    work = dict(f.terms)
    remainder: dict[Exponent, Fraction] = {}
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        hit = None
        for g, ge, gc in lts:
            if _divides(ge, e):
                hit = (g, ge, gc)
                break
        if hit is None:
            remainder[e] = c
            continue
        budget.spend()
        g, ge, gc = hit
        shift = _exp_sub(e, ge)
        ratio = c if gc == 1 else c / gc
        for e2, c2 in g.terms.items():
            if e2 == ge:
                continue
            em = _exp_add(e2, shift)
            if em not in work:
                work[em] = -ratio * c2
            elif acc := work[em] - ratio * c2:
                work[em] = acc
            else:
                del work[em]
    return Polynomial._clean(f.nvars, remainder)


# -- the integer kernel ----------------------------------------------
#
# Between kernel calls a polynomial is a row: a dict from exponent tuple
# to coefficient.  A row with Fraction coefficients is taken as given; a
# row with int coefficients is a primitive kernel answer, leading term
# first with a positive coefficient, and stands for its monic form (each
# coefficient over the first).  Inside Buchberger's algorithm a
# polynomial is held over Z with packed
# exponents: a dict from packed exponent (see _Packing) to integer.  A
# basis element is a tuple (leading exponent, leading coefficient, tail,
# top): the coefficients are coprime integers, the leading one positive,
# the tail lists the other terms, and top is the largest total degree of
# a term, in the degree field.  Each element is a positive multiple of
# the monic element the rational algorithm would hold, and a work
# polynomial is a positive multiple of its rational counterpart, so both
# pick the same terms, the same divisors and the same pairs.


class _Overflow(Exception):
    """A total degree outgrew the fields of its packing."""


class _Packing:
    """The exponents of one order packed into ints, at one field width w.

    An exponent e packs to P(e) = sum(e_i * V_i).  From the top, P holds
    the linear components of the order's key in base 2^w: grevlex is
    (degree, -e read backwards), an elimination order each block's
    (degree, -e read backwards), lex e itself.  Below them
    sit the total degree and the exponents e_i, each in a w-bit field
    whose top bit is a guard.  While every total degree is at most
    ``cap`` = 2^(w-1) - 1, no field carries and two keys' components
    differ by less than 2^w, so comparing the ints compares the keys, a
    monomial product or quotient is ``+`` or ``-``, d divides e exactly
    when ``((e | G) - d) & G == G``, and the total degree is
    ``p >> ds & fm``.  Only the lcm of a pair is taken field by field,
    from the exponent tuples of the two leading terms.

    Before a reduction step or an S-pair multiplies an element by a
    monomial, the kernel checks that the products stay within ``cap``
    and raises :class:`_Overflow` otherwise; the call then starts over
    at a wider packing (:func:`_widening`).  An lcm needs no check: its
    fields are those of valid exponents, so its degree stays below 2^w,
    where comparison, the coprimality and chain tests and the degree
    read-out still hold, and the S-pair check covers it before it is
    multiplied out.
    """

    __slots__ = ("order", "nvars", "cap", "V", "shifts", "fm", "ds", "G", "DG")

    def __init__(self, order: TermOrder, degree: int):
        n = self.nvars = order.nvars
        w = max(8, degree.bit_length() + 3)  # cap >= 4 * degree
        ds = n * w
        V = [(1 << i * w) + (1 << ds) for i in range(n)]
        at = ds + w  # the least significant component
        if order.kind == "lex":
            for i in reversed(range(n)):
                V[i] += 1 << at
                at += w
        else:
            if order.kind == "elim":
                blocks = ([i for i in range(n) if i not in order.drop], order.drop)
            else:
                blocks = (range(n),)
            for b in blocks:  # least significant block first
                for i in b:
                    V[i] -= 1 << at
                    at += w
                for i in b:
                    V[i] += 1 << at
                at += w
        self.order, self.cap, self.V, self.ds = order, (1 << w - 1) - 1, V, ds
        self.shifts = range(0, ds, w)
        self.fm = (1 << w) - 1
        self.G = sum(1 << s + w - 1 for s in self.shifts)
        self.DG = 1 << ds + w - 1

    def _pack(self, e) -> int:
        return sum(map(mul, e, self.V))

    def _unpack(self, p: int) -> Exponent:
        fm = self.fm
        return tuple([p >> s & fm for s in self.shifts])


def _widening(pk: _Packing, budget: _Budget, run):
    """``run(pk)``; if an exponent outgrows ``pk``, the budget's meter
    goes back to its state on entry and ``run`` starts over at a wider
    packing, so the answer and every count are those of a run that never
    overflowed."""
    entry = budget.remaining, budget.spairs, budget.zero_reductions
    while True:
        try:
            return run(pk)
        except _Overflow:
            budget.remaining, budget.spairs, budget.zero_reductions = entry
            pk = _Packing(pk.order, 2 * pk.cap)


def _integer_terms(items) -> dict[int, int]:
    """The (exponent, coefficient) pairs as a dict, times the least common
    denominator of the coefficients (Fractions or ints)."""
    m = lcm(*(c.denominator for _, c in items))
    return {e: c.numerator * (m // c.denominator) for e, c in items}


def _element(terms: dict[int, int], pk: _Packing):
    """The basis element of a nonzero integer polynomial: its content
    removed and its leading coefficient made positive."""
    lt = max(terms)
    d = gcd(*terms.values())
    if terms[lt] < 0:
        d = -d
    ds, fm = pk.ds, pk.fm
    top = max([e >> ds & fm for e in terms]) << ds
    return lt, terms[lt] // d, [(e, c // d) for e, c in terms.items() if e != lt], top


def _reduce(work: dict[int, int], basis, pk: _Packing, budget: _Budget,
            lead_only: bool = False) -> dict[int, int]:
    """:func:`normal_form` over Z: a positive multiple of the remainder of
    ``work`` (which this consumes) modulo the basis elements.

    A step meets the largest reducible term c*x^e and the first element
    g whose leading term divides it.  With d = gcd(c, lc(g)), it scales
    the work and the remainder by lc(g)/d > 0 and subtracts
    (c/d)*x^(e - lt(g))*g, which cancels the term, so nothing is divided.

    With ``lead_only`` it returns the work as soon as its largest term is
    irreducible: k*f minus a combination of the basis elements, for an
    integer k > 0, and empty exactly when the full remainder is, since
    an irreducible term stays in the remainder once it is there.  Its
    steps are a prefix of the full reduction's, and all of them when f
    lies in the ideal, where no term is ever irreducible.
    """
    G, DG = pk.G, pk.DG
    remainder: dict[int, int] = {}
    while work:
        e = max(work)
        c = work.pop(e)
        eg = e | G
        for ge, gc, tail, top in basis:
            if (eg - ge) & G == G:
                break
        else:
            if lead_only:
                work[e] = c
                return work
            remainder[e] = c
            continue
        budget.spend()
        if gc != 1:
            d = gcd(c, gc)
            a, c = gc // d, c // d
            if a != 1:
                work = {em: a * v for em, v in work.items()}
                for em in remainder:
                    remainder[em] *= a
        shift = e - ge
        if (shift + top) & DG:
            raise _Overflow
        for e2, c2 in tail:
            em = e2 + shift
            if em not in work:
                work[em] = -c * c2
            elif acc := work[em] - c * c2:
                work[em] = acc
            else:
                del work[em]
    return remainder


def _s_pair(f, g, l: int, pk: _Packing) -> dict[int, int]:
    """A positive multiple of the S-polynomial of two basis elements
    whose leading terms have the lcm ``l``: (lc(g)/d)*x^a*f -
    (lc(f)/d)*x^b*g with d = gcd(lc(f), lc(g)), whose leading terms
    cancel, so only the tails are added."""
    fe, fc, ftail, ftop = f
    ge, gc, gtail, gtop = g
    fshift, gshift = l - fe, l - ge
    if ((fshift + ftop) | (gshift + gtop)) & pk.DG:
        raise _Overflow
    d = gcd(fc, gc)
    a, b = gc // d, fc // d
    out = {e + fshift: a * c for e, c in ftail}
    for e, c in gtail:
        em = e + gshift
        if em not in out:
            out[em] = -b * c
        elif acc := out[em] - b * c:
            out[em] = acc
        else:
            del out[em]
    return out


def _interreduce(basis: list, pk: _Packing, budget: _Budget, eliminate: bool) -> list[dict]:
    """The reduced basis from the elements of a Groebner basis: the
    elements with a minimal leading term, each reduced modulo the others,
    as primitive integer rows sorted by leading term.

    With ``eliminate`` (under an elimination order) only the elements
    whose leading term is free of the dropped block are kept, reduced
    and unpacked, in the remaining variables: these leading terms pack
    below the least monomial with a dropped variable, which is the last
    dropped variable alone.  Only such a leading term divides a monomial
    free of the block, and the tail of such an element is free of it, so
    each kept row takes the steps the full interreduction takes on it.
    """
    G, fm, shifts = pk.G, pk.fm, pk.shifts
    elements = sorted(basis, key=itemgetter(0))
    if eliminate:
        drop = pk.order.drop
        bound = pk.V[max(drop)]
        elements = [el for el in elements if el[0] < bound]
        shifts = [s for i, s in enumerate(shifts) if i not in drop]
    kept: list = []
    for el in elements:
        eg = el[0] | G
        if not any((eg - k[0]) & G == G for k in kept):
            kept.append(el)
    final = []
    for i, (lt, lc, tail, _) in enumerate(kept):
        work = dict(tail)
        work[lt] = lc
        r = _reduce(work, kept[:i] + kept[i + 1:], pk, budget)
        lc = r.pop(lt)
        d = gcd(lc, *r.values())
        row = {tuple([lt >> s & fm for s in shifts]): lc // d}
        for e, c in r.items():
            row[tuple([e >> s & fm for s in shifts])] = c // d
        final.append(row)
    return final


def _row_key(items: list) -> list:
    """The order in which :func:`_buchberger` takes its rows: the
    (packed exponent, coefficient) pairs of a row, largest first.  An int
    row compares as its monic form, a Fraction row as given."""
    lc = items[0][1]
    if type(lc) is int and lc != 1:
        items = [(e, Fraction(c, lc)) for e, c in items]
    return sorted(items, reverse=True)


def _monic(rows, nvars: int) -> tuple[Polynomial, ...]:
    """The monic polynomials of primitive integer rows."""
    out = []
    for row in rows:
        lc = next(iter(row.values()))
        out.append(Polynomial._clean(nvars, {e: Fraction(c, lc) for e, c in row.items()}))
    return tuple(out)


def buchberger(generators, order: TermOrder, budget=None) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis of the ideal, sorted by leading term:
    :func:`_reduced_rows` of the generators, made monic over Q."""
    budget = _as_budget(budget)
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    nv = gens[0].nvars
    if any(g.nvars != nv for g in gens):
        raise ValueError("mixed variable counts")
    return _monic(_reduced_rows([g.terms for g in gens], order, budget), order.nvars)


def _reduced_rows(rows, order: TermOrder, budget: _Budget, eliminate: bool = False) -> list[dict]:
    """The reduced Groebner basis of the ideal of nonzero ``rows``, as
    primitive integer rows sorted by leading term.  With ``eliminate``,
    under an elimination order, the reduced basis of the elimination
    ideal instead: the rows whose leading term is free of the dropped
    variables, in the remaining ones, reduced under grevlex (see
    :func:`_interreduce`).

    Pair selection follows the sugar strategy of Giovini, Mora, Niesi,
    Robbiano and Traverso (1991).  Each basis element carries a sugar:
    an input generator's is its total degree, and an element a pair
    adds gets the larger of the pair's sugar and its own total degree.
    The pair (i, j) with lcm l has sugar max(s_i + |l| - |lt_i|,
    s_j + |l| - |lt_j|), the degree its S-polynomial would have if the
    input were homogeneous.  Pending S-pairs sit in a heap keyed by
    (sugar, lcm in the order, (i, j)), so the least sugar is reduced
    first, then the smallest lcm, then the lowest index.  For
    homogeneous input under grevlex this is the normal strategy; under
    elimination and lex orders it stops a pair of high degree, whose
    lcm happens to be small in the order, from jumping the queue.  Each
    pair is pushed once, when its second element joins the basis; its
    lcm and sugar never change, since leading terms and sugars are fixed
    once appended.  Coprime leading terms and the chain criterion prune
    pairs.  The rows are taken in the order of :func:`_row_key`.

    The basis is held as primitive integer polynomials with packed
    exponents (see :func:`_reduce` and :class:`_Packing`), so no step
    divides and no step builds a key; only the final interreduction
    unpacks.  The field width comes from the input degrees; a run that
    outgrows it starts over wider, with the budget as it was on entry.
    The S-pairs reduced and those that reduced to zero are counted on
    the budget.
    """
    if not rows:
        return []
    degree = max([sum(e) for r in rows for e in r])
    return _widening(_Packing(order, degree), budget,
                     lambda pk: _buchberger(rows, pk, budget, eliminate))


def _buchberger(rows, pk: _Packing, budget: _Budget, eliminate: bool) -> list[dict]:
    """:func:`_reduced_rows` at one packing."""
    G, ds, fm, V = pk.G, pk.ds, pk.fm, pk.V
    pack = pk._pack
    rows = sorted(([(pack(e), c) for e, c in r.items()] for r in rows), key=_row_key)
    basis: list = []
    lts: list[int] = []
    unpacked: list[Exponent] = []  # the leading exponents as tuples
    excess: list[int] = []  # sugar minus the degree of the leading term
    pending: list[tuple] = []  # heap of (sugar, lcm, (i, j))
    done: list[int] = []  # bit k of done[i] is set once the pair (i, k) is popped

    def append(el, sugar: int) -> None:
        lt = el[0]
        ex = sugar - (lt >> ds & fm)
        t = pk._unpack(lt)
        new = len(lts)
        for k, tk in enumerate(unpacked):
            l = sum(map(mul, map(max, tk, t), V))
            heapq.heappush(pending, ((l >> ds & fm) + max(excess[k], ex), l, (k, new)))
        basis.append(el)
        lts.append(lt)
        unpacked.append(t)
        excess.append(ex)
        done.append(0)

    for row in rows:
        el = _element(_integer_terms(row), pk)
        append(el, el[3] >> ds)
    while pending:
        s, l, (i, j) = heapq.heappop(pending)
        done[i] |= 1 << j
        done[j] |= 1 << i
        if l == lts[i] + lts[j]:
            continue  # coprime leading terms reduce to zero
        # chain criterion: some k whose pairs with i and j are both popped
        # has a leading term dividing l
        lg = l | G
        both = done[i] & done[j]
        while both:
            k = both.bit_length() - 1
            if (lg - lts[k]) & G == G:
                break
            both ^= 1 << k
        if both:
            continue
        budget.spairs += 1
        h = _reduce(_s_pair(basis[i], basis[j], l, pk), basis, pk, budget)
        if h:
            el = _element(h, pk)
            append(el, max(s, el[3] >> ds))
        else:
            budget.zero_reductions += 1
    return _interreduce(basis, pk, budget, eliminate)


@dataclass(frozen=True)
class IdealPresentation:
    """Generators plus the term order they are meant to be read with."""

    generators: tuple[Polynomial, ...]
    order: TermOrder

    def __post_init__(self):
        gens = tuple(g for g in self.generators if not g.is_zero)
        object.__setattr__(self, "generators", gens)
        if any(g.nvars != self.order.nvars for g in gens):
            raise ValueError("generators do not match the order's variable count")

    @property
    def nvars(self) -> int:
        return self.order.nvars


def _grevlex_basis_dimension(rows, n: int, budget: _Budget) -> int:
    """The Krull dimension of the quotient by the ideal whose reduced
    grevlex basis, in ``n`` variables, has the rows ``rows`` (leading
    term first).

    The answer is the largest set of variables no leading term lives on:
    n minus the fewest variables that meet the support of every leading
    term.  That cover is found by branching on the variables of the
    first support not yet met, one budget unit per branch; the unit
    ideal is rejected.
    """
    supports = []
    for r in rows:
        e = next(iter(r))
        if not any(e):
            raise ValueError("the ideal is the unit ideal")
        supports.append(sum(1 << i for i, x in enumerate(e) if x))

    def least_cover(met: int) -> int:
        budget.spend("dimension search")
        rest = next((s for s in supports if not s & met), 0)
        if not rest:
            return 0
        best = n
        while rest:
            v = rest & -rest
            rest ^= v
            best = min(best, 1 + least_cover(met | v))
        return best

    return n - least_cover(0)


def _splits_a_product(rows, n: int, draws, samples: int, budget: _Budget) -> bool:
    """Whether the proper ideal of the reduced grevlex ``rows``, in ``n``
    variables, contains the product of two nonmembers a and b, for
    ``samples`` pairs taken in turn from ``draws``: an iterator of
    polynomials as (exponent, coefficient) pairs with nonzero integer
    coefficients, of total degree at most 2n.

    A nonmember is the first of the next 64 draws outside the ideal; if
    all of them fall inside, as they may for (x1, ..., xn), it is the
    last one plus 1.  So a call reads at most 2 * 64 * ``samples``
    draws.  A draw's membership test stops at the first irreducible
    leading term (``_reduce``'s ``lead_only``): it spends the steps
    :func:`normal_form` would on a member and a prefix of them on a
    nonmember, and leaves r = k*a modulo the ideal for an integer k > 0.
    The test multiplies these representatives: r_a*r_b = k_a*k_b*ab
    modulo the ideal, and k_a*k_b is a unit of Q, so r_a*r_b lies in the
    ideal exactly when ab does, and every decision is the raw product's.
    The fallback is its own representative.

    The rows pack at the grevlex width of total degree 4n, or of the
    rows if higher.  A grevlex step never raises a total degree, since a
    leading term has its element's top degree, so a representative has
    degree at most 2n, as its draw, and the product fits the packing.
    """
    pk = _Packing(grevlex(n), max([4 * n] + [max(map(sum, r)) for r in rows]))
    pack = pk._pack
    elements = [_element(_integer_terms([(pack(e), c) for e, c in r.items()]), pk) for r in rows]

    def nonmember() -> dict[int, int]:
        for draw in islice(draws, 64):
            terms = {pack(e): c for e, c in draw}
            if terms and (rep := _reduce(dict(terms), elements, pk, budget, lead_only=True)):
                return rep
        c = terms.pop(0, 0) + 1  # 0 is the packed constant exponent
        if c:
            terms[0] = c
        return terms

    for _ in range(samples):
        a, b = nonmember(), nonmember()
        product: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e not in product:
                    product[e] = c1 * c2
                elif acc := product[e] + c1 * c2:
                    product[e] = acc
                else:
                    del product[e]
        if not _reduce(product, elements, pk, budget, lead_only=True):
            return True
    return False


# -- parsing and printing --------------------------------------------


# a term is a run of signs, then factors joined by '*' or juxtaposed; a
# factor is a number with an optional '/denominator' or a name with an
# optional '^power', and an empty denominator or power matches as ''
_UNEXPECTED = re.compile(r"[^\s\dA-Za-z_+*^/-]")
_SIGNS = re.compile(r"[\s+-]*")
_FACTOR = re.compile(
    r"\s*(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d*))?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(?P<power>\d*))?)"
)
_STAR = re.compile(r"\s*\*")
_NEXT_TERM = re.compile(r"\s*(?:[+-]|\Z)")


def default_variables(n: int) -> tuple[str, ...]:
    return tuple("x%d" % (i + 1) for i in range(n))


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse '+'/'-' separated terms of '*'-joined (or juxtaposed)
    factors; factors are nonnegative integers, integer ratios like 3/4,
    or variable names with optional '^' powers.  A '*' must be followed
    by a factor, so a product never silently becomes a sum."""
    variables = list(variables)
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    bad = _UNEXPECTED.search(text)
    if bad:
        raise ValueError("unexpected character %r in polynomial" % bad.group())
    terms: dict[Exponent, Fraction] = {}
    pos = 0
    while True:
        signs = _SIGNS.match(text, pos)
        pos = signs.end()
        if pos == len(text):
            if signs.group().strip():
                raise ValueError("dangling sign in polynomial")
            return Polynomial._clean(n, terms)
        factor = _FACTOR.match(text, pos)
        if factor is None:
            raise ValueError("empty term in polynomial")
        coeff = Fraction(-1 if signs.group().count("-") % 2 else 1)
        exp = [0] * n
        while factor:
            num, den, name, power = factor.group("num", "den", "name", "power")
            if name is None:
                if den == "":
                    raise ValueError("expected an integer denominator")
                if den and not int(den):
                    raise ValueError("zero denominator")
                coeff *= Fraction(int(num), int(den)) if den else int(num)
            else:
                if name not in index:
                    raise ValueError("unknown variable %r" % name)
                if power == "":
                    raise ValueError("expected an integer exponent")
                exp[index[name]] += int(power) if power else 1
            pos = factor.end()
            star = _STAR.match(text, pos)
            if star:
                pos = star.end()
            factor = _FACTOR.match(text, pos)
            if star and factor is None:
                raise ValueError("expected a factor after '*'")
        e = tuple(exp)
        acc = terms.get(e, Fraction(0)) + coeff
        if acc:
            terms[e] = acc
        else:
            terms.pop(e, None)
        if not _NEXT_TERM.match(text, pos):
            raise ValueError("expected '+' or '-' between terms")


def format_polynomial(f: Polynomial, variables=None, order: TermOrder | None = None) -> str:
    """Canonical text form: terms in decreasing order, explicit '*'."""
    if f.is_zero:
        return "0"
    variables = list(variables) if variables is not None else list(default_variables(f.nvars))
    order = order or grevlex(f.nvars)
    items = sorted(f.terms.items(), key=lambda t: order.key(t[0]), reverse=True)
    chunks = []
    for pos, (e, c) in enumerate(items):
        neg = c < 0
        mag = -c if neg else c
        factors = []
        if mag != 1 or not any(e):
            factors.append(str(mag))
        for i, x in enumerate(e):
            if x == 1:
                factors.append(variables[i])
            elif x > 1:
                factors.append("%s^%d" % (variables[i], x))
        body = "*".join(factors)
        if pos == 0:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)
