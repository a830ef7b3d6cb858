"""Exact multivariate polynomial arithmetic over Q with Buchberger's
algorithm.

Polynomials are sparse maps from exponent tuples to Fractions.  The
module provides graded reverse lexicographic and lexicographic orders
(with optional variable priority), block elimination orders, reduced
Groebner bases, full normal forms, elimination ideals, saturation by a
polynomial, and the Krull dimension of the quotient ring read off the
leading term ideal.  All loops that can run long honor a reduction-step
budget and fail with :class:`BudgetExceededError` when it is exhausted.

Each order compiles its sort key once and memoizes it per exponent.
Buchberger's algorithm selects pairs by the sugar strategy: pending
S-pairs sit in a heap keyed by their sugar (the degree the S-polynomial
would have after homogenizing the input), then by the order key of
their lcm, each pair pushed once, so picking the next pair costs a
logarithm of the queue instead of a scan of it.  Basis elements are
kept monic, so S-polynomials and reduction steps against them divide by
nothing.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub

Exponent = tuple[int, ...]

DEFAULT_BUDGET = 500_000


class BudgetExceededError(RuntimeError):
    """A computation ran out of its budget of reduction steps and
    dimension-search branches; the message names which one spent the last
    unit."""


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int | None):
        self.remaining = limit

    def spend(self, what: str = "reduction step") -> None:
        if self.remaining is not None:
            self.remaining -= 1
            if self.remaining < 0:
                raise BudgetExceededError("%s budget exceeded" % what)


def _as_budget(budget) -> _Budget:
    if isinstance(budget, _Budget):
        return budget
    return _Budget(DEFAULT_BUDGET if budget is None else int(budget))


# -- term orders -----------------------------------------------------


def _compile_key(kind, nvars, priority, drop):
    """The key function of one order, with no dispatch left per call.

    A grevlex key is ``(degree, negated exponents read backwards)``; a
    lex key is the exponent read in priority order; an elimination key
    is the grevlex key of the dropped block, then that of the rest.
    """
    if kind == "elim":
        rdrop = drop[::-1]
        rkeep = [i for i in reversed(range(nvars)) if i not in drop]

        def raw(e):
            d, k = [e[i] for i in rdrop], [e[i] for i in rkeep]
            return (sum(d), tuple([-x for x in d])), (sum(k), tuple([-x for x in k]))
    elif kind == "grevlex":
        rev = (priority or range(nvars))[::-1]

        def raw(e):
            return sum(e), tuple([-e[i] for i in rev])
    elif priority is None:
        raw = tuple
    else:
        def raw(e):
            return tuple([e[i] for i in priority])
    return raw


class _KeyMemo(dict):
    """Exponent -> order key, computed on the first lookup only."""

    __slots__ = ("raw",)

    def __init__(self, raw):
        super().__init__()
        self.raw = raw

    def __missing__(self, e):
        k = self[e] = self.raw(e)
        return k


@dataclass(frozen=True)
class TermOrder:
    """A monomial order on a fixed number of variables.

    ``kind`` is "grevlex", "lex", or "elim".  ``priority`` permutes the
    variables (most significant first) for the single-block orders.  An
    elimination order compares the ``drop`` block by grevlex first, so
    any leading term free of dropped variables certifies that the whole
    polynomial is.

    ``key(e)`` is the sort key of exponent ``e``: larger means larger in
    the order.  It is compiled once per order and memoized on the
    instance, so an order lives (and its memo grows) only as long as the
    computation that built it.
    """

    kind: str
    nvars: int
    priority: tuple[int, ...] | None = None
    drop: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "elim"):
            raise ValueError("unknown order kind %r" % (self.kind,))
        if self.priority is not None and sorted(self.priority) != list(range(self.nvars)):
            raise ValueError("priority must be a permutation of the variables")
        if self.kind == "elim":
            if not self.drop or sorted(set(self.drop)) != sorted(self.drop):
                raise ValueError("elimination order needs a set of dropped variables")
            if any(i < 0 or i >= self.nvars for i in self.drop):
                raise ValueError("dropped variable out of range")
        raw = _compile_key(self.kind, self.nvars, self.priority, self.drop)
        object.__setattr__(self, "key", _KeyMemo(raw).__getitem__)


def grevlex(nvars: int, priority=None) -> TermOrder:
    return TermOrder("grevlex", nvars, None if priority is None else tuple(priority))


def lex(nvars: int, priority=None) -> TermOrder:
    return TermOrder("lex", nvars, None if priority is None else tuple(priority))


def elimination_order(drop, nvars: int) -> TermOrder:
    return TermOrder("elim", nvars, None, tuple(sorted(set(int(i) for i in drop))))


# -- polynomials -----------------------------------------------------


class Polynomial:
    """Sparse polynomial over Q in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = int(nvars)
        clean: dict[Exponent, Fraction] = {}
        for e, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if not c:
                continue
            e = tuple(int(x) for x in e)
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
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, c, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

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

    def monic(self, order: TermOrder) -> "Polynomial":
        _, c = self.leading(order)
        if c == 1:
            return self
        return self * (1 / c)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e not in out:
                out[e] = c
            elif acc := out[e] + c:
                out[e] = acc
            else:
                del out[e]
        p = Polynomial.zero(self.nvars)
        p.terms = out
        return p

    def __neg__(self) -> "Polynomial":
        p = Polynomial.zero(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = other if type(other) is Fraction else Fraction(other)
            p = Polynomial.zero(self.nvars)
            if c:
                p.terms = {e: c * v for e, v in self.terms.items()}
            return p
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _exp_add(e1, e2)
                if e not in out:
                    out[e] = c1 * c2
                elif acc := out[e] + c1 * c2:
                    out[e] = acc
                else:
                    del out[e]
        p = Polynomial.zero(self.nvars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

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


def _exp_lcm(e: Exponent, d: Exponent) -> Exponent:
    return tuple(map(max, e, d))


def _poly_sort_key(f: Polynomial, order: TermOrder):
    return sorted(((order.key(e), c) for e, c in f.terms.items()), reverse=True)


# -- reduction and Buchberger ----------------------------------------


def normal_form(f: Polynomial, basis, order: TermOrder, budget=None) -> Polynomial:
    """Full remainder of f modulo the basis: no remainder term is
    divisible by any basis leading term.  Deterministic: the largest
    reducible term is rewritten by the first matching basis element."""
    budget = _as_budget(budget)
    basis = [g for g in basis if not g.is_zero]
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
    out = Polynomial.zero(f.nvars)
    out.terms = remainder
    return out


def _shifted_terms(f: Polynomial, shift: Exponent, lc: Fraction) -> dict:
    """The terms of x^shift * f / lc; a monic basis element has lc 1 and
    is shifted without any division."""
    if lc == 1:
        return {_exp_add(e, shift): c for e, c in f.terms.items()}
    scale = 1 / lc
    return {_exp_add(e, shift): scale * c for e, c in f.terms.items()}


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    fe, fc = f.leading(order)
    ge, gc = g.leading(order)
    if f.nvars != g.nvars:
        raise ValueError("mixed variable counts")
    l = _exp_lcm(fe, ge)
    out = _shifted_terms(f, _exp_sub(l, fe), fc)
    for e, c in _shifted_terms(g, _exp_sub(l, ge), gc).items():
        if e not in out:
            out[e] = -c
        elif acc := out[e] - c:
            out[e] = acc
        else:
            del out[e]
    p = Polynomial.zero(f.nvars)
    p.terms = out
    return p


def _interreduce(basis: list[Polynomial], order: TermOrder, budget: _Budget) -> list[Polynomial]:
    pairs = [(g.leading(order)[0], g) for g in basis]
    pairs.sort(key=lambda t: order.key(t[0]))
    kept: list[tuple[Exponent, Polynomial]] = []
    for e, g in pairs:
        if not any(_divides(ke, e) for ke, _ in kept):
            kept.append((e, g))
    final = []
    polys = [g for _, g in kept]
    for i, g in enumerate(polys):
        others = polys[:i] + polys[i + 1:]
        r = normal_form(g, others, order, budget)
        final.append(r.monic(order))
    final.sort(key=lambda g: order.key(g.leading(order)[0]))
    return final


def buchberger(generators, order: TermOrder, budget=None) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis of the ideal, sorted by leading term.

    Pair selection follows the sugar strategy of Giovini, Mora, Niesi,
    Robbiano and Traverso (1991).  Each basis element carries a sugar:
    an input generator's is its total degree, and an element a pair
    adds gets the larger of the pair's sugar and its own total degree.
    The pair (i, j) with lcm l has sugar max(s_i + |l| - |lt_i|,
    s_j + |l| - |lt_j|), the degree its S-polynomial would have if the
    input were homogeneous.  Pending S-pairs sit in a heap keyed by
    (sugar, order key of the lcm, (i, j)), so the least sugar is reduced
    first, then the smallest lcm, then the lowest index.  For
    homogeneous input under grevlex this is the normal strategy; under
    elimination and lex orders it stops a pair of high degree, whose
    lcm happens to be small in the order, from jumping the queue.  Each
    pair is pushed once, when its second element joins the basis; its
    lcm and sugar never change, since leading terms and sugars are fixed
    once appended.  Coprime leading terms and the chain criterion prune
    pairs.
    """
    budget = _as_budget(budget)
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    nv = gens[0].nvars
    if any(g.nvars != nv for g in gens):
        raise ValueError("mixed variable counts")
    key = order.key
    gens = sorted(gens, key=lambda g: _poly_sort_key(g, order))
    basis: list[Polynomial] = []
    lts: list[Exponent] = []
    sugars: list[int] = []
    pending: list[tuple] = []  # heap of (sugar, key(lcm), (i, j), lcm)
    done: set[tuple[int, int]] = set()

    def append(g: Polynomial, sugar: int) -> None:
        basis.append(g.monic(order))
        lt = g.leading(order)[0]
        new = len(lts)
        excess = sugar - sum(lt)
        for k, lk in enumerate(lts):
            l = _exp_lcm(lk, lt)
            s = sum(l) + max(sugars[k] - sum(lk), excess)
            heapq.heappush(pending, (s, key(l), (k, new), l))
        lts.append(lt)
        sugars.append(sugar)

    for g in gens:
        append(g, g.total_degree())
    while pending:
        s, _, (i, j), l = heapq.heappop(pending)
        done.add((i, j))
        if l == _exp_add(lts[i], lts[j]):
            continue  # coprime leading terms reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(lts[k], l):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in done and pjk in done:
                skip = True
                break
        if skip:
            continue
        h = normal_form(s_polynomial(basis[i], basis[j], order), basis, order, budget)
        if not h.is_zero:
            append(h, max(s, h.total_degree()))
    return tuple(_interreduce(basis, order, budget))


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


def groebner_basis(ideal: IdealPresentation, budget=None) -> tuple[Polynomial, ...]:
    return buchberger(ideal.generators, ideal.order, budget)


def _extend(f: Polynomial, extra: int) -> Polynomial:
    return Polynomial(f.nvars + extra, {e + (0,) * extra: c for e, c in f.terms.items()})


def _restrict(f: Polynomial, nvars: int, kept: list[int]) -> Polynomial:
    terms = {}
    for e, c in f.terms.items():
        terms[tuple(e[i] for i in kept)] = c
    return Polynomial(nvars, terms)


def eliminate(ideal: IdealPresentation, drop, budget=None) -> IdealPresentation:
    """Intersection with the subring on the remaining variables.

    The result keeps the ambient variable count and the original order;
    dropped variables simply no longer occur in the generators.
    """
    budget = _as_budget(budget)
    drop = sorted(set(int(i) for i in drop))
    if not drop:
        return IdealPresentation(buchberger(ideal.generators, ideal.order, budget), ideal.order)
    order = elimination_order(drop, ideal.nvars)
    gb = buchberger(ideal.generators, order, budget)
    kept = [g for g in gb if all(e[i] == 0 for e in g.terms for i in drop)]
    return IdealPresentation(buchberger(kept, ideal.order, budget), ideal.order)


def saturate(ideal: IdealPresentation, f: Polynomial, budget=None) -> IdealPresentation:
    """Saturation by f: everything some power of f multiplies into the ideal.

    Rabinowitsch construction: adjoin w with w*f = 1, eliminate w, read
    the result back in the original variables.
    """
    budget = _as_budget(budget)
    n = ideal.nvars
    if f.nvars != n:
        raise ValueError("polynomial does not match the ideal's variables")
    if f.is_zero:
        raise ValueError("cannot saturate by zero")
    gens = [_extend(g, 1) for g in ideal.generators]
    w = Polynomial.variable(n, n + 1)
    gens.append(w * _extend(f, 1) - Polynomial.constant(1, n + 1))
    big = IdealPresentation(tuple(gens), grevlex(n + 1))
    elim = eliminate(big, [n], budget)
    restricted = tuple(_restrict(g, n, list(range(n))) for g in elim.generators)
    return IdealPresentation(buchberger(restricted, ideal.order, budget), ideal.order)


def ideal_dimension(ideal: IdealPresentation, budget=None) -> int:
    """Krull dimension of the quotient by the ideal.

    The leading terms of a degree-compatible (grevlex) basis are taken,
    and the answer is the largest set of variables none of them lives
    on: n minus the fewest variables that meet the support of every
    leading term.  That cover is found by branching on the variables of
    the first support not yet met, one budget unit per branch; the unit
    ideal is rejected.
    """
    budget = _as_budget(budget)
    deg_order = grevlex(ideal.nvars)
    return _grevlex_basis_dimension(buchberger(ideal.generators, deg_order, budget),
                                    deg_order, budget)


def _grevlex_basis_dimension(gb, deg_order: TermOrder, budget: _Budget) -> int:
    """:func:`ideal_dimension` of the ideal whose reduced basis under
    ``deg_order``, a plain grevlex order, is ``gb``."""
    n = deg_order.nvars
    supports = []
    for g in gb:
        e = g.leading(deg_order)[0]
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


# -- parsing and printing --------------------------------------------


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^/]))")


def default_variables(n: int) -> tuple[str, ...]:
    return tuple("x%d" % (i + 1) for i in range(n))


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse '+'/'-' separated terms of '*'-joined (or juxtaposed)
    factors; factors are nonnegative integers, integer ratios like 3/4,
    or variable names with optional '^' powers."""
    variables = list(variables)
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError("unexpected character %r in polynomial" % text[pos:].lstrip()[0])
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()

    terms: dict[Exponent, Fraction] = {}
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None)

    first = True
    while i < len(tokens):
        sign = Fraction(1)
        kind, val = peek()
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            i += 1
            kind, val = peek()
        if kind is None:
            if first and sign == 1 and not tokens:
                break
            raise ValueError("dangling sign in polynomial")
        coeff = sign
        exp = [0] * n
        saw_factor = False
        while True:
            kind, val = peek()
            if kind == "num":
                i += 1
                num = int(val)
                k2, v2 = peek()
                if k2 == "op" and v2 == "/":
                    i += 1
                    k3, v3 = peek()
                    if k3 != "num":
                        raise ValueError("expected an integer denominator")
                    if not int(v3):
                        raise ValueError("zero denominator")
                    i += 1
                    coeff *= Fraction(num, int(v3))
                else:
                    coeff *= num
                saw_factor = True
            elif kind == "name":
                if val not in index:
                    raise ValueError("unknown variable %r" % val)
                i += 1
                power = 1
                k2, v2 = peek()
                if k2 == "op" and v2 == "^":
                    i += 1
                    k3, v3 = peek()
                    if k3 != "num":
                        raise ValueError("expected an integer exponent")
                    i += 1
                    power = int(v3)
                exp[index[val]] += power
                saw_factor = True
            else:
                break
            kind, val = peek()
            if kind == "op" and val == "*":
                i += 1
                continue
            if kind in ("num", "name"):
                continue
            break
        if not saw_factor:
            raise ValueError("empty term in polynomial")
        e = tuple(exp)
        acc = terms.get(e, Fraction(0)) + coeff
        if acc:
            terms[e] = acc
        else:
            terms.pop(e, None)
        first = False
        kind, val = peek()
        if kind is None:
            break
        if not (kind == "op" and val in "+-"):
            raise ValueError("expected '+' or '-' between terms")
    return Polynomial(n, terms)


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
