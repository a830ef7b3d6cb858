"""Reference routes that only the test suite calls.

Two kinds live here.  Brute-force oracles that no benchmark check needs:
facets from ray subsets, membership by Fourier-Motzkin, faces by
intersection and coset counts, which import nothing from the package.
And the slow paths: a fast path keeps the route it replaced here as its
reference (the rational Buchberger routes, the token parser, the
full-basis hull passes and primality samples, the box scans, the
recursive region sweep, the Gorenstein test's two cross-checks, the
eager elimination, the xgcd Hermite form, the two-sided Smith form and
the unit quotient's Smith route), built on the package's own primitives,
so a test can run both on the same inputs.  The Hermite and Smith
references keep their own row and column operations, so they share no
step with the kernels they check.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from math import gcd

from monograde import divisorial, groebner
from monograde.exact_linalg import (
    BudgetExceededError,
    IntMatrix,
    _as_budget,
    _as_matrix,
    _divmod,
    _dot,
    _eliminate,
    elementary_divisors,
    kernel_basis,
    rank,
    row_lattice_basis,
)
from monograde.monoid import _guard_box
from monograde.multigraded import NotPrimeError, PrimeAnalysis
from oracles import (
    _fm_eliminate,
    dot,
    frac_rref,
    frac_solve_unique,
    make_primitive,
    region_tight_points,
    true_facets,
)


# -- cone oracles ------------------------------------------------------


def subset_facets(rays):
    """Facet forms of a full-dimensional cone from subsets of its rays.

    Every (d-1)-subset of the rays that spans a hyperplane gives a
    primitive normal; it is a facet form, oriented inward, when every
    ray lies on one side of that hyperplane.  Exact and exhaustive, and
    cheap enough for rank 5-6 cones with a dozen rays, where
    Fourier-Motzkin blows up.
    """
    rays = [tuple(map(int, r)) for r in rays]
    d = len(rays[0])
    out = set()
    for subset in itertools.combinations(rays, d - 1):
        rank, pivots, rows = frac_rref(subset)
        if rank != d - 1:
            continue
        free = next(j for j in range(d) if j not in pivots)
        normal = [Fraction(0)] * d
        normal[free] = Fraction(1)
        for i, p in enumerate(pivots):
            normal[p] = -rows[i][free]
        denom = math.lcm(*(x.denominator for x in normal))
        normal = make_primitive([int(x * denom) for x in normal])
        vals = [dot(normal, r) for r in rays]
        if all(v >= 0 for v in vals):
            out.add(normal)
        elif all(v <= 0 for v in vals):
            out.add(tuple(-x for x in normal))
    return sorted(out)


def extreme_by_facets(rays, forms):
    """The primitive rays whose tight facet forms span a hyperplane."""
    d = len(forms[0])
    out = set()
    for r in rays:
        tight = [f for f in forms if dot(f, r) == 0]
        if tight and frac_rref(tight)[0] == d - 1:
            out.add(make_primitive(r))
    return sorted(out)


def fm_member(rays, x):
    """Exact membership of x in cone(rays) by affine feasibility."""
    rays = [tuple(map(int, r)) for r in rays]
    x = tuple(map(int, x))
    d = len(rays[0])
    m = len(rays)
    rows = []
    for j in range(m):
        rows.append(tuple(1 if k == j else 0 for k in range(m)) + (0,))
    for i in range(d):
        col = tuple(rays[j][i] for j in range(m))
        rows.append(col + (-x[i],))
        rows.append(tuple(-c for c in col) + (x[i],))
    for j in range(m - 1, -1, -1):
        rows = _fm_eliminate(rows, j)
    return all(r[-1] >= 0 for r in rows if not any(r[:-1]))


def cone_faces(incidence):
    """The nonzero proper faces of a cone, each as the sorted tuple of the
    indices of the rays it holds, from the facet incidence: one set of
    tight ray indices per facet.  A proper face is the intersection of
    the facets that contain it, so closing the facets under intersection
    finds every one; the empty intersection, the zero face, is left out."""
    facets = set(map(frozenset, incidence))
    faces, frontier = set(facets), set(facets)
    while frontier:
        frontier = {a & b for a in frontier for b in facets} - faces - {frozenset()}
        faces |= frontier
    faces.discard(frozenset())
    return sorted(tuple(sorted(f)) for f in faces)


def componentwise_minimal(vectors):
    """The vectors that no other one of the set is at most in every
    coordinate, each once, sorted."""
    vs = set(map(tuple, vectors))
    return sorted(v for v in vs if not any(w != v and all(map(operator.le, w, v)) for w in vs))


# -- abelian group oracles ---------------------------------------------


def coset_count(columns_matrix, box):
    """Number of cosets of the column span inside a box of Z^s.

    Only meaningful when the quotient is finite and small; the box must
    be large enough to hit every class, which holds as soon as it spans
    a fundamental domain.
    """
    mat = [list(map(int, row)) for row in columns_matrix]
    s = len(mat)
    n = len(mat[0]) if s else 0

    def in_span(delta):
        sol = frac_solve_unique([row[:] for row in mat], delta) if s == n else None
        if sol is None:
            # fall back to a bounded integer search
            for coeffs in itertools.product(range(-3 * box, 3 * box + 1), repeat=n):
                if all(
                    sum(mat[i][j] * coeffs[j] for j in range(n)) == delta[i]
                    for i in range(s)
                ):
                    return True
            return False
        return all(f.denominator == 1 for f in sol)

    reps = []
    for pt in itertools.product(range(-box, box + 1), repeat=s):
        if not any(in_span([a - b for a, b in zip(pt, rep)]) for rep in reps):
            reps.append(pt)
    return len(reps)


# -- canonical module oracles ------------------------------------------


def squarefree_divisor_canonical(rays, gens, functional):
    """ω's minimal generators by its definition through Ext, with the
    Betti number in each of their degrees: {g: β_{c, Σa - g}} over the
    interior g where it is nonzero.  M is the lattice points of the
    pointed full-dimensional cone of ``rays`` in Z^d, and A = ``gens``
    any finite generating set of M.

    K[M] is Cohen-Macaulay (Hochster 1972).  So with S = Q[x_a : a in A],
    deg x_a = a, and c = |A| - d, the dual of the minimal Z^d-graded
    free resolution of K[M] over S resolves ω = Ext^c_S(K[M], S(-Σa)),
    whose minimal generators sit in the degrees Σa - b, one for each
    unit of β_{c,b}.  Hochster's formula gives β_{c,b} =
    dim H~_{c-1}(Δ_b; Q), where Δ_b is the complex of the G ⊆ A with
    b - Σ_G in M (Miller and Sturmfels, *Combinatorial Commutative
    Algebra*, 2005, ch. 9).  Membership is read off the facets of
    ``oracles.true_facets``, and the ranks by sparse integer elimination.
    The candidates are the interior g with b = Σa - g in M, swept by
    :func:`recursive_region_points` between the facet values 1 and
    F(Σa).  Then ℓ(g) <= ℓ(Σa) for the ``functional`` ℓ, positive on
    the cone, so the sweep's box is that of the polytope
    {F >= 0, ℓ <= ℓ(Σa)}, whose vertices are 0 and the rays scaled to
    ℓ(Σa).
    """
    d, n = len(rays[0]), len(gens)
    forms = true_facets(rays)
    gen_vals = [tuple(dot(f, a) for f in forms) for a in gens]
    sums = {}  # size -> [(G, F(Σ_G))] over the G ⊆ A of that size

    def subsets(size):
        if size not in sums:
            sums[size] = [] if size < 0 else [
                (g, tuple(map(sum, zip((0,) * len(forms), *(gen_vals[i] for i in g)))))
                for g in itertools.combinations(range(n), size)]
        return sums[size]

    def boundary_rank(upper, lower):
        """The rank over Q of the boundary map from the faces ``upper`` to
        the faces ``lower``, one size smaller: its sparse integer rows are
        echeloned one by one, each reduced by b * row - a * pivot at its
        least column and made primitive, and the rank is the number of
        pivots."""
        if not upper or not lower:
            return 0
        index = {face: j for j, face in enumerate(lower)}
        pivots = {}
        for face in upper:
            row = {index[face[:i] + face[i + 1:]]: (-1) ** i for i in range(len(face))}
            while row:
                lead = min(row)
                if lead not in pivots:
                    pivots[lead] = row
                    break
                pivot, a = pivots[lead], row[lead]
                b = pivot[lead]
                row = {k: b * v for k, v in row.items()}
                for k, v in pivot.items():
                    row[k] = row.get(k, 0) - a * v
                row = {k: v for k, v in row.items() if v}
                content = gcd(*row.values()) if row else 1
                row = {k: v // content for k, v in row.items()}
        return len(pivots)

    total = [sum(col) for col in zip(*gens)]
    total_vals = tuple(dot(f, total) for f in forms)
    top = dot(functional, total)
    lo = [min([0] + [r[i] * top // dot(functional, r) for r in rays]) for i in range(d)]
    hi = [max([0] + [-(-r[i] * top // dot(functional, r)) for r in rays]) for i in range(d)]
    c = n - d
    betti = {}
    for g, g_vals in recursive_region_points(forms, [1] * len(forms), lo, hi, total_vals):
        b_vals = tuple(x - y for x, y in zip(total_vals, g_vals))
        # faces of Δ_b by size; face sizes c - 1, c, c + 1 give H~_{c-1}
        faces = [[face for face, vals in subsets(size) if all(map(operator.ge, b_vals, vals))]
                 for size in (c - 1, c, c + 1)]
        dim = len(faces[1]) - boundary_rank(faces[1], faces[0]) - boundary_rank(faces[2], faces[1])
        if dim:
            betti[g] = dim
    return betti


# -- slow paths kept as references for groebner ------------------------


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^/]))")


def token_parse_polynomial(text: str, variables) -> groebner.Polynomial:
    """Parse '+'/'-' separated terms of '*'-joined (or juxtaposed)
    factors; factors are nonnegative integers, integer ratios like 3/4,
    or variable names with optional '^' powers.  A '*' must be followed
    by a factor, so a product never silently becomes a sum.

    The token-stream reader that ``groebner.parse_polynomial`` replaced,
    kept as the spec of its language and of the order of its errors."""
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

    terms: dict[groebner.Exponent, Fraction] = {}
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
                if peek()[0] not in ("num", "name"):
                    raise ValueError("expected a factor after '*'")
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
    return groebner.Polynomial._clean(n, terms)


def grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def reference_key(order, e):
    """``order.key(e)`` by dispatch on the order's kind on every call."""
    if order.kind == "elim":
        keep = tuple(i for i in range(order.nvars) if i not in set(order.drop))
        return (
            grevlex_key(tuple(e[i] for i in order.drop)),
            grevlex_key(tuple(e[i] for i in keep)),
        )
    if order.kind == "grevlex":
        return grevlex_key(e)
    return e


def _exp_lcm(e, d):
    return tuple(map(max, e, d))


def poly_sum(*fs):
    """The sum of polynomials in one number of variables."""
    terms = {}
    for f in fs:
        for e, c in f.terms.items():
            terms[e] = terms.get(e, 0) + c
    return groebner.Polynomial(fs[0].nvars, terms)


def poly_product(f, g):
    """The product of a polynomial with a polynomial or a rational."""
    if not isinstance(g, groebner.Polynomial):
        return groebner.Polynomial(f.nvars, {e: c * g for e, c in f.terms.items()})
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = groebner._exp_add(e1, e2)
            terms[e] = terms.get(e, 0) + c1 * c2
    return groebner.Polynomial(f.nvars, terms)


def monic(f, order):
    return poly_product(f, 1 / f.leading(order)[1])


def _shifted_terms(f, shift, lc):
    """The terms of x^shift * f / lc; a monic basis element has lc 1 and
    is shifted without any division."""
    if lc == 1:
        return {groebner._exp_add(e, shift): c for e, c in f.terms.items()}
    scale = 1 / lc
    return {groebner._exp_add(e, shift): scale * c for e, c in f.terms.items()}


def s_polynomial(f, g, order):
    """The S-polynomial of f and g over Q, each divided by its leading
    coefficient: the rational step that ``groebner._s_pair`` replaced."""
    fe, fc = f.leading(order)
    ge, gc = g.leading(order)
    if f.nvars != g.nvars:
        raise ValueError("mixed variable counts")
    l = _exp_lcm(fe, ge)
    out = _shifted_terms(f, groebner._exp_sub(l, fe), fc)
    for e, c in _shifted_terms(g, groebner._exp_sub(l, ge), gc).items():
        if e not in out:
            out[e] = -c
        elif acc := out[e] - c:
            out[e] = acc
        else:
            del out[e]
    return groebner.Polynomial(f.nvars, out)


def poly_sort_key(f, order):
    """The order in which Buchberger's algorithm takes its generators:
    by their terms, largest first, compared by order key and then by
    coefficient."""
    return sorted(((order.key(e), c) for e, c in f.terms.items()), reverse=True)


def rational_interreduce(basis, order, budget, eliminate=False):
    """The reduced basis from a list of monic rational polynomials that
    generate the ideal as a Groebner basis, by :func:`groebner.normal_form`:
    ``groebner._interreduce`` as it was before the integer kernel.  With
    ``eliminate``, under an elimination order, only the elements whose
    leading term is free of the dropped variables are kept and reduced
    among themselves, still in all the variables."""
    pairs = [(g.leading(order)[0], g) for g in basis]
    if eliminate:
        pairs = [(e, g) for e, g in pairs if not any(e[i] for i in order.drop)]
    pairs.sort(key=lambda t: order.key(t[0]))
    kept = []
    for e, g in pairs:
        if not any(groebner._divides(ke, e) for ke, _ in kept):
            kept.append((e, g))
    final = []
    polys = [g for _, g in kept]
    for i, g in enumerate(polys):
        others = polys[:i] + polys[i + 1:]
        r = groebner.normal_form(g, others, order, budget)
        final.append(monic(r, order))
    final.sort(key=lambda g: order.key(g.leading(order)[0]))
    return final


def rational_buchberger(generators, order, budget=None, eliminate=False, strategy="sugar"):
    """``groebner.buchberger`` as it was before the integer kernel: the
    same sugar heap over monic rational polynomials, each pair reduced by
    :func:`groebner.normal_form` of :func:`s_polynomial`, and the basis
    interreduced by :func:`rational_interreduce` (with ``eliminate``
    passed on).  Every integer polynomial of the kernel is a positive
    multiple of the rational one here, so both routes must reduce the
    same pairs in the same order, spend the same steps, count the same
    S-pairs and zero reductions on the budget and return the same basis.
    With ``strategy="normal"`` the heap is keyed by the order key of the
    lcm alone, as ``buchberger`` was before sugar: the reduced basis is
    unique, so it must agree, and the S-pairs show what sugar saves.
    ``s_polynomial`` is looked up in this module and ``normal_form`` in
    ``groebner``, so a test can count the calls.
    """
    budget = _as_budget(budget)
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    nv = gens[0].nvars
    if any(g.nvars != nv for g in gens):
        raise ValueError("mixed variable counts")
    key = order.key
    gens = sorted(gens, key=lambda g: poly_sort_key(g, order))
    basis = []
    lts = []
    sugars = []
    pending = []  # heap of (sugar or 0, key(lcm), (i, j), lcm)
    done = set()

    def append(g, sugar):
        basis.append(monic(g, order))
        lt = g.leading(order)[0]
        new = len(lts)
        excess = sugar - sum(lt)
        for k, lk in enumerate(lts):
            l = _exp_lcm(lk, lt)
            s = sum(l) + max(sugars[k] - sum(lk), excess)
            heapq.heappush(pending, (s if strategy == "sugar" else 0, key(l), (k, new), l))
        lts.append(lt)
        sugars.append(sugar)

    for g in gens:
        append(g, g.total_degree())
    while pending:
        s, _, (i, j), l = heapq.heappop(pending)
        done.add((i, j))
        if l == groebner._exp_add(lts[i], lts[j]):
            continue  # coprime leading terms reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not groebner._divides(lts[k], l):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in done and pjk in done:
                skip = True
                break
        if skip:
            continue
        budget.spairs += 1
        h = groebner.normal_form(s_polynomial(basis[i], basis[j], order),
                                 basis, order, budget)
        if not h.is_zero:
            append(h, max(s, h.total_degree()))
        else:
            budget.zero_reductions += 1
    return tuple(rational_interreduce(basis, order, budget, eliminate))


def reference_buchberger(generators, order, budget):
    """``groebner.buchberger`` selecting each pair by ``min`` over the
    whole pending set, with keys from :func:`reference_key` and each
    pair's sugar recomputed from the sugars of its two elements.

    S-polynomials go through this module's ``s_polynomial``, and
    reductions and the final interreduction through the ``groebner``
    module's globals, so a test that counts them there counts both
    routes alike.
    """
    def key(e):
        return reference_key(order, e)

    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    gens = sorted(gens, key=lambda g: sorted(((key(e), c) for e, c in g.terms.items()),
                                             reverse=True))
    basis, lts, sugars = [], [], []
    for g in gens:
        basis.append(monic(g, order))
        lts.append(g.leading(order)[0])
        sugars.append(max(sum(e) for e in g.terms))
    pending, done = set(), set()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            pending.add((i, j))

    def lcm(p):
        return tuple(max(a, b) for a, b in zip(lts[p[0]], lts[p[1]]))

    def sugar(p):
        l = sum(lcm(p))
        return max(sugars[k] + l - sum(lts[k]) for k in p)

    def divides(d, e):
        return all(a <= b for a, b in zip(d, e))

    while pending:
        i, j = min(pending, key=lambda p: (sugar(p), key(lcm(p)), p))
        pending.discard((i, j))
        done.add((i, j))
        l = lcm((i, j))
        if l == tuple(a + b for a, b in zip(lts[i], lts[j])):
            continue
        if any(k not in (i, j) and divides(lts[k], l)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(basis))):
            continue
        h = groebner.normal_form(s_polynomial(basis[i], basis[j], order),
                                 basis, order, budget)
        if h.is_zero:
            continue
        basis.append(monic(h, order))
        lts.append(h.leading(order)[0])
        sugars.append(max(sugar((i, j)), max(sum(e) for e in h.terms)))
        new = len(basis) - 1
        for k in range(new):
            pending.add((k, new))
    return tuple(rational_interreduce(basis, order, budget))


def reference_ideal_dimension(ideal):
    """The quotient dimension that ``groebner._grevlex_basis_dimension``
    reads off the reduced grevlex rows, by the route it replaced: every
    set of variables is tried, largest first, until none of the leading
    terms of the grevlex basis lives on it."""
    n = ideal.nvars
    deg_order = groebner.grevlex(n)
    gb = groebner.buchberger(ideal.generators, deg_order)
    if not gb:
        return n
    exps = []
    for g in gb:
        e = g.leading(deg_order)[0]
        if not any(e):
            raise ValueError("the ideal is the unit ideal")
        exps.append(e)
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            keep = set(subset)
            if not any(all((x == 0 or i in keep) for i, x in enumerate(e)) for e in exps):
                return size
    return 0


def rows_route(route):
    """``groebner._reduced_rows`` by an oracle ``route`` such as
    :func:`rational_buchberger`, under either strategy.
    Each row becomes a rational polynomial (a Fraction row as given, an
    int row as its monic form, as the kernel orders them), and each
    monic polynomial of the answer a primitive integer row, leading term
    first; with ``eliminate`` the route keeps the elements free of the
    dropped variables, and their rows are read in the remaining ones."""
    def reduced_rows(rows, order, budget, eliminate=False):
        polys = [row_polynomial(row, order.nvars) for row in rows]
        out = [primitive_row(g, order) for g in route(polys, order, budget, eliminate)]
        return [eliminated_row(row, order) for row in out] if eliminate else out

    return reduced_rows


def eliminated_row(row, order):
    """A row free of the variables an elimination order drops, read in
    the remaining variables."""
    keep = [i for i in range(order.nvars) if i not in order.drop]
    return {tuple([e[i] for i in keep]): c for e, c in row.items()}


def row_polynomial(row, nvars):
    """The rational polynomial a kernel row stands for: a Fraction row as
    given, an int row made monic by its first coefficient."""
    lc = next(iter(row.values()))
    if type(lc) is int:
        row = {e: Fraction(c, lc) for e, c in row.items()}
    return groebner.Polynomial(nvars, row)


def primitive_row(f, order):
    """The primitive integer row of a nonzero polynomial: its leading
    term first, with a positive coefficient."""
    lt, lc = f.leading(order)
    m = math.lcm(*(c.denominator for c in f.terms.values()))
    ints = {e: int(c * m) for e, c in f.terms.items()}
    d = gcd(*ints.values()) * (1 if lc > 0 else -1)
    row = {lt: ints[lt] // d}
    row.update((e, c // d) for e, c in ints.items() if e != lt)
    return row


# -- slow paths kept as references for multigraded ----------------------


def substituted_rows(rows, weights):
    """The rows a hull pass for one weight row hands the elimination:
    x_j -> t^(w_j) x_j on each row, a negative weighted degree read as a
    power of u, and the relation t*u - 1 appended."""
    n = len(weights)
    subst = []
    for row in rows:
        terms = {}
        for e, c in row.items():
            d = sum(x * w for x, w in zip(e, weights))
            terms[e + ((d, 0) if d >= 0 else (0, -d))] = c
        subst.append(terms)
    subst.append({(0,) * n + (1, 1): 1, (0,) * (n + 2): -1})
    return subst


def full_hull_rows(rows, spec, budget, eliminations=None):
    """``multigraded._hull_rows`` as it was before a pass asked the kernel
    for the eliminated rows alone or read the weighted degrees of its
    rows: every pass runs, also on no rows, and takes the whole reduced
    basis under the elimination order from ``groebner._reduced_rows``,
    keeps its t,u-free rows and re-bases them under grevlex.  Each pass
    that gets rows first appends its (substituted rows, elimination
    order) to ``eliminations``, if given."""
    n = spec.nvars
    elim = groebner.elimination_order((n, n + 1), n + 2)
    for axis in range(spec.rank):
        subst = substituted_rows(rows, spec.weights(axis))
        if eliminations is not None and rows:
            eliminations.append((subst, elim))
        gb = groebner._reduced_rows(subst, elim, budget)
        kept = [{e[:n]: c for e, c in row.items()} for row in gb if not any(next(iter(row))[n:])]
        rows = groebner._reduced_rows(kept, groebner.grevlex(n), budget)
    return rows


def hull_eliminations(rows, spec, budget):
    """(substituted rows, elimination order) of each pass of
    :func:`full_hull_rows` on ``rows`` that gets rows, whatever their
    weighted degrees decide, up to the pass in which ``budget`` runs
    out: the inputs the unskipped passes hand the kernel, for tests that
    harvest elimination cases."""
    eliminations = []
    try:
        full_hull_rows(rows, spec, _as_budget(budget), eliminations)
    except BudgetExceededError:
        pass
    return eliminations


def weighted_degrees(terms, weights):
    """The set of weighted degrees of the exponents of ``terms``."""
    return {sum(x * w for x, w in zip(e, weights)) for e in terms}


def polynomial_graded_hull_z(ideal, weights, budget):
    """One weight row's hull pass, ``multigraded._hull_pass``, on rational
    polynomials.  The weighted degrees decide two cases as the pass does:
    when every generator is homogeneous for the weight, the hull is the
    ideal, read as its reduced grevlex basis by
    :func:`rational_buchberger`; when the one generator is not, the hull
    is zero.  Otherwise the substituted generators go to the
    elimination basis by :func:`rational_buchberger`, with only its
    t,u-free elements interreduced, and those are read as the hull's
    reduced grevlex basis."""
    n = ideal.nvars
    wt = tuple(weights)
    gens = ideal.generators
    if all(len(weighted_degrees(g.terms, wt)) == 1 for g in gens):
        return groebner.IdealPresentation(rational_buchberger(gens, groebner.grevlex(n), budget),
                                          groebner.grevlex(n))
    if len(gens) == 1:
        return groebner.IdealPresentation((), groebner.grevlex(n))
    ti, ui = n, n + 1
    subst = [groebner.Polynomial(n + 2, terms)
             for terms in substituted_rows([g.terms for g in gens], wt)]
    order = groebner.elimination_order((ti, ui), n + 2)
    kept = []
    for g in rational_buchberger(subst, order, budget, eliminate=True):
        assert all(e[ti] == 0 and e[ui] == 0 for e in g.terms)
        kept.append(groebner.Polynomial(n, {e[:n]: c for e, c in g.terms.items()}))
    return groebner.IdealPresentation(tuple(kept), groebner.grevlex(n))


def polynomial_graded_hull(ideal, spec, budget):
    """``multigraded.graded_hull`` by :func:`polynomial_graded_hull_z`:
    the passes stop at a zero hull, and the last one's basis is re-based
    by the public ``groebner.buchberger`` when the ideal's order is not
    grevlex."""
    order = ideal.order
    for axis in range(spec.rank):
        if not ideal.generators:
            break
        ideal = polynomial_graded_hull_z(ideal, spec.weights(axis), budget)
    gens = ideal.generators
    if order.kind != "grevlex":
        gens = groebner.buchberger(gens, order, budget)
    return groebner.IdealPresentation(gens, order)


def polynomial_basis_dimension(gb, order, budget):
    """``groebner._grevlex_basis_dimension`` read off the leading terms of
    rational polynomials, one budget unit per branch of the cover search."""
    n = order.nvars
    supports = []
    for g in gb:
        e = g.leading(order)[0]
        if not any(e):
            raise ValueError("the ideal is the unit ideal")
        supports.append(sum(1 << i for i, x in enumerate(e) if x))

    def least_cover(met):
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


def lead_normal_form(f, gb, order, budget):
    """``groebner.normal_form`` stopped at the first irreducible leading
    term: what is left then, zero exactly when ``f`` lies in the ideal of
    the Groebner basis ``gb``."""
    lts = [(g, *g.leading(order)) for g in gb]
    work = dict(f.terms)
    while work:
        e = max(work, key=order.key)
        hit = next((h for h in lts if all(map(operator.le, h[1], e))), None)
        if hit is None:
            break
        budget.spend()
        g, ge, gc = hit
        ratio = work.pop(e) / gc
        for e2, c2 in g.terms.items():
            if e2 != ge:
                em = tuple(x + y - z for x, y, z in zip(e2, e, ge))
                c = work.get(em, 0) - ratio * c2
                if c:
                    work[em] = c
                else:
                    work.pop(em, None)
    return groebner.Polynomial(f.nvars, work)


def polynomial_random_nonmember(rng, n, gb, order, budget):
    """A nonmember of ``groebner._splits_a_product`` on rational
    polynomials: (sample, representative), drawn with ``randint``, the
    representative what :func:`lead_normal_form` leaves; the fallback,
    the last draw plus 1, is its own."""
    for _ in range(64):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            terms[e] = terms.get(e, 0) + rng.randint(-2, 2)
        f = groebner.Polynomial(n, terms)
        if not f.is_zero and not (rep := lead_normal_form(f, gb, order, budget)).is_zero:
            return f, rep
    f = poly_sum(f, groebner.Polynomial(n, {(0,) * n: 1}))
    return f, f


def fresh_draws(n):
    """The polynomials ``multigraded._draw`` gives in ``n`` variables, in
    turn, from a fresh ``random.Random(1)``, as exponent dicts."""
    randrange = random.Random(1).randrange
    while True:
        terms = {}
        for _ in range(randrange(1, 5)):
            e = tuple([randrange(3) for _ in range(n)])
            terms[e] = terms.get(e, 0) + randrange(-2, 3)
        yield {e: c for e, c in terms.items() if c}


def packed_grevlex_basis(rows, n, degree):
    """(packing, elements) of primitive integer grevlex ``rows`` in ``n``
    variables, packed at the grevlex width of total degree ``degree``, or
    of the rows if higher: the basis ``groebner._splits_a_product``
    reduces by at ``degree`` = 4n."""
    pk = groebner._Packing(groebner.grevlex(n), max([degree] + [max(map(sum, r)) for r in rows]))
    terms = [groebner._integer_terms([(pk._pack(e), c) for e, c in r.items()]) for r in rows]
    return pk, [groebner._element(t, pk) for t in terms]


def packed_product(a, b):
    """The product of two polynomials packed at one packing that holds it."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def raw_product_samples(rows, n, samples, budget, draws=None):
    """The primality samples as they were before the draw streams: a
    fresh ``random.Random(1)`` per call, membership by the full
    reduction, and the raw product of the two draws, raising
    ``NotPrimeError`` when it lies in the ideal.  Each sample is appended
    to ``draws`` as a polynomial; returns the draws made."""
    pk, elements = packed_grevlex_basis(rows, n, 4 * n)
    stream, made = fresh_draws(n), 0

    def nonmember():
        nonlocal made
        for made in range(made + 1, made + 65):
            terms = {pk._pack(e): c for e, c in next(stream).items()}
            if terms and groebner._reduce(dict(terms), elements, pk, budget):
                return terms
        c = terms.pop(0, 0) + 1
        return {**terms, 0: c} if c else terms

    for _ in range(samples):
        pair = nonmember(), nonmember()
        if draws is not None:
            draws += [groebner.Polynomial(n, {pk._unpack(e): c for e, c in t.items()})
                      for t in pair]
        if not groebner._reduce(packed_product(*pair), elements, pk, budget):
            raise NotPrimeError("graded core contains a product of two nonmembers; "
                                "the input cannot be prime")
    return made


def toric_ideal(rays):
    """Generators of the toric ideal I_A of the columns a_i = ``rays[i]``,
    the kernel of x_i -> t^(a_i) into the Laurent ring, a prime: the
    public ``buchberger`` eliminates t_1..t_d and u from t_1*...*t_d*u - 1
    and each x_i - t^(a_i + s_i*(1, ..., 1)) * u^(s_i), with s_i =
    max(0, -min(a_i)), so no exponent is negative."""
    m, d = len(rays), len(rays[0])
    gens = [groebner.Polynomial(m + d + 1, {(0,) * (m + d) + (0,): -1,
                                            (0,) * m + (1,) * (d + 1): 1})]
    for i, a in enumerate(rays):
        s = max(0, -min(a))
        x = tuple(int(j == i) for j in range(m))
        gens.append(groebner.Polynomial(m + d + 1, {x + (0,) * (d + 1): 1,
                                                    (0,) * m + tuple(v + s for v in a) + (s,): -1}))
    gb = groebner.buchberger(gens, groebner.elimination_order(range(m, m + d + 1), m + d + 1))
    return tuple(groebner.Polynomial(m, {e[:m]: c for e, c in g.terms.items()})
                 for g in gb if not any(x for e in g.terms for x in e[m:]))


def polynomial_analyze_prime(p, spec, budget, draws, samples=8, seed=1):
    """``multigraded.analyze_prime`` on rational polynomials throughout,
    by the slow paths above; each sample drawn is appended to ``draws``.
    The prime's basis, the passes and the checks run under grevlex, and
    only the reported core is re-based under ``p.order``, after the
    checks, by the public ``groebner.buchberger``."""
    budget = _as_budget(budget)
    deg_order = groebner.grevlex(p.nvars)
    gb_p = _polynomial_prime_basis(p.generators, deg_order, budget)
    star = polynomial_graded_hull(groebner.IdealPresentation(gb_p, deg_order), spec, budget)
    gb_star = star.generators
    graded = list(gb_star) == list(gb_p)
    diagnostics = _polynomial_prime_checks(spec, graded, gb_p, gb_star, budget, draws, samples,
                                           seed)
    if p.order != deg_order:
        gb_star = groebner.buchberger(gb_star, p.order, budget)
    return PrimeAnalysis(groebner.IdealPresentation(gb_star, p.order), *diagnostics)


def two_order_analyze_prime(p, spec, budget, draws, samples=8, seed=1):
    """:func:`polynomial_analyze_prime` with the bookkeeping of two orders
    that ``analyze_prime`` had before it worked in grevlex throughout:
    the prime is reduced under ``p.order`` and that basis feeds the
    passes, whose core is re-based under ``p.order``; off grevlex both
    are then re-based under grevlex for the heights and the samples.
    The answers are the same, since reduced bases are unique, but not
    the work, and so not the budget errors."""
    budget = _as_budget(budget)
    deg_order = groebner.grevlex(p.nvars)
    gb_p = _polynomial_prime_basis(p.generators, p.order, budget)
    star = polynomial_graded_hull(groebner.IdealPresentation(gb_p, p.order), spec, budget)
    gb_star = star.generators
    graded = list(gb_star) == list(gb_p)
    if p.order != deg_order:
        gb_p = groebner.buchberger(gb_p, deg_order, budget)
        gb_star = groebner.buchberger(gb_star, deg_order, budget)
    diagnostics = _polynomial_prime_checks(spec, graded, gb_p, gb_star, budget, draws, samples,
                                           seed)
    return PrimeAnalysis(star, *diagnostics)


def _polynomial_prime_basis(generators, order, budget):
    """The reduced basis of a prime under ``order``, refusing the unit ideal."""
    gb = groebner.buchberger(generators, order, budget)
    if any(not any(g.leading(order)[0]) for g in gb):
        raise NotPrimeError("the unit ideal is not prime")
    return gb


def _polynomial_prime_checks(spec, graded, gb_p, gb_star, budget, draws, samples, seed):
    """(graded, dim_p, dim_p_star, tau, sigma) of a prime with reduced
    grevlex basis ``gb_p`` and core ``gb_star``; the samples and the
    bounds are checked as ``analyze_prime`` checks them."""
    n = spec.nvars
    deg_order = groebner.grevlex(n)
    dim_p = n - polynomial_basis_dimension(gb_p, deg_order, budget)
    dim_star = n - polynomial_basis_dimension(gb_star, deg_order, budget)
    tau = dim_p - dim_star
    sigma = spec.sigma()
    rng = random.Random(seed)
    if gb_star:
        for _ in range(samples):
            a, ra = polynomial_random_nonmember(rng, n, gb_star, deg_order, budget)
            draws.append(a)
            b, rb = polynomial_random_nonmember(rng, n, gb_star, deg_order, budget)
            draws.append(b)
            if lead_normal_form(poly_product(ra, rb), gb_star, deg_order, budget).is_zero:
                raise NotPrimeError("graded core contains a product of two nonmembers; "
                                    "the input cannot be prime")
    if graded:
        if tau != 0:
            raise RuntimeError("graded input with a dimension drop; this is a bug")
    elif not 1 <= tau <= sigma:
        raise NotPrimeError("dimension drop %d escapes the bound 1..%d expected for a "
                            "nongraded prime; the input cannot be prime" % (tau, sigma))
    return graded, dim_p, dim_star, tau, sigma


# -- slow paths kept as references for monoid and divisorial -----------


def lattice_coordinates(basis, v):
    """The x with x @ basis = v, or None when v is not in the row
    lattice: the solve ``exact_linalg`` carried until its callers read
    ``_divmod`` themselves.  ``basis`` must be a row echelon form without
    zero rows, such as a ``row_lattice_basis``; v is in the lattice iff
    ``_divmod`` leaves nothing over."""
    x, rest = _divmod(basis, tuple(v))
    return None if any(rest) else x


def rational_solve(rows, rhs):
    """The integer x with rows @ x = rhs, for rows of full column rank,
    by an exact rational row reduction (``oracles.frac_rref``); an x
    that exists is asserted integral."""
    n = len(rows[0])
    _, pivots, reduced = frac_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    assert pivots == list(range(n)) and all(row[n].denominator == 1 for row in reduced[:n])
    return tuple(int(row[n]) for row in reduced[:n])


@functools.lru_cache(maxsize=8)
def reference_view(m):
    """``m`` modulo its units by a quotient of the reference's own, in
    coordinates q: (rays, forms, dim, lift, units), the primitive
    extreme rays each once, sorted, the facet forms, the dimension, the
    section q -> lift @ q into L and the :func:`reference_hnf` basis of
    the ambient unit rows.  A pointed monoid is its own view, in the
    coordinates of L; with units the quotient is
    :func:`smith_quotient_transform`'s, so no reference reads the
    package's section."""
    d, u = m.rank, m.unit_rank
    if not u:
        eye = IntMatrix([[int(i == j) for j in range(d)] for i in range(d)], d)
        return m.cone.rays, m.facet_forms, d, eye, ()
    p, lift = smith_quotient_transform(m.cone.lineality)
    rays = sorted({make_primitive((p @ r)[u:]) for r in m.cone.rays})
    units, _ = reference_hnf([m.to_ambient(row) for row in m.cone.lineality])
    return tuple(rays), tuple(m.facet_matrix @ lift), d - u, lift, units


def view_to_ambient(m, pt):
    """The point of ``m``'s view with coordinates pt in the quotient of
    :func:`reference_view`, in ambient coordinates: lifted into L, then
    ``to_ambient``, then reduced modulo the units by the
    :func:`reference_hnf` basis of their ambient rows, each entry at a
    pivot floored into [0, pivot)."""
    _, _, _, lift, units = reference_view(m)
    x = m.to_ambient(lift @ pt)
    for row in units:  # independent rows: none is zero
        j = next(j for j, c in enumerate(row) if c)
        q = x[j] // row[j]
        x = tuple(a - q * b for a, b in zip(x, row))
    return x


def values_to_ambient(m, values):
    """The point of ``m``'s view with the given facet values in ambient
    coordinates: the point of :func:`reference_view` with those values,
    by a rational solve, through :func:`view_to_ambient`.  Facet values fix a
    point of the view, so a point the package holds in its own
    coordinates z leaves here by its values alone."""
    return view_to_ambient(m, rational_solve(reference_view(m)[1], values))


def smith_in_image(cg, heights):
    """Whether the heights lie in F(Z^d), F the class group's facet
    matrix, read off Smith invariants alone: the route
    ``DivisorClassGroup`` carried as ``_in_image`` to check the
    Gorenstein test.  Appending the heights to F as a column leaves the
    count and the product of F's nonzero elementary divisors unchanged
    exactly then.  Outside Q F(Z^d) the rank rises; inside it but
    outside F(Z^d) the lattice grows, so its index in its saturation,
    the product, drops.  The heights are read by the class group's
    reader, as ``is_principal`` reads them."""
    f = cg.facet_matrix
    rows = [row + (h,) for row, h in zip(f, cg._heights(heights))]
    aug = elementary_divisors(IntMatrix._of(rows, f.shape[1] + 1))
    factors = cg.invariant_factors
    return len(aug) == len(f) - factors.count(0) and math.prod(aug) == math.prod(
        e for e in factors if e)


def canonical_gorenstein(m):
    """The Gorenstein decision by the canonical module's generator
    count, with its one generator as the certificate: the full sweep
    ``is_gorenstein`` once ran to check its answer."""
    gens = divisorial.canonical_module(m).generators
    return (True, gens[0]) if len(gens) == 1 else (False, None)


def recursive_region_points(forms, heights, lo, hi, caps):
    """The capped region sweep by the recursive generator chain that
    ``monoid._region_points`` replaced with one loop and a stack: the
    same (y, forms(y)) in the same lexicographic order, one nested
    ``sweep`` frame entered per prefix tried, the empty one included."""
    k = len(lo)
    cols = [tuple(f[i] for f in forms) for i in range(k)]
    need = [()] * k
    top = [()] * k
    acc = tuple(heights)
    cap = tuple(caps)
    for i in reversed(range(k)):
        need[i] = acc
        top[i] = cap
        acc = tuple(a - max(c * lo[i], c * hi[i]) for a, c in zip(acc, cols[i]))
        cap = tuple(u - min(c * lo[i], c * hi[i]) for u, c in zip(cap, cols[i]))

    def sweep(i, prefix, vals):
        col = cols[i]
        a, b = lo[i], hi[i]
        for v, c, h, u in zip(vals, col, need[i], top[i]):
            if c > 0:
                a = max(a, -((v - h) // c))  # v + c*t >= h, t >= ceil((h - v) / c)
                b = min(b, (u - v) // c)  # v + c*t <= u, t <= floor((u - v) / c)
            elif c < 0:
                b = min(b, (h - v) // c)  # t <= floor((h - v) / c)
                a = max(a, -((v - u) // c))  # t >= ceil((u - v) / c)
            elif v < h or v > u:
                return
        if a > b:
            return
        vals = tuple(v + a * c for v, c in zip(vals, col))
        last = i == k - 1
        for t in range(a, b + 1):
            if last:
                yield prefix + (t,), vals
            else:
                yield from sweep(i + 1, prefix + (t,), vals)
            vals = tuple(map(operator.add, vals, col))

    yield from sweep(0, (), (0,) * len(forms))


def box_hilbert_basis(rays, forms, dim):
    """Hilbert basis of a pointed full-dimensional cone in Z^dim by a
    scan of the whole zonotope bounding box, one dot product per form
    and point: the route ``monoid._pointed_hilbert_basis`` replaced."""
    if dim == 0 or not rays:
        return ()
    lo = [sum(min(0, r[i]) for r in rays) for i in range(dim)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(dim)]
    volume = 1
    for a, b in zip(lo, hi):
        volume *= b - a + 1
    _guard_box(volume, "enumeration box")
    candidates = []
    for pt in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if not any(pt):
            continue
        vals = tuple(_dot(f, pt) for f in forms)
        if all(v >= 0 for v in vals):
            candidates.append((sum(vals), pt, vals))
    candidates.sort(key=lambda t: (t[0], t[1]))
    basis = []
    basis_vals = []
    for _, pt, vals in candidates:
        reducible = False
        for bvals in basis_vals:
            if all(v >= w for v, w in zip(vals, bvals)):
                reducible = True
                break
        if not reducible:
            basis.append(pt)
            basis_vals.append(vals)
    return tuple(sorted(basis))


def box_minimal_generators(ideal):
    """``divisorial.minimal_generators`` by a scan of the whole vertex
    box plus zonotope box, one dot product per form and point, with the
    Hilbert basis from :func:`box_hilbert_basis`: the route the region
    sweep replaced, in the coordinates of :func:`reference_view`.  The
    vertices come from the rational solves of :func:`region_tight_points`,
    not from the package."""
    m = ideal.monoid
    m.require_normal()
    rays, forms, k, _, _ = reference_view(m)
    if k == 0:
        return (m.to_ambient((0,) * m.rank),)
    h = ideal.heights
    zlo = [sum(min(0, r[i]) for r in rays) for i in range(k)]
    zhi = [sum(max(0, r[i]) for r in rays) for i in range(k)]
    _guard_box(math.prod(b - a + 1 for a, b in zip(zlo, zhi)), "enumeration box")
    verts = region_tight_points(forms, h)
    if not verts:
        raise RuntimeError("height region unexpectedly has no vertices")
    lo = [math.floor(min(v[i] for v in verts)) + zlo[i] for i in range(k)]
    hi = [math.ceil(max(v[i] for v in verts)) + zhi[i] for i in range(k)]
    _guard_box(math.prod(b - a + 1 for a, b in zip(lo, hi)), "enumeration box")
    hb = box_hilbert_basis(rays, forms, k)
    hb_vals = [tuple(_dot(f, b) for f in forms) for b in hb]
    minimal = []
    for pt in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        vals = tuple(_dot(f, pt) for f in forms)
        if any(v < hh for v, hh in zip(vals, h)):
            continue
        reducible = False
        for bvals in hb_vals:
            if all(v - w >= hh for v, w, hh in zip(vals, bvals, h)):
                reducible = True
                break
        if not reducible:
            minimal.append(pt)
    return tuple(sorted(view_to_ambient(m, pt) for pt in minimal))


def full_scan_hilbert_filter(candidates):
    """The facet values of the Hilbert basis among ``candidates``, facet
    value vectors of nonzero cone points that hold the Hilbert basis, by
    comparing each candidate, in order of total, with every kept one:
    the route ``monoid._minimal`` replaced, which compares a candidate
    only with the kept ones of strictly smaller total."""
    basis = []
    for _, vals in sorted((sum(vals), vals) for vals in candidates):
        for bvals in basis:
            if all(map(operator.ge, vals, bvals)):
                break
        else:
            basis.append(vals)
    return basis


def full_scan_floor_filter(points, floors):
    """The (point, values) pairs of ``points`` that lie above none of
    ``floors``, each compared with every floor: with the floors F(b) + h
    over the Hilbert elements b, the route by which
    ``divisorial.minimal_generators`` once decided minimality, before
    ``monoid._minimal`` kept the minimal members with no Hilbert
    basis."""
    minimal = []
    for pt, vals in points:
        for floor in floors:
            if all(map(operator.ge, vals, floor)):
                break
        else:
            minimal.append((pt, vals))
    return minimal


def box_members(ideal, box):
    """``divisorial.members`` by a scan of all (2 box + 1)^r ambient
    points with one lattice solve each: the route the region sweep
    replaced."""
    r = ideal.monoid.ambient_rank
    _guard_box((2 * box + 1) ** r, "enumeration box")
    return tuple(pt for pt in itertools.product(range(-box, box + 1), repeat=r)
                 if ideal.contains(pt))


def hermite_cone_lattice(rays):
    """``(lattice_basis, local_generators)`` of ``monoid_from_cone_rays``
    by the route it takes for a lower-rank span, which it took for every
    span before reading full rank off one elimination: L is the kernel
    of the kernel of the rays, and each ray is written in its Hermite
    basis."""
    rs = [tuple(v) for v in rays if any(v)]
    orth = kernel_basis(rs, width=len(rs[0]))
    basis = kernel_basis(orth)
    return basis, tuple(lattice_coordinates(basis, v) for v in rs)


def cokernel_class_group(m):
    """The divisor class group as the package once built it, as the
    cokernel of the facet matrix F: a Smith form S = U F V that carries
    its s x s row transform U, that of :func:`reference_snf`.  Returns
    the invariant factors (1s dropped, a 0 per free factor) and the
    class of a height vector h, the coordinates of U h with 1s dropped,
    each reduced modulo its factor; h is principal iff its class is
    zero."""
    s, u, _ = reference_snf(_as_matrix(m.facet_matrix, m.rank))
    diag = [s[i][i] for i in range(min(s.shape))]
    # one cyclic factor per row of U: the diagonal entry, 0 past its end
    kept = [(diag[i] if i < len(diag) else 0, row) for i, row in enumerate(u)]
    kept = [(f, row) for f, row in kept if f != 1]

    def class_of(heights):
        if len(heights) != len(u):
            raise ValueError("need one height per facet form")
        return tuple(dot(row, heights) % f if f else dot(row, heights) for f, row in kept)

    return tuple(f for f, _ in kept), class_of


def kernel_unit_rows(m):
    """Local basis of the unit group of C cap L as the integer kernel of
    the facet forms: the route ``AffineMonoid`` replaced with the
    lineality its cone conversion already holds."""
    return kernel_basis(m.facet_matrix, width=m.rank)


def presentation_member(m, ambient):
    """Exact membership in the monoid generated by the presentation of
    ``m``, by the recursive search ``AffineMonoid`` once carried as a
    method.

    Decided facet by facet: generators with some positive facet value
    admit only finitely many multiplicities, and the residual must lie
    in the group generated by the unit generators (which is all the
    unit generators can reach).  A monoid declared normal at
    construction is the full saturation, so membership coincides with
    ``contains``.  The search has no limit: keep its inputs small.
    """
    if m._assume_normal:
        return m.contains(ambient)
    local = m.to_local(ambient)
    if local is None:
        return False
    target = m._facet_values_local(local)
    if any(v < 0 for v in target):
        return False
    unit_gens = []
    pointed = []
    for g in m.local_generators:
        vals = m._facet_values_local(g)
        if any(vals):
            pointed.append((g, vals))
        else:
            unit_gens.append(g)
    unit_lattice = row_lattice_basis(unit_gens) if unit_gens else IntMatrix((), m.rank)

    def search(idx, remaining, residual):
        if all(v == 0 for v in remaining):
            return lattice_coordinates(unit_lattice, residual) is not None
        if idx == len(pointed):
            return False
        g, vals = pointed[idx]
        cap = min(remaining[i] // vals[i] for i in range(len(vals)) if vals[i] > 0)
        for n in range(cap + 1):
            nxt = tuple(r - n * v for r, v in zip(remaining, vals))
            if any(v < 0 for v in nxt):
                break
            if search(idx + 1, nxt, tuple(x - n * y for x, y in zip(residual, g))):
                return True
        return False

    return search(0, target, local)


def search_normality(m):
    """``(is_normal, witness)`` by the route ``AffineMonoid._normality``
    replaced: the unit generators' lattice compared with the kernel
    units by Hermite bases, a Smith solve per missing row, and then the
    :func:`presentation_member` search on every Hilbert basis element,
    whose least miss in ambient order is the witness."""
    if m._assume_normal:
        return True, None
    unit_gens = [g for g in m.local_generators
                 if not any(m._facet_values_local(g))]
    n_rows = kernel_unit_rows(m)
    if n_rows:
        gen_rows = IntMatrix(unit_gens, m.rank)
        if row_lattice_basis(gen_rows) != row_lattice_basis(n_rows):
            for row in n_rows:
                if smith_solve(gen_rows.T, row) is None:
                    return False, m.to_ambient(row)
    missing = [amb for amb in (values_to_ambient(m, vals) for _, vals in m._pointed_hilbert)
               if not presentation_member(m, amb)]
    return (False, min(missing)) if missing else (True, None)


# -- slow paths kept as references for cone ----------------------------


def unimodular_inverse(m) -> IntMatrix:
    """Inverse of a unimodular integer matrix, exactly: the lift of
    :func:`smith_quotient_transform`, which no package route reads.

    Elimination of the columns of M gives T with T @ M = d*I, and M is
    unimodular exactly when it has full rank and d is +1 or -1; then
    M^-1 = d*T.
    """
    m = _as_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix is not square")
    t, pivots, d = _eliminate(m.T, n)
    if len(pivots) < n or abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return IntMatrix._of((tuple(d * x for x in row) for row in t), n)


def smith_quotient_transform(lin_rows):
    """The quotient by the saturated lattice spanned by ``lin_rows`` by
    the route the package took before it read its quotients off one
    Hermite form (``exact_linalg._quotient``): U of the Smith form
    S = U @ lin.T @ V of :func:`reference_snf`, whose diagonal is all
    ones on a saturated lattice.  Returns (P, lift), lift the last
    columns of P^-1, whose columns lift the quotient's coordinates back.
    The references build their own quotient by it, so they never read
    the package's section."""
    s, p, _ = reference_snf(_as_matrix(lin_rows).T)
    u = len(lin_rows)
    if any(s[i][i] != 1 for i in range(u)):
        raise ValueError("sublattice is not saturated")
    return p, IntMatrix._of((row[u:] for row in unimodular_inverse(p)), len(p) - u)


def rank_extreme_rays(gens, forms, span_cuts, lin_dim):
    """The generators extreme modulo a lineality space of dimension
    ``lin_dim``, by one rank per generator: v is extreme iff the forms
    tight on v, with the cuts of the span, leave a face of dimension
    lin_dim + 1.  The route ``cone.facets_of_rays`` replaced with mask
    containment."""
    extreme = []
    for v in gens:
        d = len(v)
        tight = [f for f in forms if _dot(f, v) == 0]
        if d - rank(tight + list(span_cuts)) == lin_dim + 1:
            extreme.append(v)
    return sorted(set(extreme))


def rank_facet_forms(fs, rays, lin):
    """The forms of ``fs`` supporting a facet of the cone with the given
    rays and lineality basis, by one rank per form: f is kept iff the
    rays it vanishes on, with the lineality, span a space one dimension
    short of the cone.  The route ``cone.rays_of_facets`` replaced with
    mask containment."""
    dim = rank(list(rays) + list(lin))
    kept = []
    for f in fs:
        tight = [r for r in rays if _dot(f, r) == 0]
        if rank(tight + list(lin)) == dim - 1:
            kept.append(f)
    return sorted(set(kept))


def containment_extreme_rays(a, d, base, start):
    """``cone._pointed_extreme_rays`` with the adjacency test it had
    before the column bitsets: a positive and a negative ray are
    adjacent iff no third ray's mask contains the AND of theirs, found
    by a scan over every ray.  ``start`` is ignored: the start cone
    comes from its own elimination of ``[B | I]``, where B holds the
    rows of ``base``, as it did before one elimination of ``[A^T | I]``
    gave both the rows and the start cone, so the comparison covers
    the start cone too."""
    if d == 0:
        return {}
    aug = [list(a[i]) + [int(j == k) for k in range(d)] for j, i in enumerate(base)]
    rows, _, e = eager_eliminate(aug, d)
    sgn = 1 if e > 0 else -1
    inserted = sum(1 << i for i in base)
    masks = {make_primitive([sgn * row[d + j] for row in rows]): inserted ^ (1 << i)
             for j, i in enumerate(base)}
    for i, row in enumerate(a):
        bit = 1 << i
        if inserted & bit:
            continue
        vals = {r: _dot(row, r) for r in masks}
        fresh = {r: masks[r] | (0 if v else bit) for r, v in vals.items() if v >= 0}
        neg = [r for r, v in vals.items() if v < 0]
        for rp, vp in vals.items():
            if vp <= 0:
                continue
            for rn in neg:
                common = masks[rp] & masks[rn]
                if common.bit_count() < d - 2 or any(
                        m & common == common and r != rp and r != rn for r, m in masks.items()):
                    continue
                vn = vals[rn]
                fresh[make_primitive([vp * y - vn * x for x, y in zip(rp, rn)])] = common | bit
        masks = fresh
        inserted |= bit
    return masks


def containment_dd_kernel(a, d, base, start):
    """``containment_extreme_rays`` in the shape ``cone._pointed_extreme_rays``
    returns: the masks, the columns ``transpose_masks`` makes of them,
    one per row of A, and the set of all the rays, whose j-th bit is
    the j-th ray."""
    masks = containment_extreme_rays(a, d, base, start)
    return masks, transpose_masks(list(masks.values()), len(a)), (1 << len(masks)) - 1


def transpose_masks(masks, n):
    """Column masks of the bit matrix whose row i is ``masks[i]`` over n
    columns: how ``cone`` read the rays tight on each row before double
    description kept its columns."""
    cols = [0] * n
    for i, m in enumerate(masks):
        for j in range(n):
            if m >> j & 1:
                cols[j] |= 1 << i
    return cols


def scan_maximal_proper(sets, full):
    """``cone._maximal_proper`` as a scan of every pair: for each bitmask
    t of ``sets``, t != full and no w in ``sets`` has t < w != full."""
    proper = [w for w in sets if w != full]
    return [t != full and not any(t & w == t and w != t for w in proper) for t in sets]


# -- slow paths kept as references for exact_linalg --------------------


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# The row and column operations of the xgcd route, kept here so that the
# reference forms share no step with the kernels they check.


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    g, r = int(a), int(b)
    while r:
        q = g // r
        g, r = r, g - q * r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g < 0:
        g, x0, y0 = -g, -x0, -y0
    return g, x0, y0


def _combine_rows(m, r, i, s, t, u, v):
    # row_r' = s*row_r + t*row_i ; row_i' = -v*row_r + u*row_i ; s*u + t*v = 1
    a, b = m[r], m[i]
    m[r] = [s * x + t * y for x, y in zip(a, b)]
    m[i] = [u * y - v * x for x, y in zip(a, b)]


def _combine_cols(m, c, j, s, t, u, v):
    # col_c' = s*col_c + t*col_j ; col_j' = -v*col_c + u*col_j
    for row in m:
        x, y = row[c], row[j]
        row[c], row[j] = s * x + t * y, u * y - v * x


def _sub_row(m, i, q, r):
    # row_i' = row_i - q*row_r
    m[i] = [x - q * y for x, y in zip(m[i], m[r])]


def _sub_col(m, j, q, c):
    # col_j' = col_j - q*col_c
    for row in m:
        row[j] -= q * row[c]


def _swap_cols(m, c, j):
    for row in m:
        row[c], row[j] = row[j], row[c]


def eager_eliminate(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on integer rows,
    as ``exact_linalg._eliminate`` did it before it carried only the
    transform: every pivot rewrites every column of every row.

    Pivots are taken in the first ``ncols`` columns, leftmost first;
    further columns ride along as right-hand sides.  Returns
    ``(rows, pivot_cols, d)``: the k-th row has the entry ``d`` in
    column ``pivot_cols[k]`` and zeros in every other pivot column, and
    the rows after the pivot rows are zero in the first ``ncols``
    columns.  Every entry stays a minor of the input, so each division
    is exact; for a nonsingular square block, ``d`` is its determinant
    up to sign.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    d = 1
    for j in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        pv = top[j]
        for i, row in enumerate(rows):
            if i != r:
                f = row[j]
                rows[i] = [(pv * x - f * y) // d for x, y in zip(row, top)]
        d = pv
        pivots.append(j)
    return rows, pivots, d


def reference_hnf(a):
    """``exact_linalg.hnf`` as it was before the transform rode along
    with the matrix and before it cleared columns by Euclid's step: 2x2
    xgcd combinations of the pivot row with each row below, every row
    operation written once on H and once on U.  H is the same; U is
    another valid one on some inputs."""
    a = _as_matrix(a)
    m, n = a.shape
    h = [list(row) for row in a]
    u = _identity_rows(m)
    r = 0
    for j in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            if h[i][j] == 0:
                continue
            g, s, t = xgcd(h[r][j], h[i][j])
            p, q = h[r][j] // g, h[i][j] // g
            _combine_rows(h, r, i, s, t, p, q)
            _combine_rows(u, r, i, s, t, p, q)
        if h[r][j] == 0:
            continue
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        piv = h[r][j]
        for i in range(r):
            q = h[i][j] // piv
            if q:
                _sub_row(h, i, q, r)
                _sub_row(u, i, q, r)
        r += 1
    return IntMatrix(h, n), IntMatrix(u, m)


def reference_snf(a):
    """The two-sided Smith form (S, U, V), S = U @ A @ V, as
    ``exact_linalg`` computed it before the transforms rode along with
    the matrix, before its kernel stopped at the diagonal and before it
    cleared columns by Euclid's step: xgcd combinations, every row
    operation written on S and U, every column operation on S and V, and
    a last pass that chains the diagonal by divisibility.  Its nonzero
    diagonal is ``exact_linalg.elementary_divisors``; on a saturated
    lattice, where that pass does nothing, U is the unit quotient's P of
    :func:`smith_quotient_transform`."""
    a = _as_matrix(a)
    m, n = a.shape
    s = [list(row) for row in a]
    u = _identity_rows(m)
    v = _identity_rows(n)
    k = min(m, n)
    for t in range(k):
        # choose the remaining entry of least absolute value as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            s[t], s[bi] = s[bi], s[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            _swap_cols(s, t, bj)
            _swap_cols(v, t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] == 0:
                    continue
                if s[i][t] % s[t][t] == 0:
                    # plain subtraction never disturbs the pivot row
                    q = s[i][t] // s[t][t]
                    _sub_row(s, i, q, t)
                    _sub_row(u, i, q, t)
                    continue
                g, cs, ct = xgcd(s[t][t], s[i][t])
                dirty = True
                p, q = s[t][t] // g, s[i][t] // g
                _combine_rows(s, t, i, cs, ct, p, q)
                _combine_rows(u, t, i, cs, ct, p, q)
            for j in range(t + 1, n):
                if s[t][j] == 0:
                    continue
                if s[t][j] % s[t][t] == 0:
                    q = s[t][j] // s[t][t]
                    _sub_col(s, j, q, t)
                    _sub_col(v, j, q, t)
                    continue
                g, cs, ct = xgcd(s[t][t], s[t][j])
                dirty = True
                p, q = s[t][t] // g, s[t][j] // g
                _combine_cols(s, t, j, cs, ct, p, q)
                _combine_cols(v, t, j, cs, ct, p, q)
    for i in range(k):
        if s[i][i] < 0:
            s[i] = [-x for x in s[i]]
            u[i] = [-x for x in u[i]]
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a0, b0 = s[i][i], s[i + 1][i + 1]
            if a0 == 0 and b0 != 0:
                s[i], s[i + 1] = s[i + 1], s[i]
                u[i], u[i + 1] = u[i + 1], u[i]
                _swap_cols(s, i, i + 1)
                _swap_cols(v, i, i + 1)
                changed = True
            elif a0 and b0 and b0 % a0:
                g, cs, ct = xgcd(a0, b0)
                _combine_rows(s, i, i + 1, cs, ct, a0 // g, b0 // g)
                _combine_rows(u, i, i + 1, cs, ct, a0 // g, b0 // g)
                # paired column transform keeps the product diagonal: diag(g, a*b/g)
                _combine_cols(s, i, i + 1, 1, 1, cs * (a0 // g), ct * (b0 // g))
                _combine_cols(v, i, i + 1, 1, 1, cs * (a0 // g), ct * (b0 // g))
                changed = True
    return IntMatrix(s, n), IntMatrix(u, m), IntMatrix(v, n)


def smith_solve(a, b):
    """One integer solution x of A @ x = b, or None when none exists,
    through the two-sided Smith form of :func:`reference_snf`: the route
    the package took for shift witnesses and the Gorenstein test before
    every integer preimage read a Hermite form."""
    a = _as_matrix(a)
    m, n = a.shape
    b = [int(x) for x in b]
    if len(b) != m:
        raise ValueError("right hand side length does not match")
    s, u, v = reference_snf(a)
    c = u @ b
    w = [0] * n
    k = min(m, n)
    for i in range(k):
        d = s[i][i]
        if d:
            if c[i] % d:
                return None
            w[i] = c[i] // d
        elif c[i]:
            return None
    if any(c[k:]):
        return None
    return v @ w
