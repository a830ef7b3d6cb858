"""Divisorial ideals of a normal affine monoid ring.

A divisorial ideal is described by one integer height per facet of the
monoid's cone: it is the set of lattice points of L on which the i-th
facet form is at least ``heights[i]``.  Heights are indexed by the
canonical order of ``monoid.facet_forms``.  Both enumerations run on
the exact row sweep of ``monoid._region_points``, with the enumeration
guard still bounding the whole box: the members in an ambient box (the
ambient coordinates are extra forms, capped on both sides), and the
minimal module generators, with every facet value capped by the
region's vertices plus Caratheodory's bound on the rays.  From
dimension 3 on the generators are swept in the echelon coordinates of
the pointed view's facet forms, like the Hilbert basis in ``monoid``.
The module builds the canonical module (all heights equal to one, the
interior points), the divisor class group, shift witnesses between
ideal classes, and the Gorenstein decision with a certificate.  The
class group reads its invariant factors from the elementary divisors
of the facet matrix, with no transform.  Which point of L has given
facet values, if any, is one question behind principal classes and
shift witnesses, and both read it from the Hermite form the pointed
view's sweeps run in (``_PointedView._preimage``), computed once on
first use; the invariant factors alone need none.  No Smith form here
carries a transform.

Every operation requires the monoid presentation to be normal, since
the height description only sees the saturation C cap L.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, prod

from .exact_linalg import (
    IntMatrix,
    Vec,
    _dot,
    _eliminate,
    as_tuple,
    elementary_divisors,
)
from .monoid import AffineMonoid, _echelon_box, _guard_box, _PointedView, _region_points


@dataclass(frozen=True)
class DivisorialIdeal:
    """Height description of a divisorial ideal over a normal monoid."""

    monoid: AffineMonoid
    heights: Vec

    def __post_init__(self):
        object.__setattr__(self, "heights", as_tuple(self.heights))
        if len(self.heights) != len(self.monoid.facet_forms):
            raise ValueError("need one height per facet form")

    def contains(self, ambient) -> bool:
        local = self.monoid.to_local(ambient)
        if local is None:
            return False
        vals = self.monoid._facet_values_local(local)
        return all(v >= h for v, h in zip(vals, self.heights))


def divisorial_ideal(m: AffineMonoid, heights) -> DivisorialIdeal:
    m.require_normal()
    return DivisorialIdeal(m, as_tuple(heights))


def members(ideal: DivisorialIdeal, box: int) -> tuple[Vec, ...]:
    """All members with ambient coordinates in [-box, box], sorted.

    One sweep of ``_region_points`` over the local coordinates y of L:
    the facet forms at the ideal's heights, and the r ambient
    coordinates of y, read off the columns of the lattice basis, with
    height -box and cap box.  So only members are visited at the last
    coordinate, and each is read off the ambient values with no lattice
    solve.  The local box comes from the Hermite pivots of the basis
    (``_echelon_box``): the ambient coordinate at row i's pivot is y_i
    times the pivot plus the earlier rows' entries there, which bounds
    |y_i| in turn.  The guard counts the ambient box, (2 box + 1)^r
    points.
    """
    if box < 0:
        raise ValueError("box bound must be nonnegative")
    m = ideal.monoid
    r = m.ambient_rank
    _guard_box((2 * box + 1) ** r)
    basis = m.lattice_basis
    lo, hi, _ = _echelon_box(basis, [-box] * r, [box] * r)
    s = len(ideal.heights)
    forms = list(m.facet_forms) + [tuple(row[j] for row in basis) for j in range(r)]
    heights = list(ideal.heights) + [-box] * r
    caps = [None] * s + [box] * r
    return tuple(sorted(vals[s:] for _, vals in _region_points(forms, heights, lo, hi, caps)))


def _region_vertices(forms, heights, dim) -> list[tuple[Vec, int]]:
    """Rational vertices x / d of {y : forms(y) >= heights}, as integer
    pairs (x, d) with d > 0.  A feasible point tight on dim independent
    forms is a vertex; a degenerate vertex appears once per such set."""
    _guard_box(comb(len(forms), dim), "vertex search", "facet subsets")
    verts = []
    for subset in itertools.combinations(range(len(forms)), dim):
        aug = [list(forms[i]) + [heights[i]] for i in subset]
        rows, pivots, d = _eliminate(aug, dim)
        if len(pivots) < dim:
            continue
        # the tight point is x / d; test forms(x) >= heights * d in integers
        if d < 0:
            d = -d
            x = [-row[dim] for row in rows]
        else:
            x = [row[dim] for row in rows]
        if all(_dot(f, x) >= h * d for f, h in zip(forms, heights)):
            verts.append((tuple(x), d))
    return verts


def _generator_caps(view, verts) -> list[int]:
    """The cap per facet form f of the pointed view on the minimal
    generators of a region with vertices ``verts`` (see
    ``minimal_generators``).  V_f is the largest f(x) / d over the
    vertices x / d, rounded by floor division."""
    caps = []
    for f, s in zip(view.forms, view.ray_sums):
        tops = [(_dot(f, x), d) for x, d in verts]
        if s:
            caps.append(max(-(-t // d) for t, d in tops) + s - 1)  # ceil(V_f) + S_f - 1
        else:
            caps.append(max(t // d for t, d in tops))  # floor(V_f)
    return caps


def minimal_generators(ideal: DivisorialIdeal) -> tuple[Vec, ...]:
    """Minimal generators of the ideal as a module over the monoid.

    Every member y splits as q + c with q in the convex hull of the
    region's vertices and c in the recession cone, and by Caratheodory
    c = sum mu_k r_k over at most dim linearly independent extreme rays.
    If some mu_k >= 1, subtracting r_k stays in the region, so a minimal
    member has every mu_k < 1.  It therefore lies in the vertex bounding
    box plus the ray zonotope, and each facet form f stays below
    V_f + S_f, where V_f is the largest value of f on the vertices and
    S_f the sum of its dim largest values on the rays: the sweep caps f
    at ceil(V_f) + S_f - 1, or at floor(V_f) when S_f = 0
    (``_generator_caps``).
    ``_region_points`` sweeps only the members within box and caps; the
    guard still bounds the whole box.  From dimension 3 on the sweep
    runs in the echelon coordinates of ``_PointedView._sweep_frame``,
    whose box follows from the pivot forms' heights and caps alone, so
    it may visit capped members outside the vertex and zonotope box;
    the frame's own guard bounds that work.
    Minimality itself is exact on any candidate set that holds the
    minimal generators: y is minimal iff no Hilbert basis element can be
    subtracted without leaving the region.  So the extra members change
    nothing, and only the minimal ones are mapped back.
    """
    m = ideal.monoid
    m.require_normal()
    view = m._pointed_view
    k = view.dim
    if k == 0:
        return (m.to_ambient((0,) * m.rank),)
    forms = view.forms
    h = ideal.heights
    zlo, zhi = view.box
    # the full box is at least as wide as the zonotope box in every
    # coordinate, so guard that one before the vertex subsets run
    _guard_box(prod(b - a + 1 for a, b in zip(zlo, zhi)))
    verts = _region_vertices(forms, h, k)
    if not verts:
        raise RuntimeError("height region unexpectedly has no vertices")
    lo = [min(x[i] // d for x, d in verts) + zlo[i] for i in range(k)]
    hi = [max(-(-x[i] // d) for x, d in verts) + zhi[i] for i in range(k)]
    _guard_box(prod(b - a + 1 for a, b in zip(lo, hi)))
    caps = _generator_caps(view, verts)
    forms, lo, hi = view._sweep_frame(h, caps, lo, hi)
    hb_vals = [vals for _, vals in m._pointed_hilbert]
    minimal = []
    for pt, vals in _region_points(forms, h, lo, hi, caps):
        reducible = False
        for bvals in hb_vals:
            if all(v - w >= hh for v, w, hh in zip(vals, bvals, h)):
                reducible = True
                break
        if not reducible:
            minimal.append(pt)
    return tuple(sorted(m.to_ambient(m._lift_local(view._unsweep(pt))) for pt in minimal))


@dataclass(frozen=True)
class CanonicalModule:
    """The interior-point divisorial ideal and its minimal generators."""

    ideal: DivisorialIdeal
    generators: tuple[Vec, ...]


def canonical_module(m: AffineMonoid) -> CanonicalModule:
    """Module of interior lattice points: every facet height equals one.

    On lattice points, being at least one on every facet form is the
    same as being strictly inside the cone.  The result is kept on the
    monoid, so later calls (``is_gorenstein`` among them) reuse it.
    """
    m.require_normal()
    if m._canonical is None:
        ideal = DivisorialIdeal(m, (1,) * len(m.facet_forms))
        m._canonical = CanonicalModule(ideal, minimal_generators(ideal))
    return m._canonical


@dataclass(frozen=True)
class DivisorClassGroup:
    """Height vectors modulo the facet values of L: the cokernel of the
    s x d facet matrix F.

    ``invariant_factors`` come from F's elementary divisors, with one
    free factor per missing rank.  ``is_principal`` asks whether the
    heights are the facet values of a point of L, by back-substitution
    in the Hermite form the monoid's pointed view holds for its sweeps
    (the view does not refer to the monoid, so nothing cycles), and
    checks that the heights have one entry per facet form.
    """

    invariant_factors: tuple[int, ...]
    facet_matrix: IntMatrix
    _view: _PointedView = field(repr=False, compare=False)

    def _heights(self, heights) -> Vec:
        heights = as_tuple(heights)
        if len(heights) != self.facet_matrix.shape[0]:
            raise ValueError("need one height per facet form")
        return heights

    def is_principal(self, heights) -> bool:
        return self._view._preimage(self._heights(heights)) is not None

    def _in_image(self, heights) -> bool:
        """Whether the heights lie in F(Z^d), read off Smith invariants
        alone: appending them to F as a column leaves the count and the
        product of F's nonzero elementary divisors unchanged exactly
        then.  Outside Q F(Z^d) the rank rises; inside it but outside
        F(Z^d) the lattice grows, so its index in its saturation, the
        product, drops."""
        f = self.facet_matrix
        aug = elementary_divisors(IntMatrix([row + (h,) for row, h in zip(f, self._heights(heights))],
                                            f.shape[1] + 1))
        factors = self.invariant_factors
        return len(aug) == len(f) - factors.count(0) and prod(aug) == prod(e for e in factors if e)


def class_group(m: AffineMonoid) -> DivisorClassGroup:
    """Kept on the monoid like the canonical module, so that
    ``is_gorenstein`` reuses the job's class group."""
    m.require_normal()
    if m._class_group is None:
        divisors = elementary_divisors(m.facet_matrix)
        free = len(m.facet_forms) - len(divisors)
        factors = tuple(e for e in divisors if e > 1) + (0,) * free
        m._class_group = DivisorClassGroup(factors, m.facet_matrix, m._pointed_view)
    return m._class_group


def same_class(a: DivisorialIdeal, b: DivisorialIdeal) -> Vec | None:
    """Shift witness g in L with b.heights = a.heights + facet values of g.

    Translation by g then maps a onto b, so the two ideals are
    isomorphic as modules exactly when a witness exists; returns None
    when the classes differ.  On a pointed monoid the witness is
    unique; with units any two witnesses differ by a unit, and the one
    returned is the section representative of ``_PointedView._preimage``.
    """
    if a.monoid is not b.monoid and (
        a.monoid.facet_forms != b.monoid.facet_forms
        or a.monoid.lattice_basis != b.monoid.lattice_basis
    ):
        raise ValueError("ideals live over different monoids")
    m = a.monoid
    delta = tuple(x - y for x, y in zip(b.heights, a.heights))
    g = m._pointed_view._preimage(delta)
    if g is None:
        return None
    return m.to_ambient(m._lift_local(g))


def is_gorenstein(m: AffineMonoid) -> tuple[bool, Vec | None]:
    """Whether the canonical module is principal, with a certificate.

    Three equivalent tests, which share no step, are run and must
    agree: the canonical module has a single minimal generator, the
    all-ones height vector is the facet values of a point of L (Hermite
    back-substitution, the class group's ``is_principal``), and
    appending it to the facet matrix keeps the elementary divisors the
    class group read (two bare Smith forms).  The certificate is the
    generator, whose facet values are all exactly one.
    """
    m.require_normal()
    s = len(m.facet_forms)
    ones = (1,) * s
    can = canonical_module(m)
    principal = len(can.generators) == 1
    cg = class_group(m)
    preimage = cg.is_principal(ones)
    class_zero = cg._in_image(ones)
    if not (principal == preimage == class_zero):
        raise RuntimeError("Gorenstein criteria disagree; this is a bug")
    if not principal:
        return False, None
    cert = can.generators[0]
    if m.facet_values(cert) != ones:
        raise RuntimeError("canonical generator does not sit at height one; this is a bug")
    return True, cert
