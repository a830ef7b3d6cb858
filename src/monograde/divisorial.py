"""Divisorial ideals of a normal affine monoid ring.

A divisorial ideal is described by one integer height per facet of the
monoid's cone: it is the set of lattice points of L on which the i-th
facet form is at least ``heights[i]``.  Heights are indexed by the
canonical order of ``monoid.facet_forms``.  Its members in a box and its
minimal module generators are height regions that ``monoid`` sweeps
(``AffineMonoid._members`` and ``_PointedView._sweep``); this module
keeps the module theory on top.  The minimal generators are the minimal
members, kept by the filter that also keeps the Hilbert basis
(``monoid._minimal``), so they need no Hilbert basis.
The module builds the canonical module (all heights equal to one, the
interior points), the divisor class group, shift witnesses between
ideal classes, and the Gorenstein decision with a certificate.  The
class group reads its invariant factors from the elementary divisors
of the facet matrix, with no transform.  Which point of L has given
facet values, if any, is one question behind principal classes, shift
witnesses and the Gorenstein test, and all three read it from the
Hermite form the pointed view's sweeps run in
(``_PointedView._preimage``), computed once on first use; the invariant
factors alone need none.  No Smith form here carries a transform.

By Danilov and Stanley the canonical module is the divisorial ideal of
height one on every facet.  A divisorial ideal is principal iff its
heights are the facet values of a point of L, and that point then
generates it.  So K[M] is Gorenstein iff the all-ones heights lie in
F(L), and the point with those values is both the canonical module's
one generator and the certificate: one back-substitution decides, with
no sweep and no Smith form.

Every operation requires the monoid presentation to be normal, since
the height description only sees the saturation C cap L.  An ideal
checks that, then one height per facet form, where it is built
(``DivisorialIdeal``); the class group and the Gorenstein test, which
take no ideal, check normality themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact_linalg import IntMatrix, Vec, _as_count, _as_vector, elementary_divisors
from .monoid import AffineMonoid, _minimal


@dataclass(frozen=True)
class DivisorialIdeal:
    """Height description of a divisorial ideal over a normal monoid."""

    monoid: AffineMonoid
    heights: Vec

    def __post_init__(self):
        self.monoid.require_normal()
        object.__setattr__(self, "heights", _as_vector(
            self.heights, len(self.monoid.facet_forms), "need one height per facet form"))

    def contains(self, ambient) -> bool:
        local = self.monoid.to_local(ambient)
        if local is None:
            return False
        vals = self.monoid._facet_values_local(local)
        return all(v >= h for v, h in zip(vals, self.heights))


def divisorial_ideal(m: AffineMonoid, heights) -> DivisorialIdeal:
    return DivisorialIdeal(m, heights)


def members(ideal: DivisorialIdeal, box: int) -> tuple[Vec, ...]:
    """All members with ambient coordinates in [-box, box], sorted
    (``AffineMonoid._members``).  ``box`` is read like every integer
    input: 2.0 is taken as 2, and 2.5 raises ValueError."""
    box = _as_count(box, 0, "box bound must be nonnegative")
    return ideal.monoid._members(ideal.heights, box)


def minimal_generators(ideal: DivisorialIdeal) -> tuple[Vec, ...]:
    """Minimal generators of the ideal as a module over the monoid: its
    minimal members in the monoid's order.

    By Caratheodory each facet form f is at most ceil(V_f) + S_f - 1 on
    a minimal member, where V_f is the largest value of f on the
    region's vertices, and ``_PointedView._sweep`` visits only the
    members within these caps.  ``monoid._minimal`` keeps the minimal
    members among them by their facet values, which fix a point of the
    view, and only those leave it (``_PointedView.to_ambient``).
    """
    m = ideal.monoid
    view = m._pointed_view
    if view.dim == 0:
        return (m.to_ambient((0,) * m.rank),)
    points = {vals: pt for pt, vals in view._sweep(ideal.heights)}
    return tuple(sorted(view.to_ambient(points[vals]) for vals in _minimal(points)))


@dataclass(frozen=True)
class CanonicalModule:
    """The interior-point divisorial ideal and its minimal generators."""

    ideal: DivisorialIdeal
    generators: tuple[Vec, ...]


def canonical_module(m: AffineMonoid) -> CanonicalModule:
    """Module of interior lattice points: every facet height equals one.

    On lattice points, being at least one on every facet form is the
    same as being strictly inside the cone.
    """
    ideal = DivisorialIdeal(m, (1,) * len(m.facet_forms))
    return CanonicalModule(ideal, minimal_generators(ideal))


@dataclass(frozen=True)
class DivisorClassGroup:
    """Height vectors modulo the facet values of L: the cokernel of the
    s x d facet matrix F.

    ``invariant_factors`` come from F's elementary divisors, with one
    free factor per missing rank.  ``is_principal`` asks whether the
    heights are the facet values of a point of L, by back-substitution
    in the Hermite form the monoid's pointed view holds for its sweeps,
    and checks that the heights have one entry per facet form.  The
    group holds the monoid, not its view, so the invariant factors alone
    build no Hermite form.
    """

    invariant_factors: tuple[int, ...]
    facet_matrix: IntMatrix
    _monoid: AffineMonoid = field(repr=False, compare=False)

    def _heights(self, heights) -> Vec:
        return _as_vector(heights, self.facet_matrix.shape[0], "need one height per facet form")

    def is_principal(self, heights) -> bool:
        return self._monoid._pointed_view._preimage(self._heights(heights)) is not None


def class_group(m: AffineMonoid) -> DivisorClassGroup:
    m.require_normal()
    divisors = elementary_divisors(m.facet_matrix)
    free = len(m.facet_forms) - len(divisors)
    factors = tuple(e for e in divisors if e > 1) + (0,) * free
    return DivisorClassGroup(factors, m.facet_matrix, m)


def same_class(a: DivisorialIdeal, b: DivisorialIdeal) -> Vec | None:
    """Shift witness g in L with b.heights = a.heights + facet values of g.

    Translation by g then maps a onto b, so the two ideals are
    isomorphic as modules exactly when a witness exists; returns None
    when the classes differ.  On a pointed monoid the witness is
    unique; with units any two witnesses differ by a unit, and the one
    returned is reduced by the units' Hermite basis (``to_ambient``).
    """
    if a.monoid is not b.monoid and (
        a.monoid.facet_forms != b.monoid.facet_forms
        or a.monoid.lattice_basis != b.monoid.lattice_basis
    ):
        raise ValueError("ideals live over different monoids")
    view = a.monoid._pointed_view
    delta = tuple(x - y for x, y in zip(b.heights, a.heights))
    g = view._preimage(delta)
    return None if g is None else view.to_ambient(g)


def is_gorenstein(m: AffineMonoid) -> tuple[bool, Vec | None]:
    """Whether the canonical module is principal, with a certificate.

    The canonical module is the divisorial ideal of height one on every
    facet, so it is principal iff the all-ones heights are the facet
    values of a point g of L, and g is then its generator: one Hermite
    back-substitution in the pointed view (``_PointedView._preimage``)
    decides.  The facet forms are injective on the view, so g is its
    only point with those values, and the certificate is exactly the
    canonical module's single generator.  With units it is reduced by the
    units' Hermite basis, as every point ``same_class`` and
    ``minimal_generators`` return is.  On a cone equal to its whole
    lattice there are no facets, and the certificate is 0.
    """
    m.require_normal()
    view = m._pointed_view
    g = view._preimage((1,) * len(m.facet_forms))
    return (False, None) if g is None else (True, view.to_ambient(g))
