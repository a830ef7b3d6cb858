"""Affine monoids presented inside Z^r.

A presentation is normalized to M = C cap L where L is the group
generated by the input (or the saturated span for cone-defined monoids)
and C is the cone spanned by it; all further computations run in a
basis of L, where C is full-dimensional.  The module computes Hilbert
bases by an exact row sweep (``_region_points``), which holds every
form it checks between a height and a finite cap, and owns every sweep
of a height region {y : F(y) >= h}: ``divisorial`` asks for members and
minimal generators through ``AffineMonoid._members`` and
``_PointedView._sweep``, the one entry to a capped sweep.
Caratheodory's theorem caps every facet value of a minimal member that
is not a ray (``_PointedView._caps``), so the sweep visits only the
points below those caps, and the Hilbert basis adds the rays back.  The
caps come from the region's vertices.  A simplicial view, or the
height-0 region, has one vertex, where the forms equal the heights;
every other region's vertices are the extreme rays of its homogenized
cone, by the double description of ``cone`` (``_region_vertices``).  The
monoid modulo its units, the pointed view, is read off one Hermite form
of the facet matrix F, (H, W, K) = ``exact_linalg._quotient(F)``, for
every monoid: its coordinates are z, and its forms the columns of H,
each zero after the last row whose pivot lies at or before it, so the
sweep checks a form exactly there, and the box of z follows from the
pivot forms and their caps.  That box may hold capped points outside the
zonotope box, which the filter drops.  Every sweep is guarded once,
before any point, by the count of the frame it scans (``_echelon_box``).
H also answers which point of L has given facet values
(``_PointedView._preimage``), for the rays of the Hilbert basis and for
the class group and the shift witnesses in ``divisorial``.

The Hilbert basis is the set of minimal nonzero points of M modulo
units, and an ideal's minimal generators are its minimal members, both
in the monoid's order, which on the pointed view is the componentwise
order of facet values.  One filter, ``_minimal``, keeps them from the
points a sweep found, so the minimal generators of an ideal need no
Hilbert basis.  The module also decides whether a generating set
actually generates C cap L (with an explicit witness when it does not)
and extracts unit subgroups.

Units are the lattice points of the cone's lineality space.  A
presentation is normal iff its unit generators generate that lattice
and each Hilbert basis element shares its facet values with some
generator, so no membership search runs.

Vectors returned to callers are always in the ambient Z^r coordinates,
which keeps results independent of the internal basis choice for L.
Every point of the pointed view is held in z: swept points, Hilbert
elements, the rays among them and the points ``_preimage`` finds.  Each
leaves by one exit, ``_PointedView.to_ambient``: one product with
W @ basis, composed once per view, reduced by the Hermite basis of the
ambient units, so each answer up to a unit is one representative
whatever section the Hermite form picked.  The product takes the int
tuple the package built as it is (``IntMatrix._rmul``), with no second
reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import gcd
from operator import add, ge

from .cone import Cone, _dd, _facets_of_generators, _primitive_set
from .exact_linalg import (
    EnumerationLimitError,
    IntMatrix,
    Vec,
    _as_vector,
    _as_vectors,
    _divmod,
    _dot,
    _eliminate,
    _identity,
    _quotient,
    kernel_basis,
    row_lattice_basis,
)

_MAX_ENUMERATION = 2_000_000


class NonNormalError(ValueError):
    """A generating set does not generate its saturation C cap L.

    ``witness`` is an element of C cap L that the generators miss;
    normalize first, or work with the cone-defined monoid, to study the
    saturation itself.
    """

    def __init__(self, message: str, witness: Vec):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class _PointedView:
    """The monoid modulo its unit group, (H, W, K) = ``_quotient(F)``
    of the facet matrix F, in the coordinates z, where F(z @ W) = z @ H.

    ``_sweep`` is the one entry to every capped sweep, and every point
    of the view is held in z until ``to_ambient`` takes it to Z^r.  The
    exit, the units and the rays are built on first use.
    """

    hermite: IntMatrix  # H, (dim, s)
    section: IntMatrix  # W, (dim, d): z -> z @ W is a section of L -> L / units
    kernel: IntMatrix  # K, (u, d): a basis of the units in L, no rows when pointed
    basis: IntMatrix  # (d, r): the basis of L
    cone: Cone  # the monoid's cone in L

    @property
    def dim(self) -> int:
        return len(self.hermite)

    @property
    def forms(self) -> IntMatrix:
        return self.hermite.T

    def to_ambient(self, z) -> Vec:
        """The point of the view with coordinates z, an int tuple the
        package built, in Z^r: z @ (W @ basis), taken as built
        (``IntMatrix._rmul``), reduced by ``units``, the one point of its
        class with entries in [0, pivot) at their pivots."""
        return _divmod(self.units, self._exit._rmul(z))[1]

    @cached_property
    def _exit(self) -> IntMatrix:
        """W @ basis, composed once: coordinates z to Z^r in one product."""
        return self.section @ self.basis

    @cached_property
    def units(self) -> IntMatrix:
        """The Hermite basis of the ambient unit lattice, K @ basis."""
        if not self.kernel:
            return IntMatrix._of((), self.basis.shape[1])
        return row_lattice_basis(self.kernel @ self.basis)

    @cached_property
    def _rays(self) -> tuple[Vec, ...]:
        """The facet values of the view's primitive extreme rays, each
        once: F(r) = z @ H for the class z of a cone ray r, which is
        primitive when the monoid is pointed.  With units the cone may
        keep several generators of a class, not all primitive (on x >= y
        with units (1, 1), (1, -1) is twice its class), so z is solved
        and F(r) divided by the gcd of z."""
        rays = [tuple(_dot(f, r) for f in self.cone.facet_forms) for r in self.cone.rays]
        if self.kernel:
            rays = {tuple(x // g for x in vals)
                    for vals in rays for g in (gcd(*_divmod(self.hermite, vals)[0]),)}
        return tuple(rays)

    @cached_property
    def ray_sums(self) -> Vec:
        """S_f per facet form f: the sum of the dim largest values of f
        on the rays, the most f reaches on a sum of at most dim distinct
        rays (Caratheodory's bound, see ``_caps``).
        Each S_f is at least 1: f is nonzero and the cone full-dimensional,
        so f is positive on some extreme ray."""
        return tuple(sum(sorted(col, reverse=True)[: self.dim]) for col in zip(*self._rays))

    def _caps(self, heights) -> Vec:
        """The cap ceil(V_f) + S_f - 1 per facet form f on the minimal
        members of the region {y : F(y) >= heights}, where V_f is the
        largest value of f on the region's rational vertices and S_f is
        ``ray_sums``.

        Every member y splits as q + c with q in the convex hull of the
        vertices and c in the cone, and by Caratheodory c = sum mu_k r_k
        over at most dim linearly independent extreme rays.  If some
        mu_k >= 1, y - r_k still lies in the region, so a minimal member
        has every mu_k < 1.  Then f(y) <= V_f + sum mu_k f(r_k), and
        that sum is below S_f unless it is 0, where S_f >= 1; so the
        integer f(y) is at most ceil(V_f) + S_f - 1.  The Hilbert basis
        is the height-0 region's case, with the cap S_f - 1: an
        irreducible h with some mu_k >= 1 is the ray r_k, since h - r_k
        would otherwise be a nonzero cone point.

        The region has one vertex, the point where F = heights, when the
        heights are all 0 (the cone is pointed) or the view is
        simplicial, with one height per form: its dim forms are the rows of a dim x dim matrix F of
        rank dim (they span the dual of a full-dimensional cone), so F is
        invertible over Q, and any vertex is tight on dim independent
        forms, here all of them.  Then V_f = heights_f, an integer, and
        the caps are heights + S - 1.  Every other region reads its
        vertices off ``_region_vertices``.
        """
        if len(heights) == self.dim or not any(heights):
            return tuple([h + s - 1 for h, s in zip(heights, self.ray_sums)])
        verts = _region_vertices(self.forms, heights, self.dim)
        return tuple([max(-(-_dot(f, y) // t) for y, t in verts) + s - 1
                      for f, s in zip(self.forms, self.ray_sums)])

    def _sweep(self, heights):
        """``_region_points`` over the z with heights <= z @ H <= caps,
        the caps ``_caps(heights)``.  The frame is guarded here, before
        any point is swept.

        It yields (z, F(z @ W)): the forms are the columns of H and the
        box, bounded by ``_echelon_box``, is in z.  Coordinate i is the
        last that row i's pivot form p involves, so the sweep checks p
        and every form between the pivots exactly there.  No capped
        point is lost, though some may lie outside the zonotope box.
        """
        caps = self._caps(heights)
        lo, hi = _echelon_box(self.hermite, heights, caps)
        return _region_points(self.forms, heights, lo, hi, caps)

    def _preimage(self, values) -> Vec | None:
        """The z with z @ H = values, or None when values is not in F(L),
        by back-substitution in the Hermite form.  H has full row rank,
        so z is the only solution, and F(L) is the row lattice of H, as
        the forms vanish on the units.  ``to_ambient(z)`` is the point in
        Z^r."""
        x, rest = _divmod(self.hermite, values)
        return None if any(rest) else x


def _guard_box(count: int, what: str) -> None:
    """Refuse an enumeration of more than ``_MAX_ENUMERATION`` points; the
    error names the frame or box that was counted."""
    if count > _MAX_ENUMERATION:
        raise EnumerationLimitError(
            "%s has %d points, beyond the supported desk scale" % (what, count)
        )


def _echelon_box(h, heights, caps) -> tuple[list[int], list[int]]:
    """(lo, hi) for a sweep over the y with heights <= y @ h <= caps,
    column by column, where ``h`` is an echelon form with positive
    pivots, guarded by the count of the frame.

    Coordinate i is the last that column p, row i's pivot, involves, with
    the coefficient c = h[i][p] > 0.  Its bounds come from column p
    alone: it must reach heights[p] and stay within caps[p] whatever
    coordinates 0..i-1 add inside their own bounds.  Once those are
    fixed, column p takes values c apart, so coordinate i takes at most
    n_i = (caps[p] - heights[p]) // c + 1 values.  The sweep enters at
    most n_0 * ... * n_i prefixes of length i + 1; the guard counts the
    product of all max(n_i, 1), which bounds each of these.
    """
    lo, hi = [], []
    count = 1
    for i, row in enumerate(h):
        p = next(j for j, c in enumerate(row) if c)
        c = row[p]
        least = most = 0  # the range of coordinates 0..i-1 on column p
        for k in range(i):
            a = h[k][p]
            least += min(a * lo[k], a * hi[k])
            most += max(a * lo[k], a * hi[k])
        lo.append(-((most - heights[p]) // c))
        hi.append((caps[p] - least) // c)
        count *= max((caps[p] - heights[p]) // c + 1, 1)
    _guard_box(count, "echelon sweep")
    return lo, hi


class AffineMonoid:
    """M = C cap L, with the presentation that produced it.

    A monoid is built only by :func:`normalize_presentation`, for a
    monoid given by generators (which may fail to be normal), or by
    :func:`monoid_from_cone_rays`, for the monoid of all lattice points
    of a cone (normal by definition).  Both hold L in its Hermite
    basis, and only the cone's monoid skips the normality check.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("an AffineMonoid is built by normalize_presentation or "
                        "monoid_from_cone_rays")

    @classmethod
    def _of(cls, ambient_rank: int, generators, lattice_basis, local_generators,
            assume_normal: bool) -> AffineMonoid:
        """The one constructor, which only the two factories call: the
        monoid of int-tuple vectors a factory has read, taken as read,
        with L in its Hermite basis, and normal without a check when
        ``assume_normal`` (the monoid of a cone's lattice points)."""
        self = cls.__new__(cls)
        self.ambient_rank = ambient_rank
        self.generators = generators
        self.lattice_basis = lattice_basis  # (d, r) rows, canonical Hermite basis
        self.local_generators = local_generators
        self._assume_normal = assume_normal
        return self

    # -- coordinates -------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.lattice_basis)

    def to_ambient(self, local) -> Vec:
        return local @ self.lattice_basis

    def to_local(self, ambient) -> Vec | None:
        """Coordinates in the basis of L, or None when the point is not in L."""
        ambient = _as_vector(ambient, self.ambient_rank, "point does not match the ambient rank")
        x, rest = _divmod(self.lattice_basis, ambient)
        return None if any(rest) else x

    # -- cone structure ----------------------------------------------

    @cached_property
    def cone(self) -> Cone:
        return _facets_of_generators(_primitive_set(self.local_generators), self.rank)

    @property
    def facet_forms(self) -> tuple[Vec, ...]:
        return self.cone.facet_forms

    @cached_property
    def facet_matrix(self) -> IntMatrix:
        return IntMatrix._of(self.cone.facet_forms, self.rank)

    def facet_values(self, ambient) -> Vec:
        """Values of the facet forms at a point of L."""
        local = self.to_local(ambient)
        if local is None:
            raise ValueError("point is not in the monoid's group L")
        return self._facet_values_local(local)

    def _facet_values_local(self, local) -> Vec:
        return tuple(_dot(f, local) for f in self.cone.facet_forms)

    @property
    def unit_rank(self) -> int:
        return len(self.cone.lineality)

    @property
    def is_pointed(self) -> bool:
        return self.unit_rank == 0

    def unit_basis(self) -> tuple[Vec, ...]:
        """Canonical (Hermite) ambient basis of the unit group
        {x in M : -x in M}, empty when M is pointed."""
        return self._pointed_view.units

    # -- membership ---------------------------------------------------

    def contains(self, ambient, interior: bool = False) -> bool:
        """Membership in C cap L (the normalization of the presentation)."""
        local = self.to_local(ambient)
        if local is None:
            return False
        bound = 1 if interior else 0
        return all(v >= bound for v in self._facet_values_local(local))

    # -- normality ----------------------------------------------------

    @cached_property
    def _normality(self) -> tuple[bool, Vec | None]:
        """(is_normal, witness), with no membership search.

        The unit generators positively span the lineality space, so they
        generate its lattice as a monoid once they do as a group.  A
        Hilbert element is irreducible modulo units, and points with
        equal facet values differ by a unit, so the generators reach it
        iff one of them has its facet values; the witness is the least
        missing Hilbert representative in ambient order.
        """
        if self._assume_normal:
            return True, None
        if self.unit_rank:
            unit_gens = [g for g in self.local_generators
                         if not any(self._facet_values_local(g))]
            gen_lattice = row_lattice_basis(IntMatrix._of(unit_gens, self.rank))
            for row in self.cone.lineality:
                if any(_divmod(gen_lattice, row)[1]):
                    return False, self.to_ambient(row)
        gen_vals = {self._facet_values_local(g) for g in self.local_generators}
        view = self._pointed_view
        missing = [view.to_ambient(p) for p, vals in self._pointed_hilbert if vals not in gen_vals]
        return (False, min(missing)) if missing else (True, None)

    @property
    def is_normal(self) -> bool:
        return self._normality[0]

    @property
    def normality_witness(self) -> Vec | None:
        return self._normality[1]

    def require_normal(self) -> None:
        ok, witness = self._normality
        if not ok:
            raise NonNormalError(
                "presentation does not generate its saturation; "
                "witness %s lies in C cap L but not in the monoid" % (witness,),
                witness,
            )

    # -- Hilbert basis ------------------------------------------------

    @cached_property
    def _pointed_view(self) -> _PointedView:
        return _PointedView(*_quotient(self.facet_matrix), self.lattice_basis, self.cone)

    @cached_property
    def _pointed_hilbert(self) -> tuple[tuple[Vec, Vec], ...]:
        """(coordinates z, facet values) of the pointed Hilbert basis,
        sorted by z."""
        return _pointed_hilbert_basis(self._pointed_view)

    def hilbert_basis(self) -> tuple[Vec, ...]:
        """Irreducible nonunits of M, modulo units, in ambient coordinates.

        With units present, each class gets its representative reduced
        by the units' Hermite basis.  The presentation must be normal,
        otherwise :class:`NonNormalError` explains the gap.
        """
        self.require_normal()
        view = self._pointed_view
        return tuple(sorted(view.to_ambient(p) for p, _ in self._pointed_hilbert))

    def _members(self, heights, box: int) -> tuple[Vec, ...]:
        """The points of L with facet values at least ``heights`` and
        ambient coordinates in [-box, box], sorted.

        One sweep of ``_region_points`` over the local coordinates y of L:
        the facet forms at the heights, and the r ambient coordinates of
        y, read off the columns of the lattice basis, with height -box and
        cap box.  So only members are visited at the last coordinate, and
        each is read off the ambient values with no lattice solve.  The
        local box comes from the Hermite pivots of the basis
        (``_echelon_box``): the ambient coordinate at row i's pivot is y_i
        times the pivot plus the earlier rows' entries there, which bounds
        |y_i| in turn.  Each facet form is capped at the most it reaches
        on that box, which no point of it exceeds.  The guard counts that
        frame, at most (2 box + 1)^d points.
        """
        r = self.ambient_rank
        basis = self.lattice_basis
        lo, hi = _echelon_box(basis, [-box] * r, [box] * r)
        s = len(heights)
        forms = list(self.facet_forms) + [tuple(row[j] for row in basis) for j in range(r)]
        heights = list(heights) + [-box] * r
        caps = [sum(max(c * a, c * b) for c, a, b in zip(f, lo, hi)) for f in self.facet_forms]
        caps += [box] * r
        return tuple(sorted(vals[s:] for _, vals in _region_points(forms, heights, lo, hi, caps)))


def _region_points(forms, heights, lo, hi, caps):
    """Yield (y, forms(y)) for every integer y in the box [lo, hi] with
    heights <= forms(y) <= caps, in the lexicographic order of the box.
    ``caps`` holds one finite upper bound per form.  The box has at
    least one coordinate.

    The sweep fixes one coordinate at a time and adds that coordinate's
    column of the forms to the running facet values, so no point costs a
    dot product.  At each coordinate the feasible values form an interval,
    solved exactly from both sides by floor and ceiling division
    (``interval``, once per prefix tried, the empty one included): every
    form must still reach its height when the remaining coordinates add
    the most the box allows, and stay within its cap when they add the
    least.  Those bounds never drop a point; at the last coordinate
    nothing remains, so only the points yielded are visited there.  One
    loop walks the prefixes depth first, with the value, the interval's
    end and the running values of each fixed coordinate on a stack.
    """
    k = len(lo)
    cols = [tuple([f[i] for f in forms]) for i in range(k)]
    # need[i][j] / top[i][j]: the least / greatest value form j may have
    # after coordinate i so that coordinates i+1.. can still bring it
    # into [heights[j], caps[j]]
    need = [()] * k
    top = [()] * k
    acc = tuple(heights)
    cap = tuple(caps)
    for i in reversed(range(k)):
        need[i] = acc
        top[i] = cap
        a, b = lo[i], hi[i]
        acc = tuple([s - (c * b if c > 0 else c * a) for s, c in zip(acc, cols[i])])
        cap = tuple([u - (c * a if c > 0 else c * b) for u, c in zip(cap, cols[i])])

    def interval(i, vals):
        """(a, b), the values coordinate i may take after a prefix with the
        running values ``vals``, or None when there is none."""
        a, b = lo[i], hi[i]
        for v, c, h, u in zip(vals, cols[i], need[i], top[i]):
            if c > 0:
                t = -((v - h) // c)  # v + c*t >= h, t >= ceil((h - v) / c)
                if t > a:
                    a = t
                t = (u - v) // c  # v + c*t <= u, t <= floor((u - v) / c)
                if t < b:
                    b = t
            elif c < 0:
                t = (h - v) // c  # t <= floor((h - v) / c)
                if t < b:
                    b = t
                t = -((v - u) // c)  # t >= ceil((u - v) / c)
                if t > a:
                    a = t
            elif v < h or v > u:
                return None
        return (a, b) if a <= b else None

    # the stack: value, interval end and running values per prefix coordinate
    last = k - 1
    ts, ends, rows = [0] * last, [0] * last, [()] * last
    i, vals = 0, (0,) * len(forms)
    while True:
        span = interval(i, vals)
        if span is not None:
            a, b = span
            vals = tuple([v + a * c for v, c in zip(vals, cols[i])])
            if i < last:
                ts[i], ends[i], rows[i] = a, b, vals
                i += 1
                continue
            head = tuple(ts)
            col = cols[i]
            for t in range(a, b + 1):
                yield head + (t,), vals
                vals = tuple(map(add, vals, col))
        # back to the deepest fixed coordinate with a value left
        i -= 1
        while i >= 0 and ts[i] == ends[i]:
            i -= 1
        if i < 0:
            return
        ts[i] += 1
        vals = rows[i] = tuple(map(add, rows[i], cols[i]))
        i += 1


def _region_vertices(forms, heights, dim) -> list[tuple[Vec, int]]:
    """Rational vertices y / t of {y : forms(y) >= heights}, as integer
    pairs (y, t) with t > 0, each once: the extreme rays with t > 0 of
    the homogenized cone {(y, t) : forms(y) >= t * heights, t >= 0}, by
    double description (``cone._dd``).  That cone is pointed, since the
    forms have full column rank, so a ray with t = 0 is a ray of the
    region's recession cone and every other ray is a vertex, scaled."""
    rows = [f + (-h,) for f, h in zip(forms, heights)]
    rows.append((0,) * dim + (1,))
    rays = _dd(IntMatrix._of(rows, dim + 1))[0]
    return [(r[:-1], r[-1]) for r in rays if r[-1] > 0]


def _minimal(values) -> list[Vec]:
    """The minimal vectors among ``values``, distinct facet value
    vectors of points of the pointed view, in the componentwise order,
    which is the monoid's order on those points: sorted by total, a
    vector is kept iff it lies above no kept vector of strictly smaller
    total.

    That is exact on any set of points of one region (the nonzero cone
    points, or an ideal's members) that holds the region's minimal
    points.  A dominated vector differs from the one below it by the
    values of a nonzero cone point, whose total is positive, as the cone
    is pointed.  So it lies above a minimal point of smaller total,
    which came first and was kept.  Vectors of equal total are never
    compared.
    """
    kept: list[Vec] = []
    below, total = 0, None  # the kept vectors of total smaller than ``total``
    for t, vals in sorted((sum(vals), vals) for vals in values):
        if t != total:
            below, total = len(kept), t
        for low in islice(kept, below):
            if all(map(ge, vals, low)):
                break
        else:
            kept.append(vals)
    return kept


def _pointed_hilbert_basis(view: _PointedView) -> tuple[tuple[Vec, Vec], ...]:
    """Hilbert basis of the pointed view, as (coordinates z, facet
    values) pairs sorted by z.

    The Hilbert basis is the set of minimal nonzero points of the cone.
    By Caratheodory every element that is not a ray has each facet value
    f at most S_f - 1 (``_PointedView._caps`` of the height-0 region,
    whose one vertex is the origin), so the sweep caps f there, and the
    rays the caps cut off come back by their facet values
    (``_PointedView._rays``, solved by ``_preimage``), since primitive
    extreme rays are irreducible.  ``_PointedView._sweep`` scans and guards the echelon
    frame over every capped point, some of them outside the zonotope
    box.  Facet values fix a point of a pointed cone, and ``_minimal``
    keeps the Hilbert basis among the nonzero candidates.
    """
    if view.dim == 0:
        return ()
    points = {vals: pt for pt, vals in view._sweep((0,) * len(view.forms)) if any(vals)}
    for vals in view._rays:
        if vals not in points:
            points[vals] = view._preimage(vals)
    return tuple(sorted((points[vals], vals) for vals in _minimal(points)))


def normalize_presentation(generators) -> AffineMonoid:
    """Monoid generated by the given ambient vectors.

    L is the group they generate; the generators are rewritten in the
    canonical (Hermite) basis of L, where the cone they span is
    full-dimensional.  The result represents C cap L; whether the input
    actually generates all of it is reported by ``is_normal``.  The
    monoid takes the generators as read here (``AffineMonoid._of``).
    """
    gens = _as_vectors(generators, "generators")
    if not gens:
        raise ValueError("generator list is empty")
    r = len(gens[0])
    if all(not any(g) for g in gens):
        raise ValueError("generators span the zero lattice")
    basis = row_lattice_basis(gens)
    local = tuple(x for x in (_divmod(basis, g)[0] for g in gens) if any(x))
    return AffineMonoid._of(r, gens, basis, local, False)


def monoid_from_cone_rays(rays) -> AffineMonoid:
    """Monoid of all lattice points of the cone spanned by ``rays``.

    L is the saturated lattice span(rays) cap Z^r, so the result is
    normal by definition whatever the rays generate.  One elimination
    of the rays as read here gives their rank, with no second reading.
    Only a lower-rank span needs a saturation: the kernel rows K of the
    quotient by the rays (``_quotient``) span their orthogonal
    complement, as [W; K] is unimodular, and the kernel basis of K is
    the Hermite basis of L.  The monoid takes the rays as read here
    (``AffineMonoid._of``).
    """
    rs = _as_vectors(rays, "rays")
    if not rs:
        raise ValueError("ray list is empty")
    r = len(rs[0])
    rs = tuple(v for v in rs if any(v))
    if not rs:
        raise ValueError("rays span the zero lattice")
    if len(_eliminate(rs, r)[1]) == r:
        # L = Z^r: its Hermite basis is the identity, and the rays are local already
        return AffineMonoid._of(r, rs, IntMatrix._of(map(tuple, _identity(r)), r), rs, True)
    basis = kernel_basis(_quotient(IntMatrix._of(rs, r))[2])
    local = tuple(_divmod(basis, v)[0] for v in rs)
    return AffineMonoid._of(r, rs, basis, local, True)


def hilbert_basis(m: AffineMonoid) -> tuple[Vec, ...]:
    return m.hilbert_basis()
