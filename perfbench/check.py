"""Result checks, run after the timed region.

Cone answers are compared with independent routes: the brute-force
oracles in ``tests/oracles.py`` (Fourier-Motzkin facets, box-scanned
irreducibles and interior points, minor-gcd invariant factors) where
they finish in milliseconds, and otherwise facet normals of ray subsets
and a list-based Smith elimination written here.  Fourier-Motzkin keeps
every redundant form, so it is used up to rank 3 only: on a rank-4 cone
with six rays it produced 1.2 million forms in 55 s.  Ideal answers are
checked by their defining properties (gradedness, membership, the known
height of each prime family, 1 <= tau <= sigma).

``check(job, result)`` returns None for a correct result and a one-line
reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from jobs import ROOT, groebner

TESTS = os.path.join(ROOT, "tests")
if not os.path.isfile(os.path.join(TESTS, "oracles.py")):
    raise SystemExit("perfbench: no test oracles under %s" % TESTS)
sys.path.append(TESTS)

import oracles  # noqa: E402

BIG_BUDGET = 10_000_000
MINOR_ORACLE_LIMIT = 1000  # k x k minors the determinantal oracle may expand


# -- cone references ---------------------------------------------------


def exact_rank(rows) -> int:
    """Exact rank of integer or rational rows, by fraction-free
    elimination (each row below the pivot becomes a cross-multiple)."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                a = rows[i][c]
                rows[i] = [top[c] * x - a * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _normals(rays, d):
    """Signed maximal minors of every d-1 of ``rays``, one row per subset:
    the subset's normal, zero when the rays are dependent.  The minors are
    float determinants rounded to integers; the Hadamard bound checked
    here keeps every determinant below 2^40, far inside float precision,
    else the oracle's integer expansion computes them."""
    subsets = np.array(list(itertools.combinations(rays, d - 1)), dtype=np.int64)
    if np.prod(np.linalg.norm(subsets, axis=2), axis=1).max() >= 2.0 ** 40:
        return np.array([[(-1) ** j * oracles.det_int([r[:j] + r[j + 1:] for r in sub.tolist()])
                          for j in range(d)] for sub in subsets], dtype=object)
    return np.stack([(-1) ** j * np.rint(np.linalg.det(np.delete(subsets, j, axis=2)))
                     for j in range(d)], axis=1).astype(np.int64)


def subset_facets(rays):
    """Facet forms of a full-dimensional cone: every facet is spanned by
    d-1 independent rays, so each such subset's normal that keeps all rays
    on one side is a facet."""
    normals = _normals(rays, len(rays[0]))
    vals = normals @ np.array(rays, dtype=normals.dtype).T
    upper = (vals >= 0).all(axis=1)
    lower = (vals <= 0).all(axis=1)
    return sorted({oracles.make_primitive(v if up else -v)
                   for v, up, low in zip(normals, upper, lower) if (up or low) and v.any()})


def zonotope_points(rays) -> int:
    """Lattice points of the bounding box of the zonotope of ``rays``."""
    lo, hi = oracles.zonotope_box(rays)
    return math.prod(b - a + 1 for a, b in zip(lo, hi))


class ConeRef:
    """Facets, extreme rays and enumeration box sizes of cone(rays)."""

    def __init__(self, rays, oracle=True):
        """``oracle=False`` finds the facets of rank 2-3 cones by ray
        subsets too, which is faster than the Fourier-Motzkin oracle."""
        rays = sorted({oracles.make_primitive(r) for r in rays})
        d = len(rays[0])
        self.dim = d
        self.facets = oracles.true_facets(rays) if d <= 3 and oracle else subset_facets(rays)
        self.rays = [r for r in rays
                     if exact_rank([f for f in self.facets if oracles.dot(f, r) == 0]) == d - 1]

    def hilbert_box_points(self) -> int:
        """Points of the zonotope bounding box the Hilbert basis scan visits."""
        return zonotope_points(self.rays)

    def mingen_box_points(self) -> int:
        """Points of the box minimal_generators scans for the canonical
        module."""
        lo, hi = self.mingen_box()
        return math.prod(b - a + 1 for a, b in zip(lo, hi))

    def mingen_box(self):
        """Vertex box of {facets >= 1} plus the ray zonotope: every
        minimal interior point lies in it."""
        verts = self._canonical_vertices()
        zlo, zhi = oracles.zonotope_box(self.rays)
        lo = [math.floor(min(v[i] for v in verts) + zlo[i]) for i in range(self.dim)]
        hi = [math.ceil(max(v[i] for v in verts) + zhi[i]) for i in range(self.dim)]
        return lo, hi

    def _canonical_vertices(self):
        """Vertices of {facets >= 1}.  A vertex solves F x = 1 for d
        independent facets F; by Cramer's rule it is (D_1, ..., D_d) / D,
        with D = det F and D_i the determinant of F with column i set to
        ones.  The determinants are float determinants rounded to integers
        under the Hadamard bound of ``_normals``, and facets shorter than
        2^20 keep the facet values of the numerators inside int64; else the
        oracle solves each system in fractions."""
        d = self.dim
        facets = np.array(self.facets, dtype=np.int64)
        mats = facets[np.array(list(itertools.combinations(range(len(facets)), d)))]
        if (np.prod(np.sqrt((mats ** 2).sum(axis=2) + 1.0), axis=1).max() >= 2.0 ** 40
                or np.linalg.norm(facets, axis=1).max() >= 2.0 ** 20):
            return self._canonical_vertices_exact()
        stack = [mats]
        for i in range(d):
            m = mats.copy()
            m[:, :, i] = 1
            stack.append(m)
        dets = np.rint(np.linalg.det(np.stack(stack))).astype(np.int64)  # (d + 1, subsets)
        den, nums = dets[0], dets[1:].T
        keep = den != 0
        sign = np.sign(den[keep])
        den, nums = den[keep] * sign, nums[keep] * sign[:, None]
        vertex = (nums @ facets.T >= den[:, None]).all(axis=1)
        return [tuple(Fraction(int(n), int(q)) for n in row)
                for row, q in zip(nums[vertex], den[vertex])]

    def _canonical_vertices_exact(self):
        verts = []
        for sub in itertools.combinations(self.facets, self.dim):
            sol = oracles.frac_solve_unique([list(f) for f in sub], [1] * self.dim)
            if sol is not None and all(
                sum(Fraction(a) * x for a, x in zip(f, sol)) >= 1 for f in self.facets
            ):
                verts.append(sol)
        return verts

    def covered(self, box, gens, height=0) -> bool:
        """Every nonzero lattice point of ``box`` with all facet values at
        least ``height`` is some element of ``gens`` plus a cone point.

        The facet values determine a point, so a box point that is not in
        ``gens`` and covers nothing is a missing minimal element.
        """
        lo, hi = box
        axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        forms = np.array(self.facets, dtype=np.int64).T
        vals = points @ forms
        vals = vals[(vals >= height).all(axis=1) & vals.any(axis=1)]
        gen_vals = np.array(gens, dtype=np.int64).reshape(-1, self.dim) @ forms
        return bool((vals[:, None, :] >= gen_vals[None, :, :]).all(axis=2).any(axis=1).all())

    def values(self, x):
        return [oracles.dot(f, x) for f in self.facets]

    def contains(self, x, height=0) -> bool:
        return all(v >= height for v in self.values(x))


def cone_ref(job) -> ConeRef:
    """The job's cone reference, built once and kept on the job."""
    if "ref" not in job:
        rays = job["input"]
        if job["kind"] == "cli-small":
            rays = json.loads(rays)["rays"]
        job["ref"] = ConeRef(rays)
    return job["ref"]


def smith_diagonal(rows):
    """Nonzero Smith invariants by plain gcd elimination on int lists."""
    a = [[int(x) for x in r] for r in rows]
    diag = []
    while a and a[0]:
        nonzero = [(abs(x), i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        a[0], a[i] = a[i], a[0]
        for r in a:
            r[0], r[j] = r[j], r[0]
        p = a[0][0]
        clean = True
        for r in a[1:]:
            q = r[0] // p
            if q:
                r[:] = [x - q * y for x, y in zip(r, a[0])]
            clean = clean and r[0] == 0
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            if q:
                for r in a:
                    r[j] -= q * r[0]
            clean = clean and a[0][j] == 0
        if not clean:
            continue
        bad = next((r for r in a[1:] if any(x % p for x in r[1:])), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], bad)]
            continue
        diag.append(abs(p))
        a = [r[1:] for r in a[1:]]
    return diag


def class_group_of(facets, dim):
    """Invariant factors of Z^facets / (facet matrix) Z^dim in the
    library's format: torsion factors > 1, then one 0 per free factor."""
    s = len(facets)
    minors = sum(math.comb(s, k) * math.comb(dim, k) for k in range(1, dim + 1))
    if minors <= MINOR_ORACLE_LIMIT:
        diag = list(oracles.minor_gcd_factors([list(f) for f in facets]))
    else:
        diag = smith_diagonal(facets)
    return tuple(x for x in diag if x > 1) + (0,) * (s - len(diag))


# -- per-workload checks -------------------------------------------------


def _tuples(vs):
    return sorted(tuple(int(x) for x in v) for v in vs)


def _irreducible_within(ref, basis):
    """No element of ``basis`` minus another stays in the cone."""
    for x in basis:
        for b in basis:
            if b != x and ref.contains([p - q for p, q in zip(x, b)]):
                return False
    return True


def _check_monoid(ref, res):
    if _tuples(res["facets"]) != ref.facets:
        return "facet forms differ from the oracle"
    hb = _tuples(res["hilbert"])
    if ref.dim <= 3:
        if hb != oracles.brute_irreducibles(ref.rays, 0):
            return "Hilbert basis differs from the box-scan oracle"
    elif not (all(any(x) and ref.contains(x) for x in hb)
              and all(r in hb for r in ref.rays) and _irreducible_within(ref, hb)):
        return "Hilbert basis is not an irreducible set of cone points holding the rays"
    elif not ref.covered(oracles.zonotope_box(ref.rays), hb):
        # every irreducible lies in the zonotope box; with the check above
        # this pins the Hilbert basis exactly
        return "Hilbert basis misses an irreducible point of the zonotope box"
    can = _tuples(res["canonical"])
    if ref.dim <= 2:
        if can != oracles.brute_minimal_interior(ref.rays):
            return "canonical generators differ from the box-scan oracle"
    elif not all(ref.contains(g, 1) and not any(
            ref.contains([p - q for p, q in zip(g, b)], 1) for b in hb) for g in can):
        return "a canonical generator is not interior or not minimal"
    elif not ref.covered(ref.mingen_box(), can, 1):
        return "canonical generators miss a minimal interior point of the box"
    if tuple(res["class_group"]) != class_group_of(ref.facets, ref.dim):
        return "class group differs from the oracle"
    return _check_gorenstein(ref, res["gorenstein"], res["certificate"], len(can))


def _check_gorenstein(ref, gor, cert, canonical_count):
    if gor != (canonical_count == 1):
        return "Gorenstein decision disagrees with the canonical generator count"
    if gor and (cert is None or ref.values(cert) != [1] * len(ref.facets)):
        return "Gorenstein certificate does not have all facet values 1"
    if not gor and cert is not None:
        return "certificate given for a non-Gorenstein monoid"
    return None


def _check_cone(ref, res):
    if _tuples(res["facets"]) != ref.facets:
        return "facet forms differ from the ray-subset oracle"
    if _tuples(res["rays"]) != ref.rays:
        return "extreme rays differ from the oracle"
    if tuple(res["back_rays"]) != tuple(res["rays"]):
        return "round trip changed the extreme rays"
    if tuple(res["back_facets"]) != tuple(res["facets"]):
        return "round trip changed the facet forms"
    if tuple(res["class_group"]) != class_group_of(ref.facets, ref.dim):
        return "class group differs from the Smith oracle"
    return None


def _multidegree(e, grading):
    return tuple(sum(x * d[i] for x, d in zip(e, grading)) for i in range(len(grading[0])))


def _graded(f, grading) -> bool:
    return len({_multidegree(e, grading) for e in f.terms}) <= 1


def _normal_form_rank(monomials, gb, order, n) -> int:
    """Rank of the normal forms of ``monomials`` modulo ``gb``: the
    number of monomials minus the dimension of the ideal in their span."""
    rows = [groebner.normal_form(groebner.Polynomial.monomial(e, 1, n), gb, order,
                                 BIG_BUDGET).terms for e in monomials]
    cols = sorted({t for r in rows for t in r})
    return exact_rank([[r.get(t, 0) for t in cols] for r in rows]) if cols else 0


def _check_graded_subideal(what, inp, gens):
    """``gens`` are graded, lie in the input ideal I, and generate every
    graded element of I up to total degree one above the largest degree
    of the input and of ``gens``: in each multidegree, I and the ideal of
    ``gens`` meet the span of the monomials in subspaces of equal
    dimension.  So a hull or graded core that is too small fails."""
    n = inp["vars"]
    grading = inp["grading"]
    names = groebner.default_variables(n)
    order = groebner.grevlex(n)
    ideal = [groebner.parse_polynomial(s, names) for s in inp["polys"]]
    gb = groebner.buchberger(ideal, order, BIG_BUDGET)
    for g in gens:
        if not _graded(g, grading):
            return "%s generator is not graded" % what
        if not groebner.normal_form(g, gb, order, BIG_BUDGET).is_zero:
            return "%s generator is not in the input ideal" % what
    gens_gb = groebner.buchberger(list(gens), order, BIG_BUDGET) if gens else ()
    top = max(f.total_degree() for f in ideal + list(gens)) + 1
    pieces = {}
    for e in itertools.product(range(top + 1), repeat=n):
        if sum(e) <= top:
            pieces.setdefault(_multidegree(e, grading), []).append(e)
    for degree, monomials in sorted(pieces.items()):
        if (_normal_form_rank(monomials, gb, order, n)
                != _normal_form_rank(monomials, gens_gb, order, n)):
            return "%s misses a graded element of the ideal in degree %s" % (what, degree)
    return None


def _check_prime(inp, height, res, point):
    if res["dim_p"] != height:
        return "height %d of the prime, expected %d" % (res["dim_p"], height)
    if res["sigma"] != exact_rank(inp["grading"]):
        return "sigma differs from the rank of the degree matrix"
    tau = res["tau"]
    if tau != res["dim_p"] - res["dim_p_star"]:
        return "tau is not the height drop"
    if point and tau != res["sigma"]:
        # the core of a point with no zero coordinate is the ideal of its
        # torus orbit closure, whose dimension is the rank of the grading
        return "tau %d of a point prime differs from sigma" % tau
    if res["graded"] != (tau == 0) or not (res["graded"] or 1 <= tau <= res["sigma"]):
        return "tau %d breaks 1 <= tau <= sigma for a nongraded prime" % tau
    return _check_graded_subideal("graded core", inp, res["p_star"])


def _check_graded(job, res):
    inp = job["input"]
    if inp["op"] == "hull":
        return _check_graded_subideal("hull", inp, res["hull"])
    # a point prime has height n, a graph over `free` variables n - free
    return _check_prime(inp, inp["vars"] - job["props"]["free"], res, inp["op"] == "point")


def _check_cli(job, text):
    report = json.loads(text)
    data = json.loads(job["input"])
    command = data.pop("command")
    if set(report) != {"command", "input", "options", "result", "version"}:
        return "report fields %s" % sorted(report)
    if report["command"] != command or report["input"] != data:
        return "report does not echo the job"
    res = report["result"]
    if command in ("hilbert-basis", "canonical", "class-group", "gorenstein"):
        ref = cone_ref(job)
    if command == "hilbert-basis":
        if _tuples(res["hilbert_basis"]) != oracles.brute_irreducibles(ref.rays, 0):
            return "Hilbert basis differs from the box-scan oracle"
        if res["unit_basis"]:
            return "units reported for a pointed cone"
    elif command == "canonical":
        if res["h"] != [1] * len(ref.facets):
            return "canonical heights are not all 1"
        if _tuples(res["generators"]) != oracles.brute_minimal_interior(ref.rays):
            return "canonical generators differ from the box-scan oracle"
        if res["gorenstein"] != (len(res["generators"]) == 1):
            return "Gorenstein flag disagrees with the generator count"
    elif command == "class-group":
        if tuple(res["invariant_factors"]) != class_group_of(ref.facets, ref.dim):
            return "class group differs from the oracle"
    elif command == "gorenstein":
        count = len(oracles.brute_minimal_interior(ref.rays))
        return _check_gorenstein(ref, res["gorenstein"], res["certificate"], count)
    elif command == "normalize":
        if res["rank"] != exact_rank(data["generators"]) or set(res) != {
                "rank", "lattice_basis", "normalized_generators", "is_normal", "witness"}:
            return "normalize report has the wrong rank or fields"
        if (res["witness"] is None) != res["is_normal"]:
            return "normality witness disagrees with the flag"
    else:
        key = "ideal" if command == "graded-hull" else "prime"
        inp = {"vars": data["vars"], "grading": data["grading"], "polys": data[key]}
        names = groebner.default_variables(data["vars"])
        if command == "graded-hull":
            gens = [groebner.parse_polynomial(s, names) for s in res["hull"]]
            return _check_graded_subideal("hull", inp, gens)
        res = dict(res, p_star=[groebner.parse_polynomial(s, names) for s in res["p_star"]])
        return _check_prime(inp, data["vars"], res, True)
    return None


_cli_verdicts: dict = {}


def check(job, result):
    kind = job["kind"]
    if kind == "cli-small":
        # the verdict depends only on the two texts, and cli inputs repeat
        key = (job["input"], result)
        if key not in _cli_verdicts:
            _cli_verdicts[key] = _check_cli(job, result)
        return _cli_verdicts[key]
    if kind == "monoid-ring":
        return _check_monoid(cone_ref(job), result)
    if kind == "cone-duality":
        return _check_cone(cone_ref(job), result)
    if kind == "graded-ideal":
        return _check_graded(job, result)
    raise ValueError("unknown job kind %r" % kind)
