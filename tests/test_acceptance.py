"""Acceptance gate: one test per shipped guarantee, one line each under -v.

Every test restates a user facing promise of the package and checks it
end to end against the independent oracles in oracles.py and
references.py, asserting the promised runtime ceilings on a monotonic
clock.  Random corpora are seeded so the gate is reproducible.
"""

import collections
import io
import json
import os
import random
import re
import time
from fractions import Fraction

import monograde
from monograde import multigraded
from monograde.cli import main as cli_main
from monograde.cone import facets_of_rays, rays_of_facets
from monograde.divisorial import (
    canonical_module,
    class_group,
    divisorial_ideal,
    is_gorenstein,
    same_class,
)
from monograde.groebner import (
    IdealPresentation,
    default_variables,
    format_polynomial,
    grevlex,
    parse_polynomial,
)
from monograde.monoid import monoid_from_cone_rays, normalize_presentation
from monograde.multigraded import GradedRingSpec, analyze_prime, graded_hull
from hullcheck import assert_hull_contract, is_graded
from corpora import localized_faces, random_pointed_cones
from oracles import (
    brute_irreducibles,
    brute_minimal_interior,
    dot,
    frac_rref,
    minor_gcd_factors,
    vec_gcd,
)
from references import componentwise_minimal, coset_count

QUAD = monoid_from_cone_rays([(1, 0), (0, 1)])
RNC3 = monoid_from_cone_rays([(1, 0), (1, 3)])
VER2 = normalize_presentation([(2, 0), (1, 1), (0, 2)])

# shared random corpora: small normal monoids and a larger duality set
MONOIDS3 = random_pointed_cones(20, 3, 6, seed=307)
CONES4 = random_pointed_cones(50, 4, 6, seed=401)

V1 = default_variables(1)
V2 = default_variables(2)
V3 = default_variables(3)
STD2 = GradedRingSpec(((1, 0), (0, 1)))
TOT2 = GradedRingSpec(((1,), (1,)))
TOT3 = GradedRingSpec(((1,), (1,), (1,)))
MIX3 = GradedRingSpec(((1, 0), (0, 1), (1, 1)))


def ideal_of(texts, names):
    gens = tuple(parse_polynomial(t, names) for t in texts)
    return IdealPresentation(gens, grevlex(len(names)))


def test_canonical_generators_match_brute_force_interior_points():
    t0 = time.monotonic()
    assert len(MONOIDS3) >= 20
    for d, rays in MONOIDS3:
        m = monoid_from_cone_rays(rays)
        got = sorted(canonical_module(m).generators)
        assert got == brute_minimal_interior(rays)
    assert time.monotonic() - t0 < 60


def test_free_monoid_canonical_is_principal_at_all_ones():
    t0 = time.monotonic()
    for n in range(1, 5):
        rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        m = monoid_from_cone_rays(rays)
        assert canonical_module(m).generators == ((1,) * n,)
        gor, cert = is_gorenstein(m)
        assert gor and cert == (1,) * n
    assert time.monotonic() - t0 < 1


def test_gorenstein_three_characterizations_agree():
    fixtures = [(QUAD, True), (VER2, True), (RNC3, False)]
    corpus = [(monoid_from_cone_rays(rays), None) for _, rays in MONOIDS3]
    for m, expected in fixtures + corpus:
        s = len(m.facet_forms)
        can = canonical_module(m)
        principal = len(can.generators) == 1
        class_trivial = class_group(m).is_principal((1,) * s)
        witness = same_class(divisorial_ideal(m, (0,) * s), can.ideal)
        assert principal == class_trivial == (witness is not None)
        assert is_gorenstein(m)[0] == principal
        if witness is not None:
            assert m.facet_values(witness) == (1,) * s
        if expected is not None:
            assert principal is expected


def _localized_faces(seed):
    """Run the five checks of the test below on every nonzero proper face
    of the pointed cones of ``cone_corpus(seed)``; count the faces by
    (unit rank, Gorenstein, nontrivial class group) of M_F."""
    faces = collections.Counter()
    for m, rays, incidence, localized in localized_faces(seed):
        hilbert = [m.facet_values(h) for h in m.hilbert_basis()]
        omega = [m.facet_values(g) for g in canonical_module(m).generators]
        gorenstein, cert = is_gorenstein(m)
        free = class_group(m).invariant_factors.count(0)
        for face, mf in localized:
            face_rays = [rays[k] for k in face]
            holding = [i for i, tight in enumerate(incidence) if set(face) <= set(tight)]
            assert mf.lattice_basis == m.lattice_basis
            assert sorted(mf.facet_forms) == sorted(m.facet_forms[i] for i in holding)
            assert mf.unit_rank == frac_rref([[Fraction(x) for x in r] for r in face_rays])[0]
            at = [m.facet_forms.index(f) for f in mf.facet_forms]

            def restrict(vals):
                return tuple(vals[i] for i in at)

            assert sorted(mf.facet_values(h) for h in mf.hilbert_basis()) == \
                componentwise_minimal(restrict(v) for v in hilbert if any(restrict(v)))
            assert sorted(mf.facet_values(g) for g in canonical_module(mf).generators) == \
                componentwise_minimal(map(restrict, omega))
            gorenstein_f, cert_f = is_gorenstein(mf)
            if gorenstein:
                assert gorenstein_f and mf.facet_values(cert_f) == restrict(m.facet_values(cert))
            minors = minor_gcd_factors([m.facet_forms[i] for i in at])
            factors = class_group(mf).invariant_factors
            assert factors == tuple(f for f in minors if f != 1) + (0,) * (len(at) - len(minors))
            assert factors.count(0) <= free
            faces[mf.unit_rank, gorenstein_f, bool(factors)] += 1
    return faces


def test_localization_at_a_face_restricts_the_facet_values():
    """For a face F of a pointed cone with rays R, M_F = M + Z(M cap F)
    is the monoid of cone(R, -R_F), a monoid with units, and K[M_F] is
    K[M] localized at F's monomial prime.  Points of M_F with equal
    values on the facets I that contain F differ by a unit, so five
    exact checks need no box: M_F's facets are M's facets in I and its
    unit rank is dim F; its Hilbert basis and the generators of its
    canonical module take the componentwise minimal values of M's
    (nonzero ones for the Hilbert basis) restricted to I; M's Gorenstein
    certificate restricts to M_F's; and Cl(M_F) is Z^I modulo the
    restricted facet values, by determinantal divisors, a quotient of
    Cl(M) (Nagata), so its free rank is at most Cl(M)'s.  Every M_F has
    units, so its Hilbert basis and canonical generators are mapped back
    through the section ``lift`` of its pointed view; three corpus seeds
    give 754 faces."""
    t0 = time.monotonic()
    for seed in (401, 431, 437):
        faces = _localized_faces(seed)
        assert sum(faces.values()) > 200, seed
        # on every seed, every unit rank 1-4 occurs, and Gorenstein M_F
        # with trivial and nontrivial class groups as well as others; a
        # trivial class group makes M_F factorial, so Gorenstein
        assert {u for u, _, _ in faces} == {1, 2, 3, 4}, seed
        assert {(g, c) for _, g, c in faces} == {(True, False), (True, True), (False, True)}, seed
    assert time.monotonic() - t0 < 10


def test_class_group_fixtures_match_determinant_and_coset_oracles():
    for m, factors, order in ((QUAD, (), 1), (VER2, (2,), 2), (RNC3, (3,), 3)):
        assert class_group(m).invariant_factors == factors
        lam = [list(map(int, row)) for row in m.facet_matrix]
        assert factors == tuple(f for f in minor_gcd_factors(lam) if f != 1)
        assert coset_count(lam, 3) == order


def test_cone_duality_round_trip_on_random_corpus():
    t0 = time.monotonic()
    assert len(CONES4) == 50
    for d, rays in CONES4:
        c = facets_of_rays(rays)
        back = rays_of_facets(c.facet_forms, d)
        assert back.rays == c.rays
        assert back.facet_forms == c.facet_forms
        for f in c.facet_forms:
            assert vec_gcd(f) == 1
            tight = [[Fraction(x) for x in r] for r in c.rays if dot(f, r) == 0]
            rank, _, _ = frac_rref(tight)
            # tight rays span a hyperplane, so no form is redundant
            assert rank == d - 1
    assert time.monotonic() - t0 < 30


def test_hilbert_basis_matches_box_irreducibles():
    checked = 0
    for d, rays in CONES4:
        if d > 3:
            continue
        m = monoid_from_cone_rays(rays)
        hb = sorted(tuple(map(int, v)) for v in m.hilbert_basis())
        assert hb == brute_irreducibles(rays, 5)
        checked += 1
    assert checked >= 10


def test_graded_hull_contract_on_fixture_ideals():
    t0 = time.monotonic()
    fixtures = [
        (ideal_of(["x1 + x2", "x2^2"], V2), STD2),
        (ideal_of(["x1 + x2"], V2), STD2),
        (ideal_of(["x1^2", "x1*x2"], V2), STD2),
        (ideal_of(["x1 + x2^2", "x2"], V2), TOT2),
        (ideal_of(["x1*x2 - 1"], V2), TOT2),
        (ideal_of(["x1 - 1", "x2 - 2"], V2), TOT2),
        (ideal_of(["x1 - 1", "x2 - 2"], V2), STD2),
        (ideal_of(["x1^2 - x2^2", "x1 + x2"], V2), TOT2),
        (ideal_of(["x1 + x2 + x3^2", "x3"], V3), TOT3),
        (ideal_of(["x1*x2 - x3", "x3 + x1^2"], V3), MIX3),
        (ideal_of(["x1 - x2", "x2 - x3", "x1 + x3 - 2"], V3), TOT3),
        (ideal_of(["x1 + x2^2", "x2 + x3^2"], V3), MIX3),
    ]
    assert len(fixtures) >= 10
    for ideal, spec in fixtures:
        hull = graded_hull(ideal, spec)
        # containment, gradedness, idempotence, truncated maximality
        assert_hull_contract(ideal, hull, spec, dmax=8)
        if spec.rank == 2:
            # reversed degree coordinates run the two passes the other way round
            swapped = graded_hull(ideal, GradedRingSpec(tuple(d[::-1] for d in spec.degrees)))
            assert swapped.generators == hull.generators
    assert time.monotonic() - t0 < 120


def test_prime_graded_core_diagnostics(monkeypatch):
    monkeypatch.setattr(multigraded, "_SAMPLES", 16)
    p = ideal_of(["x1 + 1", "x2"], V2)
    a = analyze_prime(p, STD2)
    assert not a.graded
    assert [format_polynomial(g, V2, p.order) for g in a.p_star.generators] == ["x2"]
    assert (a.dim_p, a.dim_p_star, a.tau, a.sigma) == (2, 1, 1, 2)
    q = ideal_of(["x1 - 1"], V1)
    b = analyze_prime(q, GradedRingSpec(((1,),)))
    assert not b.graded and b.p_star.generators == ()
    assert (b.dim_p, b.dim_p_star, b.tau, b.sigma) == (1, 0, 1, 1)
    rng = random.Random(17)
    for _ in range(5):
        pt = (rng.randint(1, 4), rng.randint(1, 4))
        # kernel of evaluation at a point with nonzero coordinates
        p = ideal_of(["x1 - %d" % pt[0], "x2 - %d" % pt[1]], V2)
        out = analyze_prime(p, STD2)
        assert not out.graded
        assert all(is_graded(g, STD2) for g in out.p_star.generators)
        assert out.dim_p - out.dim_p_star == out.tau
        assert 1 <= out.tau <= out.sigma


def test_cli_reports_are_byte_identical_across_runs(monkeypatch, capsys):
    jobs = [
        ("hilbert-basis", '{"command":"hilbert-basis","rays":[[1,0],[1,3]]}'),
        ("canonical", '{"command":"canonical","rays":[[1,0],[0,1]]}'),
        ("class-group", '{"command":"class-group","rays":[[1,0],[1,3]]}'),
        ("gorenstein", '{"command":"gorenstein","rays":[[1,0],[0,1]]}'),
        ("normalize", '{"command":"normalize","generators":[[2],[3]]}'),
        (
            "graded-hull",
            '{"command":"graded-hull","vars":2,"grading":[[1],[1]],'
            '"ideal":["x1 + x2^2","x2"]}',
        ),
        (
            "analyze-prime",
            '{"command":"analyze-prime","vars":2,"grading":[[1],[1]],'
            '"prime":["x1 + 1","x2"]}',
        ),
    ]
    for command, job in jobs:
        runs = []
        for _ in range(2):
            monkeypatch.setattr("sys.stdin", io.StringIO(job))
            assert cli_main([command]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        json.loads(runs[0])


def test_public_names_are_the_readme_table():
    """``monograde.__all__`` is the table of public names in README, and
    each name there lives in the module of its row, so a new public name
    is a recorded decision."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Public names", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in section.splitlines():
        names = re.findall(r"`(\w+)`", line) if line.startswith("| `") else ()
        if names:
            module = getattr(monograde, names[0])
            assert all(hasattr(module, name) for name in names[1:]), line
            listed.extend(names)
    assert sorted(listed) == sorted(monograde.__all__)
