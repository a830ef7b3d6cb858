"""Run one benchmark job through monograde's public API.

A job is plain JSON data: ``{"id", "kind", "input", "props"}``.  The
runners reach every function through its module object at call time, so
the wrappers that ``trace.py`` installs on those names take effect.  This
module imports only monograde, because the set-up probe imports it too.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "monograde", "__init__.py")):
    raise SystemExit("perfbench: no monograde package under %s" % SRC)
sys.path.insert(0, SRC)

from monograde import cli, cone, divisorial, groebner, monoid, multigraded  # noqa: E402

if not os.path.abspath(monoid.__file__).startswith(SRC + os.sep):
    raise SystemExit("perfbench: imported monograde from %s, not %s" % (monoid.__file__, SRC))


def monoid_ring(rays):
    m = monoid.monoid_from_cone_rays(rays)
    # the Hilbert basis is cached on the monoid; computing it first bills it to monoid
    hb = monoid.hilbert_basis(m)
    can = divisorial.canonical_module(m)
    cg = divisorial.class_group(m)
    gor, cert = divisorial.is_gorenstein(m)
    return {
        "facets": m.facet_forms,
        "hilbert": hb,
        "canonical": can.generators,
        "class_group": cg.invariant_factors,
        "gorenstein": gor,
        "certificate": cert,
    }


def cone_duality(rays):
    c = cone.facets_of_rays(rays)
    back = cone.rays_of_facets(c.facet_forms, len(rays[0]))
    cg = divisorial.class_group(monoid.monoid_from_cone_rays(rays))
    return {
        "rays": c.rays,
        "facets": c.facet_forms,
        "back_rays": back.rays,
        "back_facets": back.facet_forms,
        "class_group": cg.invariant_factors,
    }


def graded_ideal(inp):
    n = inp["vars"]
    names = groebner.default_variables(n)
    spec = multigraded.GradedRingSpec(tuple(tuple(d) for d in inp["grading"]))
    gens = tuple(groebner.parse_polynomial(s, names) for s in inp["polys"])
    ideal = groebner.IdealPresentation(gens, groebner.grevlex(n))
    if inp["op"] == "hull":
        return {"hull": multigraded.graded_hull(ideal, spec).generators}
    res = multigraded.analyze_prime(ideal, spec)
    return {
        "p_star": res.p_star.generators,
        "graded": res.graded,
        "dim_p": res.dim_p,
        "dim_p_star": res.dim_p_star,
        "tau": res.tau,
        "sigma": res.sigma,
    }


def cli_small(text):
    """The path ``cli.main`` takes for one job, minus stdin and stdout."""
    report = cli.execute(cli.parse_input(text))
    return json.dumps(report, separators=(",", ":"))


RUNNERS = {
    "monoid-ring": monoid_ring,
    "cone-duality": cone_duality,
    "graded-ideal": graded_ideal,
    "cli-small": cli_small,
}


def run(job):
    return RUNNERS[job["kind"]](job["input"])
