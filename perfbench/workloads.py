"""Seeded job streams for the four workloads.

Each workload cycles through a fixed list of job classes, and job ``i``
draws a random input of class ``i mod len(classes)``.  The fixed class
mix, and the box and facet bands of the cone classes, keep the cost of a
run steady from seed to seed.  In three workloads
no input repeats an earlier one.  In ``cli-small`` about 60% of the jobs
repeat an earlier input.  That share comes only from the small input
ranges chosen to keep its jobs tiny; it reflects no measured traffic, so
no gain of a cache keyed on the input may rest on it.  The same seed
gives the same jobs.  Generation runs before any timing and uses only the
test oracles, never the package under test.
"""

from __future__ import annotations

import json
import random
import re

from check import ConeRef, exact_rank, oracles

# (rank, entry bound, ray count range, box band).  A band (lo, hi) keeps
# only cones whose Hilbert and canonical boxes hold lo to hi points in
# all; the cost of a job grows with those boxes, so a band keeps the
# cost of its class within a factor of about two.  Sorted by cost, the
# cycle puts the median in the middle of the rank-3 group and the 90th
# percentile inside the rank-4 group, whose boxes are the heavy tail;
# the band keeps every job far below the library's enumeration limit.
_R2 = (2, 4, (2, 3), None)
_R3 = (3, 2, (3, 4), (100, 200))
_R4 = (4, 2, (4, 5), (1200, 2000))
MONOID_CLASSES = (_R2, _R3, _R4, _R3, _R2, _R4, _R3, _R2, _R3, _R4)

# (rank, ray count, facet band); entries in [-1, 1] with first
# coordinate 1.  The cost of a job grows with the facet count, so the
# band keeps the cost of each class within about 20% of its middle.
# Sorted by cost, the cycle puts the median inside the (6, 8)/(5, 10)
# group and the 90th percentile inside the (5, 12) group, not on a class
# boundary.
CONE_CLASSES = ((5, 8, (10, 12)), (5, 10, (16, 18)), (6, 8, (14, 16)), (5, 9, (14, 16)),
                (6, 8, (14, 16)), (5, 12, (18, 20)), (5, 10, (16, 18)), (5, 11, (18, 20)),
                (5, 8, (10, 12)), (5, 12, (18, 20)))

# (operation, free variables, grading, polynomials).  Each "c" becomes a
# random nonzero coefficient, so the structure of a class is fixed and
# its cost steady.  A point prime is the kernel of evaluation at a point;
# a graph prime x_j - f_j(x_1..x_free) has a polynomial ring as quotient.
# Sorted by cost, the cycle puts four classes of similar cost (the 3-variable
# graph, the (1, -1) hull, the 3-variable point and the 4-variable rank-2
# graph) in the middle third, so the median sits at the centre of that
# group rather than near a gap in cost.  The hull class on three variables
# is the costliest and fills three of the twelve slots, which puts the 90th
# percentile inside it.
_HULL3 = ("hull", 0, ((1, 0), (0, 1), (1, 1)), ("x1*x2 + c*x3^2 + c", "x1^2 + c*x2"))
GRADED_CLASSES = (
    _HULL3,
    ("graph", 1, ((1, 0), (0, 1)), ("x2 + c*x1^2 + c",)),
    ("point", 0, ((1,), (1,)), ("x1 + c", "x2 + c")),
    ("graph", 1, ((1,), (2,), (1,)), ("x2 + c*x1^2 + c", "x3 + c*x1 + c")),
    _HULL3,
    ("graph", 3, ((1,), (1,), (1,), (1,)), ("x4 + c*x1^2 + c*x2*x3 + c",)),
    ("hull", 0, ((1, 0), (0, 1)), ("x1^3 + c*x1*x2 + c", "x2^2 + c*x1")),
    ("point", 0, ((1, 0), (0, 1), (1, 1)), ("x1 + c", "x2 + c", "x3 + c")),
    _HULL3,
    ("hull", 0, ((1, 0), (0, 1), (1, -1)), ("x1*x3 + c*x2^2 + c*x3", "x1 + c*x2 + c")),
    ("graph", 2, ((1, 0), (0, 1), (1, 1), (1, -1)), ("x3 + c*x1 + c*x2 + c", "x4 + c*x1 + c")),
    ("point", 0, ((1, 0), (0, 1), (1, 1), (1, -1)), ("x1 + c", "x2 + c", "x3 + c", "x4 + c")),
)
COEFFICIENTS = tuple(c for c in range(-9, 10) if c)

CLI_COMMANDS = (
    "hilbert-basis", "canonical", "class-group", "gorenstein",
    "normalize", "graded-hull", "analyze-prime",
)


def pointed_rays(rng, d, count, bound, first_positive=False):
    """``count`` distinct primitive vectors spanning Q^d, all positive on
    one functional (so the cone is pointed)."""
    while True:
        if first_positive:
            w = (1,) + (0,) * (d - 1)
        else:
            w = tuple(rng.randint(-1, 1) for _ in range(d))
            if not any(w):
                continue
        rays = set()
        while len(rays) < count:
            v = tuple(rng.randint(-bound, bound) for _ in range(d))
            if first_positive:
                v = (rng.randint(1, bound),) + v[1:]
            if oracles.dot(w, v) > 0:
                rays.add(oracles.make_primitive(v))
        rays = sorted(rays)
        if exact_rank(rays) < d:
            continue
        return [list(r) for r in rays]


def _fill(rng, template) -> str:
    return re.sub(r"\bc\b", lambda _: str(rng.choice(COEFFICIENTS)), template)


def _degree(templates) -> int:
    """Largest total degree of a term of the templates."""
    return max(sum(int(power or 1) for power in re.findall(r"x\d+(?:\^(\d+))?", term))
               for t in templates for term in t.split(" + "))


def graded_input(rng, op, grading, templates):
    return {"op": op, "vars": len(grading), "grading": [list(d) for d in grading],
            "polys": [_fill(rng, t) for t in templates]}


def _cli_input(rng, command):
    if command in ("hilbert-basis", "canonical", "gorenstein"):
        payload = {"rays": pointed_rays(rng, 2, 2, 3)}
    elif command == "class-group":
        payload = {"rays": pointed_rays(rng, rng.randint(2, 3), 3, 2)}
    elif command == "normalize":
        payload = {"generators": pointed_rays(rng, 2, rng.randint(2, 3), 3)}
    elif command == "graded-hull":
        payload = {"vars": 2, "grading": [[1], [1]],
                   "ideal": [_fill(rng, "x1*x2 + c"), _fill(rng, "x1 + c*x2")]}
    else:
        payload = {"vars": 2, "grading": [[1, 0], [0, 1]],
                   "prime": [_fill(rng, "x1 + c"), _fill(rng, "x2 + c")]}
    return json.dumps(dict(command=command, **payload))


def _job(i, kind, inp, **props):
    return {"id": i, "kind": kind, "input": inp, "props": props}


def monoid_ring(rng, i):
    d, bound, (lo, hi), band = MONOID_CLASSES[i % len(MONOID_CLASSES)]
    while True:
        rays = pointed_rays(rng, d, rng.randint(lo, hi), bound)
        if band is None:
            break
        ref = ConeRef(rays, oracle=False)
        if band[0] <= ref.hilbert_box_points() + ref.mingen_box_points() <= band[1]:
            break
    return _job(i, "monoid-ring", rays, rank=d, rays=len(rays))


def cone_duality(rng, i):
    d, count, (lo, hi) = CONE_CLASSES[i % len(CONE_CLASSES)]
    while True:
        rays = pointed_rays(rng, d, count, 1, first_positive=True)
        facets = len(ConeRef(rays, oracle=False).facets)
        if lo <= facets <= hi:
            break
    return _job(i, "cone-duality", rays, rank=d, rays=count, facets=facets)


def graded_ideal(rng, i):
    op, free, grading, templates = GRADED_CLASSES[i % len(GRADED_CLASSES)]
    inp = graded_input(rng, op, grading, templates)
    return _job(i, "graded-ideal", inp, op=op, vars=len(grading), grading_rank=len(grading[0]),
                degree=_degree(templates), free=free)


def cli_small(rng, i):
    command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
    return _job(i, "cli-small", _cli_input(rng, command), command=command)


# name -> (job generator, jobs per second of --seconds, jobs in a traced
# run, whether inputs are distinct).  The rate is about the throughput
# at the commit that added the benchmark, so a run takes about --seconds
# there; the same seed and seconds give the same jobs.
WORKLOADS = {
    "monoid-ring": (monoid_ring, 65, 160, True),
    "cone-duality": (cone_duality, 14, 100, True),
    "graded-ideal": (graded_ideal, 42, 260, True),
    "cli-small": (cli_small, 300, 1400, False),
}
MIN_JOBS = 100  # so that at least ten latency samples lie beyond p90


def job_count(name, seconds) -> int:
    """Jobs timed in a run of ``seconds``."""
    return max(MIN_JOBS, round(seconds * WORKLOADS[name][1]))


def generate(name, seed, count):
    make, _, _, distinct = WORKLOADS[name]
    rng = random.Random("%s/%d" % (name, seed))
    seen = set()
    out = []
    for i in range(count):
        job = make(rng, i)
        while distinct and json.dumps(job["input"]) in seen:
            job = make(rng, i)
        seen.add(json.dumps(job["input"]))
        out.append(job)
    return out
