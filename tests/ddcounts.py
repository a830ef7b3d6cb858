"""Double-description work on the benchmark's cone-duality jobs.

    python3 tests/ddcounts.py --seed 811
    python3 tests/ddcounts.py --large

This generates the job list that
``perfbench/run.py --workload cone-duality --seed N --trace 1`` runs
(the warm-up job left out), runs every job through the same public API
calls and prints, by rank and input ray count, how many times
``cone._dd`` runs, how many ``_eliminate`` calls the ``cone`` module
makes, and how many rays double description returns.
The memo of ``facets_of_rays`` is emptied first, so the counts do not
depend on what ran before.  Calls are counted by wrapping the module
attributes of ``cone`` from outside the package, so a call that
``exact_linalg`` makes to itself is not counted.  All counts are exact
and repeat run to run.

With ``--large`` it times ``cone._dd`` instead, best of 3, on large
inputs: the rows of ``large_cone_corpus(7)`` from ``tests/corpora.py``
as one set, and three cones from ``random.Random(7)`` of rank 8, 7 and
8 spanned by 30, 40 and 40 distinct rays (1, r_2, ..., r_d) with r_i in
-2..2, drawn in that order.  It prints the seconds and the rays double
description returns, the facets of each cone.  The perfbench modules
are only imported, and pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import jobs  # noqa: E402  (puts this checkout's src/ first on the path)
import workloads  # noqa: E402
from monograde import cone  # noqa: E402
from monograde.exact_linalg import IntMatrix  # noqa: E402
from corpora import large_cone_corpus  # noqa: E402

COUNTED = ("_dd", "_eliminate")
COLUMNS = COUNTED + ("rays",)


def _counting(name, real, row):
    """``real`` with each call added to ``row()[name]``, and for ``_dd``
    the rays it returns to ``row()["rays"]``."""
    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        counts = row()
        counts[name] += 1
        if name == "_dd":
            counts["rays"] += len(out[0])
        return out
    return wrapped


def dd_counts(seed: int):
    """{(rank, rays): Counter} and {(rank, rays): jobs} on the traced
    ``cone-duality`` job list of ``seed``."""
    count = workloads.WORKLOADS["cone-duality"][2]
    job_list = workloads.generate("cone-duality", seed, count + 1)[1:]
    counts = collections.defaultdict(collections.Counter)
    key = [None]
    real = {name: getattr(cone, name) for name in COUNTED}
    cone._facets_of_generators.cache_clear()
    try:
        for name, fn in real.items():
            setattr(cone, name, _counting(name, fn, lambda: counts[key[0]]))
        classes = collections.Counter()
        for job in job_list:
            rays = job["input"]
            key[0] = (len(rays[0]), len(rays))
            classes[key[0]] += 1
            jobs.run(job)
    finally:
        for name, fn in real.items():
            setattr(cone, name, fn)
    return counts, classes


def large_inputs() -> list[tuple[str, list[IntMatrix]]]:
    """(name, matrices) of the inputs ``--large`` times."""
    out = [("large_cone_corpus(7)", [IntMatrix(rows) for rows in large_cone_corpus(7)])]
    rng = random.Random(7)
    for d, count in ((8, 30), (7, 40), (8, 40)):
        rays = set()
        while len(rays) < count:
            rays.add((1,) + tuple(rng.randint(-2, 2) for _ in range(d - 1)))
        out.append(("rank %d, %d rays" % (d, count), [IntMatrix(sorted(rays))]))
    return out


def time_large() -> None:
    print("cone._dd on large inputs, best of 3")
    print("%-22s %8s %8s %9s" % ("input", "matrices", "rays out", "seconds"))
    for name, matrices in large_inputs():
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            rays = sum(len(cone._dd(a)[0]) for a in matrices)
            best = min(best, time.perf_counter() - t)
        print("%-22s %8d %8d %9.3f" % (name, len(matrices), rays, best))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seed", type=int)
    mode.add_argument("--large", action="store_true", help="time _dd on large cones instead")
    args = parser.parse_args(argv)
    if args.large:
        time_large()
        return 0
    counts, classes = dd_counts(args.seed)
    print("cone-duality seed %d, %d traced jobs" % (args.seed, sum(classes.values())))
    print("rank  rays  jobs  dd runs  _eliminate  rays out")
    line = "%4s  %4s  %4d  %7d  %10d  %8d"
    total = collections.Counter()
    for k in sorted(classes):
        total.update(counts[k])
        print(line % (*k, classes[k], *(counts[k][c] for c in COLUMNS)))
    print(line % ("all", "", sum(classes.values()), *(total[c] for c in COLUMNS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
