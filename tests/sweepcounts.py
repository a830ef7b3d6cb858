"""Region points the enumeration sweep visits on the benchmark's cones.

    python3 tests/sweepcounts.py --seed 811

This generates the job list that
``perfbench/run.py --workload monoid-ring --seed N --trace 1`` runs (the
warm-up job left out), runs every job through the same public API calls
and prints, by rank, how many points ``monoid._region_points`` yields
for the Hilbert bases (asked for by ``monoid._pointed_hilbert_basis``)
and for the canonical generators (asked for by
``divisorial.minimal_generators``), how many prefixes it tries (one
call of its nested ``interval`` per prefix, the empty one included),
and how many vertex searches (``monoid._region_vertices``, one double
description each) the sweeps ask for, which simplicial regions and
height-0 regions skip.  All ask through
``_PointedView._sweep``, which sweeps in the coordinates z of the one
Hermite form ``exact_linalg._quotient`` gives the pointed view, so each
sweep is told by the function that called that entry.  Points and vertex searches are counted by wrapping
``_region_points`` and ``_region_vertices`` from outside the package;
entries by a profile hook on the calls of ``interval``'s code while a
wrapped sweep runs.  All counts are exact and repeat run to run.  The
perfbench modules are only imported, and pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import jobs  # noqa: E402  (puts this checkout's src/ first on the path)
import workloads  # noqa: E402
from monograde import monoid  # noqa: E402

KINDS = {"_pointed_hilbert_basis": "hilbert", "minimal_generators": "canonical"}
# the code of the sweep's per-prefix helper; a sweep without one fails here, at import
INTERVAL = next(c for c in monoid._region_points.__code__.co_consts
                if getattr(c, "co_name", None) == "interval")


def _caller(frame) -> str:
    """The kind of sweep that ``frame``, the caller of ``_region_points``,
    runs: the function that asked for it through ``_PointedView._sweep``,
    or the caller itself, named by ``KINDS`` where it has a name there."""
    if frame.f_code.co_name == "_sweep":
        frame = frame.f_back
    return KINDS.get(frame.f_code.co_name, frame.f_code.co_name)


def _counting(real, counts):
    """``real`` with every point it yields and every prefix it tries
    added to ``counts[(kind, rank)]``, the kind read off its caller."""
    def wrapped(forms, heights, lo, hi, *rest):
        row = counts[_caller(sys._getframe(1)), len(lo)]
        return _counted(real(forms, heights, lo, hi, *rest), row)
    return wrapped


def _counted(points, row):
    """``points`` as they come, counted in ``row``: [points, entries]."""
    def profile(frame, event, arg):
        if event == "call" and frame.f_code is INTERVAL:
            row[1] += 1

    sys.setprofile(profile)
    try:
        for item in points:
            row[0] += 1
            yield item
    finally:
        sys.setprofile(None)


def _searching(real, searches):
    """``real``, the vertex search, with every call added to
    ``searches[rank]``, the rank read off its dimension argument."""
    def wrapped(forms, heights, dim):
        searches[dim] += 1
        return real(forms, heights, dim)
    return wrapped


def sweep_counts(seed: int):
    """{(kind, rank): [points, entries]}, {rank: jobs} and {rank: vertex
    searches} on the traced ``monoid-ring`` job list of ``seed``."""
    count = workloads.WORKLOADS["monoid-ring"][2]
    job_list = workloads.generate("monoid-ring", seed, count + 1)[1:]
    counts = collections.defaultdict(lambda: [0, 0])
    searches = collections.Counter()
    real = monoid._region_points, monoid._region_vertices
    try:
        monoid._region_points = _counting(real[0], counts)
        monoid._region_vertices = _searching(real[1], searches)
        ranks = collections.Counter()
        for job in job_list:
            ranks[len(job["input"][0])] += 1
            jobs.run(job)
    finally:
        monoid._region_points, monoid._region_vertices = real
    return counts, ranks, searches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    counts, ranks, searches = sweep_counts(args.seed)
    print("monoid-ring seed %d, %d traced jobs" % (args.seed, sum(ranks.values())))
    print("rank  jobs  hilbert points  hilbert entries  canonical points  canonical entries"
          "  vertex searches")
    line = "%4s  %4d  %14d  %15d  %16d  %17d  %15d"
    total = [0, 0, 0, 0, 0]
    for rank in sorted(ranks):
        row = counts["hilbert", rank] + counts["canonical", rank] + [searches[rank]]
        total = [a + b for a, b in zip(total, row)]
        print(line % (rank, ranks[rank], *row))
    print(line % ("all", sum(ranks.values()), *total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
