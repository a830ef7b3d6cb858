"""Region points the enumeration sweep visits on the benchmark's cones.

    python3 tests/sweepcounts.py --seed 811

This generates the job list that
``perfbench/run.py --workload monoid-ring --seed N --trace 1`` runs (the
warm-up job left out), runs every job through the same public API calls
and prints, by rank, how many points ``monoid._region_points`` yields
for the Hilbert bases (called from ``monoid``) and for the canonical
generators (called from ``divisorial``), and how many times its inner
sweep is entered (one entry per prefix tried, the empty one included).
Points are counted by wrapping ``_region_points`` from outside the
package; entries by a profile hook on the sweep's frames while a
wrapped call runs.  Both counts are exact and repeat run to run.  The
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
from monograde import divisorial, monoid  # noqa: E402

KINDS = {"hilbert": monoid, "canonical": divisorial}


def _counting(kind, real, counts):
    """``real`` with every point it yields and every sweep it enters
    added to ``counts[(kind, rank)]``."""
    def wrapped(forms, heights, lo, hi, *rest):
        row = counts[kind, len(lo)]
        entered = set()  # the frames themselves, so no id is reused

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "sweep" and frame not in entered:
                entered.add(frame)

        sys.setprofile(profile)
        try:
            for item in real(forms, heights, lo, hi, *rest):
                row[0] += 1
                yield item
        finally:
            sys.setprofile(None)
            row[1] += len(entered)
    return wrapped


def sweep_counts(seed: int):
    """{(kind, rank): [points, entries]} and {rank: jobs} on the traced
    ``monoid-ring`` job list of ``seed``."""
    count = workloads.WORKLOADS["monoid-ring"][2]
    job_list = workloads.generate("monoid-ring", seed, count + 1)[1:]
    counts = collections.defaultdict(lambda: [0, 0])
    real = monoid._region_points
    try:
        for kind, module in KINDS.items():
            module._region_points = _counting(kind, real, counts)
        ranks = collections.Counter()
        for job in job_list:
            ranks[len(job["input"][0])] += 1
            jobs.run(job)
    finally:
        for module in KINDS.values():
            module._region_points = real
    return counts, ranks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    counts, ranks = sweep_counts(args.seed)
    print("monoid-ring seed %d, %d traced jobs" % (args.seed, sum(ranks.values())))
    print("rank  jobs  hilbert points  hilbert entries  canonical points  canonical entries")
    line = "%4s  %4d  %14d  %15d  %16d  %17d"
    total = [0, 0, 0, 0]
    for rank in sorted(ranks):
        row = counts["hilbert", rank] + counts["canonical", rank]
        total = [a + b for a, b in zip(total, row)]
        print(line % (rank, ranks[rank], *row))
    print(line % ("all", sum(ranks.values()), *total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
