"""Interleaved A/B timing of two checkouts on one workload, in one process.

    python3 tests/abtime.py A B --workload monoid-ring --seed 811 [--seconds 15] [--rounds 3]
                            [--by PROP[,PROP...]]

A and B are the roots of two checkouts of this repository.  Each one's
``src/monograde`` is imported under its own package name, ``monograde_a``
and ``monograde_b``, and the runner functions of this checkout's
``perfbench/jobs.py`` are rebound onto each copy through their module
globals, so both sides run the benchmark's own runners.  The job list is
the one ``perfbench/run.py --seed N --seconds S --trace 0`` times; its
warm-up job runs once on each side, untimed.  Every job then runs on both
sides back to back, the side that goes first alternating from job to job
and from round to round, and the two results must be equal, job by job,
as ``tests/digests.py`` encodes them.  It prints the total time, p50 and
p90 of the per-job times (each job's time summed over the rounds) for
each side, and the ratios B/A.  Run A against itself to see the noise
floor.  With ``--by``, it also groups the jobs by the named entries of
their ``props`` (``op,vars`` on ``graded-ideal``, say) and prints, per
class, the jobs, each side's total, the ratio B/A and how many of the
class's jobs take at most that side's p50, so a p50 move can be traced
to the classes that crossed the median.  Times are wall-clock and
unscaled.  The perfbench modules are only imported, and pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
import types
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import jobs  # noqa: E402  (puts this checkout's src/ first on the path)
import workloads  # noqa: E402

MODULES = ("cli", "cone", "divisorial", "groebner", "monoid", "multigraded")


def load_package(checkout: str, name: str) -> types.ModuleType:
    """``checkout/src/monograde`` imported as the package ``name``."""
    path = os.path.join(os.path.abspath(checkout), "src", "monograde")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in MODULES:
        importlib.import_module("%s.%s" % (name, module))
    return package


def runners(package: types.ModuleType) -> dict:
    """``jobs.RUNNERS`` with each function's globals pointing at ``package``."""
    scope = dict(vars(jobs))
    scope.update({module: getattr(package, module) for module in MODULES})
    return {kind: types.FunctionType(f.__code__, scope, f.__name__, f.__defaults__, f.__closure__)
            for kind, f in jobs.RUNNERS.items()}


def encoder(package: types.ModuleType):
    """The result as ``tests/digests.py`` encodes it, so that the two
    packages' polynomial types compare by their text."""
    groebner = package.groebner

    def plain(x):
        if isinstance(x, groebner.Polynomial):
            return groebner.format_polynomial(x)
        if isinstance(x, Fraction):
            return str(x)
        raise TypeError("cannot encode %r" % (x,))

    def encode(result):
        return json.dumps(result, default=plain, sort_keys=True)
    return encode


def timed(run, job) -> tuple[object, float]:
    """(result, seconds) of one job; a failing job's result is its
    exception, which is part of the answer."""
    t = time.perf_counter()
    try:
        result = run(job["input"])
    except Exception as e:
        result = e
    return result, time.perf_counter() - t


def encoded(encode, result) -> str:
    if isinstance(result, Exception):
        return "%s: %s" % (type(result).__name__, result)
    return encode(result)


def figures(times: list[float]) -> tuple[float, float, float]:
    """(total s, p50 ms, p90 ms), the quantiles as ``perfbench/run.py`` takes them."""
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    return sum(times), 1e3 * statistics.median(times), 1e3 * p90


def print_classes(ran: list, times: list, props: list) -> None:
    """Per class of ``props``: jobs, each side's total and B/A, and each
    side's count of the class's jobs at or below its p50."""
    medians = [statistics.median(t) for t in times]
    groups: dict = {}
    for i, job in enumerate(ran):
        groups.setdefault(tuple(job["props"][p] for p in props), []).append(i)
    print("%-24s %5s %9s %9s %7s %6s %6s"
          % (",".join(props), "jobs", "A_s", "B_s", "B/A", "A<=p50", "B<=p50"))
    for key in sorted(groups, key=str):
        a, b = ([t[i] for i in groups[key]] for t in times)
        print("%-24s %5d %9.3f %9.3f %7.3f %6d %6d"
              % (",".join(map(str, key)), len(a), sum(a), sum(b), sum(b) / sum(a),
                 sum(x <= medians[0] for x in a), sum(x <= medians[1] for x in b)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="root of checkout A")
    parser.add_argument("b", help="root of checkout B")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--by", metavar="PROP[,PROP...]",
                        help="also print per-class figures, the jobs grouped by these props")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    job_list = workloads.generate(args.workload, args.seed,
                                  workloads.job_count(args.workload, args.seconds) + 1)
    props = args.by.split(",") if args.by else []
    unknown = [p for p in props if p not in job_list[0]["props"]]
    if unknown:
        parser.error("--by: %s jobs have no prop %s (they have %s)" % (
            args.workload, ", ".join(unknown), ", ".join(job_list[0]["props"])))
    sides = []
    for checkout, name in ((args.a, "monograde_a"), (args.b, "monograde_b")):
        package = load_package(checkout, name)
        sides.append((runners(package)[args.workload], encoder(package)))
    for run, _ in sides:
        timed(run, job_list[0])  # warm-up, not timed
    ran = job_list[1:]
    times = [[0.0] * len(ran), [0.0] * len(ran)]
    for r in range(args.rounds):
        for i, job in enumerate(ran):
            got = [None, None]
            for s in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                run, encode = sides[s]
                result, seconds = timed(run, job)
                times[s][i] += seconds
                got[s] = encoded(encode, result)
            if got[0] != got[1]:
                print("job %d: the checkouts disagree\n  A: %s\n  B: %s" % (job["id"], *got))
                return 1
    a, b = figures(times[0]), figures(times[1])
    print("%s seed %d: %d jobs x %d rounds, both sides equal on every job"
          % (args.workload, args.seed, len(ran), args.rounds))
    print("%-6s %10s %10s %10s" % ("", "total_s", "p50_ms", "p90_ms"))
    print("%-6s %10.3f %10.4f %10.4f" % ("A", *a))
    print("%-6s %10.3f %10.4f %10.4f" % ("B", *b))
    print("%-6s %10.3f %10.3f %10.3f" % ("B/A", *(y / x for x, y in zip(a, b))))
    if props:
        print_classes(ran, times, props)
    return 0


if __name__ == "__main__":
    sys.exit(main())
