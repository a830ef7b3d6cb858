"""Calls per job of every function of the package, on the benchmark's job lists.

    python3 tests/callcounts.py --seed 811 [--seconds 15] [--workload NAME]...

Repeat ``--workload`` for each workload to run; without it all four run.

For each workload this generates the job list that ``tests/digests.py``
digests (the one ``perfbench/run.py --seed N --seconds S --trace 0``
times, warm-up job included), runs every job through the same public
API calls and counts the calls of every function defined under the
package's source directory with ``sys.setprofile``, so nothing is
patched.  It prints one row per function, in source order: its module
and qualified name, then the calls per job on each workload.  A
function that no job calls reads 0.  Comprehensions, generator
expressions and lambdas are not rows; a generator counts once per run,
not once per resumption.  All counts are exact and repeat run to run.
The perfbench modules are only imported, and pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import collections
import inspect
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import jobs  # noqa: E402  (puts this checkout's src/ first on the path)
import workloads  # noqa: E402
import monograde  # noqa: E402

PACKAGE = os.path.dirname(os.path.abspath(monograde.__file__))


def _qualname(code) -> str:
    return getattr(code, "co_qualname", code.co_name)


def _site(code) -> tuple[str, int, str]:
    """(module, first line, qualified name) of a code object."""
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return module, code.co_firstlineno, _qualname(code)


def package_functions() -> list[tuple[str, int, str]]:
    """The site of every ``def`` in the package's modules, in source order."""
    sites = []

    def walk(code):
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                # a class body is not optimized; a comprehension is named <...>
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    sites.append(_site(const))
                walk(const)

    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE, filename)
            with open(path, encoding="utf-8") as fh:
                walk(compile(fh.read(), path, "exec"))
    return sorted(sites)


def call_counts(name: str, seed: int, seconds: float) -> tuple[int, collections.Counter]:
    """(jobs, Counter of calls by function site) over one workload's list."""
    job_list = workloads.generate(name, seed, workloads.job_count(name, seconds) + 1)
    counts: collections.Counter = collections.Counter()
    start: dict = {}  # code -> f_lasti of a fresh frame; a resumed generator's differs
    prefix = PACKAGE + os.sep

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return
        if start.setdefault(code, frame.f_lasti) == frame.f_lasti:
            counts[code] += 1

    sys.setprofile(profile)
    try:
        for job in job_list:
            try:
                jobs.run(job)
            except Exception:  # a failing job still made its calls
                pass
    finally:
        sys.setprofile(None)
    by_site: collections.Counter = collections.Counter()
    for code, n in counts.items():
        by_site[_site(code)] += n
    return len(job_list), by_site


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="a workload to count; repeat the flag for more (default all four)")
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    runs = [call_counts(name, args.seed, args.seconds) for name in names]
    print("calls per job, seed %d: %s" % (args.seed, ", ".join(
        "%s %d jobs" % (name, count) for name, (count, _) in zip(names, runs))))
    print("%-56s" % "function" + "".join("%14s" % name for name in names))
    for site in package_functions():
        module, _, qualname = site
        cells = "".join("%14.2f" % (by_site[site] / count) for count, by_site in runs)
        print("%-56s" % ("%s.%s" % (module, qualname)) + cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
