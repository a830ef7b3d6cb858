"""Result digests of the benchmark's job lists, to pin "same answers".

    python3 tests/digests.py --seed 811 [--seconds 15] [--workload NAME]...

Repeat ``--workload`` for each workload to run; without it all four run.

For each workload this generates the job list that
``perfbench/run.py --seed N --seconds S --trace 0`` generates (the
warm-up job included), runs every job through the same public API calls
and prints one line: the workload, the job count and the sha256 of the
results.  A job that raises contributes its exception type and message.
Two checkouts that print the same lines for a seed gave the same answers
on every job of it.  The perfbench modules are only imported, and
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import jobs  # noqa: E402  (puts this checkout's src/ first on the path)
import workloads  # noqa: E402
from monograde.groebner import Polynomial, format_polynomial  # noqa: E402


def _plain(x):
    """JSON for what ``json`` cannot encode: polynomials in their
    canonical text, fractions as ``p/q``."""
    if isinstance(x, Polynomial):
        return format_polynomial(x)
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError("cannot digest %r" % (x,))


def digest(name: str, seed: int, seconds: float) -> tuple[int, str]:
    job_list = workloads.generate(name, seed, workloads.job_count(name, seconds) + 1)
    h = hashlib.sha256()
    for job in job_list:
        try:
            result = jobs.run(job)
        except Exception as e:  # a failing job is part of the answer
            result = "%s: %s" % (type(e).__name__, e)
        h.update(json.dumps(result, default=_plain, sort_keys=True).encode())
        h.update(b"\n")
    return len(job_list), h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="a workload to digest; repeat the flag for more (default all four)")
    args = parser.parse_args(argv)
    for name in args.workload or workloads.WORKLOADS:
        count, hexdigest = digest(name, args.seed, args.seconds)
        print("%-13s seed %d  %5d jobs  sha256 %s" % (name, args.seed, count, hexdigest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
