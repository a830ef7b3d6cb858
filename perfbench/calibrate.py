"""Host-speed calibration: a fixed pure-Python loop timed between jobs.

On a shared host the speed of the same code changes by up to a factor of
two from one second to the next, as other tenants load the machine.  A
run therefore takes a sample of this reference loop's time about every
0.1 s between jobs and scales each job's time by ``REF_S`` over the mean
of the samples taken just before and just after the job: the figures it
reports are times on a host where the reference loop takes ``REF_S``.
The loop mixes fraction arithmetic in dicts, integer elimination on
lists and row operations on a small numpy array, as the package does,
but never calls monograde, so no change to the package can move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

REPS = 3  # back-to-back runs of the reference loop in one sample
REF_S = 400e-6  # nominal seconds of one loop; 0.37-0.7 ms on the baseline machine

_MATRIX = np.array([[(i * 7 + j * 13) % 11 - 5 for j in range(8)] for i in range(6)], dtype=np.int64)


def _reference() -> int:
    """The three kinds of work the package does, in about equal shares."""
    # a polynomial product: dict arithmetic on tuples and fractions
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(6)}
    head = list(p.items())[:4]
    q = {}
    for (a, b), c in p.items():
        for (e, f), g in head:
            key = (a + e, b + f)
            q[key] = q.get(key, 0) + c * g
    # fraction-free elimination on integer lists
    rows = [[(i * 31 + j * 17) % 23 - 11 for j in range(10)] for i in range(10)]
    for k in range(9):
        for i in range(k + 1, 10):
            rows[i] = [rows[k][k] * x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    # row operations on a small int64 array, one numpy call per row
    m = _MATRIX.copy()
    for k in range(5):
        for i in range(k + 1, 6):
            m[i] = (int(m[k, k]) * m[i] - int(m[i, k]) * m[k]) % 1009
    return len(q) + sum(map(abs, rows[9])) % 7 + int(m[5, 7])


def sample() -> float:
    """Seconds of the fastest of ``REPS`` back-to-back reference loops.

    The collector is off meanwhile, so that a collection of the objects
    earlier jobs left behind is not timed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPS):
            start = time.perf_counter()
            _reference()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def job_scales(samples, sample_at):
    """Factor from measured to nominal seconds for each job, from the
    samples taken just before and just after it.  ``sample_at[i]`` is the
    number of jobs run before ``samples[i]``; the first sample precedes
    the first job and the last follows the last job."""
    scales = []
    for i in range(len(samples) - 1):
        factor = 2 * REF_S / (samples[i] + samples[i + 1])
        scales.extend([factor] * (sample_at[i + 1] - sample_at[i]))
    return scales
