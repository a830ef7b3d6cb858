"""monograde benchmark: seeded job streams through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: the next job starts when the
previous one returns.  All inputs are generated from the seed before any
timing; results are checked after it.  With ``--trace 0`` the run times
S seconds' worth of jobs at the workload's nominal rate (at least 100),
scales each job's time to the nominal host speed (see calibrate.py) and
reports the end-to-end metrics; with ``--trace 1`` it runs the
workload's fixed traced job count twice, each job untraced and traced
back to back, and reports per-layer metrics.  Either way the last line
of stdout is one JSON object; the lines before it are the same figures
for people.  Any wrong result makes
the exit code 1.  See README.md in this directory for the metrics and
workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 9
CALIBRATE_EVERY_S = 0.1  # a calibration sample takes about 1.2 ms
TRACED_PASSES = 2  # so that counts can be compared

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _run_safely(job):
    """A job's result, or the exception it raised, as a failure."""
    try:
        return jobs.run(job), None
    except Exception as e:  # a failed job is counted, not fatal
        return None, "%s: %s" % (type(e).__name__, e)


def _check_all(job_list, outcomes):
    failures = []
    for job, (result, error) in zip(job_list, outcomes):
        reason = error or check.check(job, result)
        if reason:
            failures.append("job %d: %s" % (job["id"], reason))
    return failures


def _probe_setup(job) -> float:
    """Seconds from starting a fresh interpreter to its first job done."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.wait(timeout=120)
    if line.strip() != "ok" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed with exit code %s" % proc.returncode)
    return elapsed


def _shares(values):
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return " ".join("%s=%.1f%%" % (k, 100.0 * c / len(values)) for k, c in sorted(counts.items()))


def _decades(values):
    """Share of values in each power-of-ten bucket (<=10, <=100, ...)."""
    buckets = {}
    for v in values:
        b = 10
        while v > b:
            b *= 10
        buckets[b] = buckets.get(b, 0) + 1
    return " ".join("<=%d:%.1f%%" % (b, 100.0 * c / len(values)) for b, c in sorted(buckets.items()))


def _hilbert_jobs(job_list):
    """Jobs that compute one Hilbert basis of a cone given by rays."""
    return [j for j in job_list
            if j["kind"] == "monoid-ring"
            or j["props"].get("command") in ("hilbert-basis", "canonical", "gorenstein")]


def _print_properties(job_list):
    print("properties of the %d jobs run:" % len(job_list))
    inputs = [json.dumps(j["input"]) for j in job_list]
    print("  %-14s %.1f%% of jobs repeat an earlier input"
          % ("repeats", 100.0 * (len(inputs) - len(set(inputs))) / len(inputs)))
    for key in sorted({k for j in job_list for k in j["props"]}):
        print("  %-14s %s" % (key, _shares([j["props"][key] for j in job_list if key in j["props"]])))
    cones = _hilbert_jobs(job_list)
    if cones:
        refs = [check.cone_ref(j) for j in cones]
        print("  %-14s %s (%d jobs)" % ("hilbert_box", _decades([r.hilbert_box_points() for r in refs]), len(refs)))
        print("  %-14s %s" % ("canonical_box", _decades([r.mingen_box_points() for r in refs])))


def end_to_end(name, seed, seconds):
    t = time.perf_counter()
    job_list = workloads.generate(name, seed, workloads.job_count(name, seconds) + 1)
    generate_s = time.perf_counter() - t
    jobs.run(job_list[0])  # warm-up, not timed
    # set-up probes spread over the timed loop, so that their median
    # sees the same host as the jobs; they are not part of any job's time
    probes = []
    probe_every = -(-(len(job_list) - 1) // SETUP_PROBES)
    # calibration samples between jobs; sample_at[i] is the number of
    # jobs run before samples[i] was taken
    samples, sample_at = [calibrate.sample()], [0]
    outcomes, latencies = [], []
    last_sample = time.perf_counter()
    start = time.perf_counter()
    for k, job in enumerate(job_list[1:]):
        if k % probe_every == 0:
            probes.append(_probe_setup(job_list[0]))
        if time.perf_counter() - last_sample >= CALIBRATE_EVERY_S:
            samples.append(calibrate.sample())
            sample_at.append(len(latencies))
            last_sample = time.perf_counter()
        t = time.perf_counter()
        outcomes.append(_run_safely(job))
        latencies.append(time.perf_counter() - t)
    samples.append(calibrate.sample())
    sample_at.append(len(latencies))
    elapsed = time.perf_counter() - start - sum(probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ran = job_list[1:]
    t = time.perf_counter()
    failures = _check_all(ran, outcomes)
    check_s = time.perf_counter() - t
    scales = calibrate.job_scales(samples, sample_at)
    scaled = [x * k for x, k in zip(latencies, scales)]

    def figures(times):
        return {
            "jobs_per_s": (len(times) - len(failures)) / sum(times),
            "job_p50_ms": 1e3 * statistics.median(times),
            "job_p90_ms": 1e3 * statistics.quantiles(times, n=10, method="inclusive")[8],
        }
    metrics, measured = figures(scaled), figures(latencies)
    # set-up is mostly loading numpy's and jsonschema's modules, whose
    # time does not follow the reference loop's, so it is not scaled
    metrics["setup_s"] = statistics.median(probes)
    metrics["peak_rss_mb"] = peak_rss_mb

    print("workload %s  seed %d  %d jobs in %.3f s, one client, closed loop"
          % (name, seed, len(outcomes), elapsed))
    quartiles = statistics.quantiles(samples, n=4)
    print("  reference loop %.0f / %.0f / %.0f us (quartiles of %d samples), nominal %.0f us"
          % (*(1e6 * q for q in quartiles), len(samples), 1e6 * calibrate.REF_S))
    print("  %-14s %12s %12s" % ("", "reported", "unscaled"))
    for key, value in metrics.items():
        print("  %-14s %12.4f %12.4f %s" % (key, value, measured.get(key, value), E2E_UNITS[key]))
    print("  %-14s %12.4f %12s %s (%d of %d jobs failed)"
          % ("error_rate", len(failures) / len(outcomes), "", "ratio", len(failures), len(outcomes)))
    _print_properties(ran)
    print("harness: generating %.2f s, %d set-up probes %.2f s, checking %.2f s"
          % (generate_s, len(probes), sum(probes), check_s))
    return ran, failures, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def _timed(job, tracer=None):
    """A job's outcome and seconds, traced by ``tracer`` if one is given."""
    if tracer is not None:
        tracer.job = job["id"]
        tracer.install()
    try:
        start = time.perf_counter()
        outcome = _run_safely(job)
        return outcome, time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()


def _paired_pass(job_list, tracer):
    """Every job untraced and traced back to back, the order alternating
    from job to job, so that drift in machine speed, which is large over
    seconds, hits both sides alike.  Returns the untraced and traced
    (outcome, seconds) lists."""
    untraced, traced = [], []
    for k, job in enumerate(job_list):
        if k % 2:
            traced.append(_timed(job, tracer))
            untraced.append(_timed(job))
        else:
            untraced.append(_timed(job))
            traced.append(_timed(job, tracer))
    return untraced, traced


def _count_signature(tracer):
    per_function = {}
    for fid, *_ in tracer.spans:
        per_function[fid] = per_function.get(fid, 0) + 1
    return (dict(tracer.counts), tracer.reduction_steps, tracer.spairs_to_zero,
            tracer.functions, per_function)


def traced(name, seed):
    count = workloads.WORKLOADS[name][2]
    job_list = workloads.generate(name, seed, count + 1)
    jobs.run(job_list[0])  # warm-up, not timed
    ran = job_list[1:]
    passes = []
    for _ in range(TRACED_PASSES):
        tracer = tracing.Tracer()
        untraced, traced_ = _paired_pass(ran, tracer)
        passes.append((tracer, untraced, traced_))
    outcomes = [o for o, _ in passes[0][1]]
    failures = _check_all(ran, outcomes)
    if any([o for o, _ in side] != outcomes for _, *sides in passes for side in sides):
        failures.append("traced or repeated results differ from the first untraced results")
    signature = _count_signature(passes[0][0])
    if any(_count_signature(t) != signature for t, *_ in passes[1:]):
        failures.append("traced passes gave different counts")
    untraced_s = sum(s for _, untraced, _ in passes for _, s in untraced)
    traced_s = sum(s for _, _, traced_ in passes for _, s in traced_)

    tracer, _, traced_ = passes[0]
    wall = sum(s for _, s in traced_)
    calls, self_s, inclusive, harness_s = tracer.layer_times(wall)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[layer + ".calls"] = (calls[layer], "count")
        metrics[layer + ".self_s"] = (self_s[layer], "s")
    spairs = tracer.total("s_polynomial")
    hb_ids = {j["id"] for j in _hilbert_jobs(ran)}
    hb_points = hb_sizes = hb_reported = 0
    for job, (result, _) in zip(ran, outcomes):
        if job["id"] in hb_ids:
            points = check.cone_ref(job).hilbert_box_points()
            hb_points += points
            basis = _basis_of(job, result)
            if basis is not None:
                hb_sizes += len(basis)
                hb_reported += points
    mingen = tracer.per_job("minimal_generators")
    by_id = {j["id"]: j for j in ran}
    metrics.update({
        "cli.parse_input_s": (inclusive["cli", "parse_input"], "s"),
        "multigraded.hull_passes": (tracer.total("graded_hull_z"), "count"),
        "groebner.reduction_steps": (tracer.reduction_steps, "count"),
        "groebner.spairs": (spairs, "count"),
        "groebner.spair_zero_ratio": (tracer.spairs_to_zero / spairs if spairs else 0.0, "ratio"),
        "monoid.hilbert_box_points": (hb_points, "computed_pts"),
        "monoid.hilbert_yield": (hb_sizes / hb_reported if hb_reported else 0.0, "ratio"),
        "divisorial.mingen_calls": (sum(mingen.values()), "count"),
        "divisorial.mingen_box_points": (
            sum(c * check.cone_ref(by_id[j]).mingen_box_points() for j, c in mingen.items()),
            "computed_pts"),
        "exact_linalg.hnf_calls": (tracer.total("hnf"), "count"),
        "exact_linalg.snf_calls": (tracer.total("snf"), "count"),
        "harness.self_s": (harness_s, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    accounted = sum(self_s.values()) + harness_s
    if abs(accounted - wall) > 1e-6 * wall:
        failures.append("self times and harness time do not add up to the wall time")

    out_dir = os.path.join(check.ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, "spans-%s-seed%d.npz" % (name, seed)))
    print("workload %s  seed %d  traced %d jobs, %d spans in the first traced pass"
          % (name, seed, len(ran), len(tracer.spans)))
    print("  %d passes: untraced %.3f s, traced %.3f s in all" % (len(passes), untraced_s, traced_s))
    for key, (value, unit) in metrics.items():
        print("  %-30s %16.6f %s" % (key, value, unit))
    return ran, failures, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _basis_of(job, result):
    """The Hilbert basis a job's result reports, or None."""
    if result is None:
        return None
    if job["kind"] == "monoid-ring":
        return result["hilbert"]
    if job["props"].get("command") == "hilbert-basis":
        return json.loads(result)["result"]["hilbert_basis"]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.trace:
        ran, failures, metrics = traced(args.workload, args.seed)
    else:
        ran, failures, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for line in failures[:20]:
        print("WRONG " + line)
    print(json.dumps({"correct": not failures, "attempted": len(ran),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    os.environ.pop("MONOGRADE_BUDGET", None)  # the CLI jobs use the default budget
    import calibrate  # noqa: E402
    import check  # noqa: E402  (exits when the checkout has no monograde or oracles)
    import jobs  # noqa: E402
    import tracing  # noqa: E402
    import workloads  # noqa: E402

    sys.exit(main())
