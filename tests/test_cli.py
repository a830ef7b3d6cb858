"""End to end checks for the JSON job command line interface.

Each test drives monograde.cli.main in process with an in memory job,
captures the one line JSON report, and compares frozen result objects.
One test goes through the installed console script to cover the
packaging wiring, and one replays the same job to pin down byte
identical output.
"""

import collections
import copy
import functools
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

from monograde import __version__, cli, exact_linalg, groebner, multigraded
from monograde.cli import (
    COMMANDS,
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_MATH,
    EXIT_OK,
    _job_errors,
    build_parser,
    main,
)
from monograde.groebner import IdealPresentation, default_variables, grevlex, parse_polynomial
from monograde.multigraded import GradedRingSpec
from corpora import cone_corpus, hull_job_corpus, presentation_corpus
from hullcheck import assert_hull_contract
from references import full_hull_rows, rational_buchberger, rows_route

HERE = os.path.dirname(os.path.abspath(__file__))

QUADRANT = '{"command":"canonical","rays":[[1,0],[0,1]]}'
DEG3 = '{"command":"class-group","rays":[[1,0],[1,3]]}'


def run_cli(monkeypatch, capsys, argv, text):
    """Run main() on the given stdin text and return (code, stdout, stderr)."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(monkeypatch, capsys, argv, text):
    code, out, err = run_cli(monkeypatch, capsys, argv, text)
    assert code == EXIT_OK, err
    return json.loads(out)


def error_of(monkeypatch, capsys, argv, text):
    code, out, err = run_cli(monkeypatch, capsys, argv, text)
    assert out == ""
    payload = json.loads(err)
    assert payload["exit"] == code
    return code, payload["error"]


def _schema() -> dict:
    """The ``schema.json`` the package ships beside ``cli``."""
    return json.loads(resources.files("monograde").joinpath("schema.json").read_text())


def test_shipped_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(_schema())


def test_canonical_report_for_quadrant(monkeypatch, capsys):
    report = report_of(monkeypatch, capsys, ["canonical"], QUADRANT)
    assert report["result"] == {"h": [1, 1], "generators": [[1, 1]], "gorenstein": True}
    assert report["input"] == {"rays": [[1, 0], [0, 1]]}
    assert report["options"] == {"budget": 500000}
    assert report["version"] == __version__


def test_class_group_report_for_degree_three_cone(monkeypatch, capsys):
    report = report_of(monkeypatch, capsys, ["class-group"], DEG3)
    assert report["result"] == {"invariant_factors": [3]}


def test_hilbert_basis_report_for_degree_three_cone(monkeypatch, capsys):
    job = '{"command":"hilbert-basis","rays":[[1,0],[1,3]]}'
    report = report_of(monkeypatch, capsys, ["hilbert-basis"], job)
    assert report["result"] == {
        "hilbert_basis": [[1, 0], [1, 1], [1, 2], [1, 3]],
        "unit_basis": [],
    }


def test_gorenstein_reports_certificate_or_null(monkeypatch, capsys):
    good = '{"command":"gorenstein","rays":[[1,0],[0,1]]}'
    report = report_of(monkeypatch, capsys, ["gorenstein"], good)
    assert report["result"] == {"gorenstein": True, "certificate": [1, 1]}
    bad = '{"command":"gorenstein","rays":[[1,0],[1,3]]}'
    report = report_of(monkeypatch, capsys, ["gorenstein"], bad)
    assert report["result"] == {"gorenstein": False, "certificate": None}


def test_canonical_and_gorenstein_commands_agree_on_the_flag(monkeypatch, capsys):
    """``canonical`` reads its flag off the generator count and
    ``gorenstein`` off one Hermite back-substitution.  On every golden
    job with rays or generators, the cones of ``cone_corpus(401)`` (with
    units and embedded among them), the whole lattice and the
    presentations of ``presentation_corpus`` (non-normal ones among
    them), the two commands print the same flag, or the same error with
    the same exit code."""
    with open(os.path.join(HERE, "golden_cli.json"), encoding="utf-8") as fh:
        jobs = [json.loads(case["stdin"]) for case in json.load(fh)]
    payloads = [{k: job[k]} for job in jobs for k in ("rays", "generators") if k in job]
    payloads += [{"rays": rays} for rays in cone_corpus(401)]
    payloads += [{"rays": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
                 {"rays": [[1, 0, 1], [-1, 0, -1], [0, 1, 1], [0, -1, -1]]}]
    payloads += [{"generators": gens} for gens in presentation_corpus(443, 60)]
    seen = collections.Counter()
    for payload in payloads:
        outcomes = []
        for command in ("canonical", "gorenstein"):
            code, out, err = run_cli(monkeypatch, capsys, [command],
                                     json.dumps(dict(payload, command=command)))
            outcomes.append((code, json.loads(out)["result"]["gorenstein"] if out else err))
        assert outcomes[0] == outcomes[1], payload
        code, flag = outcomes[0]
        seen[code, flag if code == EXIT_OK else None] += 1
    assert seen[EXIT_OK, True] > 60 and seen[EXIT_OK, False] > 25 and seen[EXIT_MATH, None] > 10, seen


def test_normalize_report_flags_the_gap(monkeypatch, capsys):
    job = '{"command":"normalize","generators":[[2],[3]]}'
    report = report_of(monkeypatch, capsys, ["normalize"], job)
    assert report["result"] == {
        "rank": 1,
        "lattice_basis": [[1]],
        "normalized_generators": [[2], [3]],
        "is_normal": False,
        "witness": [1],
    }


def test_graded_hull_report(monkeypatch, capsys):
    job = '{"command":"graded-hull","vars":2,"grading":[[1],[1]],"ideal":["x1 + x2^2","x2"]}'
    report = report_of(monkeypatch, capsys, ["graded-hull"], job)
    assert report["result"] == {"hull": ["x2", "x1"]}


def origin_prime(grading):
    n = len(grading)
    return json.dumps({"command": "analyze-prime", "vars": n, "grading": grading,
                       "prime": ["x%d" % (i + 1) for i in range(n)]})


ORIGIN_PRIMES = [origin_prime([[1]] * n) for n in (3, 4, 5, 6, 8)] + [
    origin_prime([[1, 0], [0, 1], [1, 1], [1, -1]])]


def test_origin_primes_are_graded_with_no_drop(monkeypatch, capsys):
    # random nonmembers rarely have a constant term, so they all fall
    # into (x1, ..., xn) unless the sampler falls back to a sure one
    for job in ORIGIN_PRIMES:
        result = report_of(monkeypatch, capsys, ["analyze-prime"], job)["result"]
        n = json.loads(job)["vars"]
        assert result["graded"] and result["tau"] == 0
        assert sorted(result["p_star"]) == ["x%d" % (i + 1) for i in range(n)]


def test_point_prime_in_many_variables_exits_quickly(monkeypatch, capsys):
    # the leading terms are the n variables, so the least cover takes
    # n + 1 branches where a scan of variable subsets took 2^n
    n = 20
    job = json.dumps({"command": "analyze-prime", "vars": n, "grading": [[1]] * n,
                      "prime": ["x%d + %d" % (i, i) for i in range(1, n + 1)]})
    t0 = time.monotonic()
    result = report_of(monkeypatch, capsys, ["analyze-prime"], job)["result"]
    assert time.monotonic() - t0 < 1
    assert (result["dim_p"], result["dim_p_star"], result["tau"]) == (n, n - 1, 1)


def test_analyze_prime_report(monkeypatch, capsys):
    job = '{"command":"analyze-prime","vars":2,"grading":[[1],[1]],"prime":["x1 + 1","x2"]}'
    report = report_of(monkeypatch, capsys, ["analyze-prime"], job)
    assert report["result"] == {
        "p_star": ["x2"],
        "graded": False,
        "dim_p": 2,
        "dim_p_star": 1,
        "tau": 1,
        "sigma": 1,
    }


def test_each_polynomial_is_parsed_once(monkeypatch):
    calls = []

    def counted(text, names):
        calls.append(text)
        return parse_polynomial(text, names)

    monkeypatch.setattr(cli, "parse_polynomial", counted)
    jobs = ['{"command":"graded-hull","vars":2,"grading":[[1],[1]],"ideal":["x1 + x2^2","x2"]}',
            '{"command":"analyze-prime","vars":2,"grading":[[1],[1]],"prime":["x1 + 1","x2"]}',
            '{"command":"graded-hull","vars":3,"grading":[[1],[1],[1]],"ideal":[]}']
    for job in jobs:
        calls.clear()
        cli.execute(cli.parse_input(job))
        payload = json.loads(job)
        assert calls == payload.get("ideal", payload.get("prime"))


STALL = ('{"command":"analyze-prime","vars":4,"grading":[[-2],[-2],[-2],[0]],'
         '"prime":["1/2*x4 + x1^2*x2*x4 + 5*x2","5*x2*x3^2 + 1/2*x3^2 + 2"]}')


def test_hull_elimination_that_stalled_fits_a_small_budget(monkeypatch, capsys):
    # under the normal strategy the elimination order basis of this
    # torus substitution took 35,921 reduction steps; sugar takes a few
    # hundred
    report = report_of(monkeypatch, capsys, ["analyze-prime", "--budget", "2000"], STALL)
    result = report["result"]
    assert (result["graded"], result["dim_p"], result["dim_p_star"], result["tau"]) \
        == (False, 2, 1, 1)
    job = json.loads(STALL)
    names = default_variables(job["vars"])
    spec = GradedRingSpec(tuple(tuple(d) for d in job["grading"]))
    prime = IdealPresentation(tuple(parse_polynomial(t, names) for t in job["prime"]),
                              grevlex(job["vars"]))
    p_star = IdealPresentation(tuple(parse_polynomial(t, names) for t in result["p_star"]),
                               grevlex(job["vars"]))
    assert_hull_contract(prime, p_star, spec, dmax=5)


def hull_corpus_outcomes(monkeypatch, capsys, route=None, budget="1000"):
    """(exit code, stdout, stderr) of the first 40 jobs of
    ``hull_job_corpus(97, ...)`` at ``budget``, with ``route`` run on
    rows (:func:`references.rows_route`) in place of the kernel entry
    ``_reduced_rows`` if one is given."""
    with monkeypatch.context() as m:
        if route is not None:
            m.setattr(groebner, "_reduced_rows", rows_route(route))
            m.setattr(multigraded, "_reduced_rows", rows_route(route))
        out = []
        for text in hull_job_corpus(97, 40):
            argv = [json.loads(text)["command"], "--budget", budget]
            out.append(run_cli(monkeypatch, capsys, argv, text))
        return out


def test_sugar_moves_hull_jobs_only_from_exit_3_to_exit_0(monkeypatch, capsys):
    # the pair selection changes which inputs a budget suffices for, and
    # nothing else: the reduced bases, hence the reports, are unique
    sugar = hull_corpus_outcomes(monkeypatch, capsys)
    normal = hull_corpus_outcomes(monkeypatch, capsys,
                                  functools.partial(rational_buchberger, strategy="normal"))
    moved = [(a[0], b[0]) for a, b in zip(normal, sugar) if a[0] != b[0]]
    assert moved and set(moved) == {(EXIT_BUDGET, EXIT_OK)}
    assert all(a == b for a, b in zip(normal, sugar) if a[0] == b[0] != EXIT_BUDGET)


def test_kept_rows_move_hull_jobs_only_from_exit_3_to_exit_0(monkeypatch, capsys):
    # a pass that interreduces only the rows it keeps, and hands them to
    # the next pass as they are, spends fewer steps than the full route
    # of references.full_hull_rows and nothing else changes: the reports are
    # the same reduced bases.  At 250 steps job 18 now fits
    for budget in ("250", "1000"):
        kept = hull_corpus_outcomes(monkeypatch, capsys, budget=budget)
        with monkeypatch.context() as m:
            m.setattr(multigraded, "_hull_rows", full_hull_rows)
            full = hull_corpus_outcomes(monkeypatch, capsys, budget=budget)
        moved = [(a[0], b[0]) for a, b in zip(full, kept) if a[0] != b[0]]
        assert set(moved) <= {(EXIT_BUDGET, EXIT_OK)}
        assert bool(moved) == (budget == "250")
        assert all(a == b for a, b in zip(full, kept) if a[0] == b[0] != EXIT_BUDGET)


def test_integer_kernel_keeps_hull_reports_and_exit_codes(monkeypatch, capsys):
    # the integer kernel spends the steps the rational route spent, so
    # even the jobs that run out of budget exit alike, byte for byte
    integer = hull_corpus_outcomes(monkeypatch, capsys)
    rational = hull_corpus_outcomes(monkeypatch, capsys, rational_buchberger)
    assert integer == rational
    assert {code for code, _, _ in integer} >= {EXIT_OK, EXIT_BUDGET}


def test_rejects_malformed_json(monkeypatch, capsys):
    code, message = error_of(monkeypatch, capsys, ["canonical"], '{"command":')
    assert code == EXIT_INPUT
    assert message.startswith("input is not valid JSON")


def test_schema_errors_point_at_the_offending_field(monkeypatch, capsys):
    job = '{"command":"canonical","rays":[[1,0],[1,"x"]]}'
    code, message = error_of(monkeypatch, capsys, ["canonical"], job)
    assert code == EXIT_INPUT
    assert message.startswith("$.rays[1][1]:")
    job = '{"command":"canonical","rays":[[1,0],[0,1]],"options":{"budget":0}}'
    code, message = error_of(monkeypatch, capsys, ["canonical"], job)
    assert code == EXIT_INPUT
    assert message.startswith("$.options.budget:")


def test_box_and_trunc_are_no_longer_options(monkeypatch, capsys):
    # nor is output, which took the one value json
    for options in ('{"box":4}', '{"output":"json"}'):
        job = '{"command":"canonical","rays":[[1,0],[0,1]],"options":%s}' % options
        code, message = error_of(monkeypatch, capsys, ["canonical"], job)
        assert code == EXIT_INPUT
        assert message.startswith("$.options:")
    for flag, value in (("--box", "4"), ("--trunc", "4"), ("--output", "json")):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["canonical", flag, value])


def test_integral_float_vars_behave_as_integers(monkeypatch, capsys):
    job = '{"command":"graded-hull","vars":%s,"grading":[[1],[1]],"ideal":["x1 + x2^2","x2"]}'
    code, out, err = run_cli(monkeypatch, capsys, ["graded-hull"], job % "2.0")
    assert (code, err) == (EXIT_OK, "")
    assert out == run_cli(monkeypatch, capsys, ["graded-hull"], job % "2")[1]


def _as_floats(x):
    """The JSON value with every integer written as a float, N as N.0."""
    if isinstance(x, dict):
        return {k: _as_floats(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_as_floats(v) for v in x]
    return float(x) if type(x) is int else x


@pytest.mark.parametrize("command", COMMANDS)
def test_integral_floats_are_echoed_as_the_ints_the_job_ran_with(monkeypatch, capsys, command):
    # the first golden job of each command, with a budget option, and its twin
    # with every integer written N.0: vars, budget and every vector entry
    with open(os.path.join(HERE, "golden_cli.json"), encoding="utf-8") as fh:
        case = next(c for c in json.load(fh) if c["argv"] == [command])
    job = dict(json.loads(case["stdin"]), options={"budget": 1000})
    twin = json.dumps(_as_floats(job))
    assert twin.count(".0") > 2 and '"budget": 1000.0' in twin
    code, out, err = run_cli(monkeypatch, capsys, [command], twin)
    assert (code, err) == (EXIT_OK, "")
    assert out == run_cli(monkeypatch, capsys, [command], json.dumps(job))[1]
    assert '"options":{"budget":1000}' in out


def test_rejects_fields_of_other_commands(monkeypatch, capsys):
    job = '{"command":"canonical","rays":[[1,0],[0,1]],"ideal":["x1"]}'
    code, message = error_of(monkeypatch, capsys, ["canonical"], job)
    assert code == EXIT_INPUT
    assert message == "$.ideal: not a field of the 'canonical' command"


def test_rejects_ragged_vectors(monkeypatch, capsys):
    job = '{"command":"canonical","rays":[[1,0],[1]]}'
    code, message = error_of(monkeypatch, capsys, ["canonical"], job)
    assert code == EXIT_INPUT
    assert message == "rays[1]: expected 2 entries, got 1"


def test_rejects_unparsable_polynomials(monkeypatch, capsys):
    job = '{"command":"%s","vars":2,"grading":[[1],[1]],"%s":["x2", "%s"]}'
    for command, key in (("graded-hull", "ideal"), ("analyze-prime", "prime")):
        for text in ("x1 +", "x1 + 1/0", "3/0*x2", "x1*", "2*", "x1 * - x2"):
            code, message = error_of(monkeypatch, capsys, [command], job % (command, key, text))
            assert code == EXIT_INPUT
            assert message.startswith("%s[1]:" % key)


def test_rejects_command_mismatch(monkeypatch, capsys):
    code, message = error_of(monkeypatch, capsys, ["canonical"], DEG3)
    assert code == EXIT_INPUT
    assert "'class-group'" in message and "'canonical'" in message


def test_execute_names_an_unknown_command():
    """``execute`` refuses a job whose command it has no branch for,
    which ``parse_input`` never builds, and names the command."""
    job = cli.JobSpec("triangulate", {"rays": [[1, 0], [0, 1]]}, {}, ())
    with pytest.raises(cli.InputError, match=r"^\$\.command: unknown command 'triangulate'$"):
        cli.execute(job)


def test_exhausted_budget_exits_3(monkeypatch, capsys):
    job = (
        '{"command":"graded-hull","vars":2,"grading":[[1],[1]],'
        '"ideal":["x1^4 + x2^2 + x1","x1*x2 + x2"],"options":{"budget":1}}'
    )
    code, message = error_of(monkeypatch, capsys, ["graded-hull"], job)
    assert code == EXIT_BUDGET
    assert "budget" in message


def test_huge_canonical_frame_exits_3_from_the_echelon_guard(monkeypatch, capsys):
    # the moment curve's 8 rays give a cone with 20 facets; once double
    # description has found the region's vertices, the guard of the
    # generators' echelon frame refuses it before any point is swept
    rays = [[1, t, t ** 2, t ** 3, t ** 4] for t in range(8)]
    job = json.dumps({"command": "canonical", "rays": rays})
    t0 = time.monotonic()
    code, message = error_of(monkeypatch, capsys, ["canonical"], job)
    assert code == EXIT_BUDGET
    assert "echelon sweep" in message
    assert time.monotonic() - t0 < 5


def test_violated_precondition_exits_4(monkeypatch, capsys):
    job = '{"command":"canonical","generators":[[2],[3]]}'
    code, message = error_of(monkeypatch, capsys, ["canonical"], job)
    assert code == EXIT_MATH
    assert "saturation" in message


# -- the hand-written job check against a JSON Schema validator -----------

FILLERS = ["s", True, False, 1.5, 2.0, None, [], {}, 0, -1]


def _nodes(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _value_at(job, path):
    for key in path:
        job = job[key]
    return job


def _replaced(job, path, new):
    if not path:
        return new
    out = copy.deepcopy(job)
    _value_at(out, path[:-1])[path[-1]] = new
    return out


def _mutant(rng, job):
    """One random edit of a valid job; most edits break a schema rule."""
    job = copy.deepcopy(job)
    kind = rng.randrange(8)
    if kind == 0:  # a missing key
        del job[rng.choice(sorted(job))]
    elif kind == 1:  # an unknown key, at the top or in the options
        target = job.setdefault("options", {}) if rng.random() < 0.5 else job
        target[rng.choice(["bogus", "box", "trunc", "Rays"])] = 1
    elif kind == 2:  # a wrong type anywhere, or an integral float
        return _replaced(job, rng.choice(list(_nodes(job))), rng.choice(FILLERS))
    elif kind == 3:  # an empty array
        arrays = [p for p in _nodes(job) if p and isinstance(_value_at(job, p), list)]
        return _replaced(job, rng.choice(arrays), [])
    elif kind == 4:  # vars or budget: zero or less, fractional, or fine
        value = rng.choice([0, -1, -3, 0.5, 1, 3])
        if "vars" in job and rng.random() < 0.5:
            job["vars"] = value
        else:
            job.setdefault("options", {})["budget"] = value
    elif kind == 5:  # an unknown command, or one whose fields are missing
        job["command"] = rng.choice(["hilbert", "", "normalize", "graded-hull", "analyze-prime"])
    elif kind == 6:  # both rays and generators
        vectors = job.get("rays") or job.get("generators") or [[1, 0]]
        job["rays"], job["generators"] = vectors, copy.deepcopy(vectors)
    else:  # bad options
        job["options"] = rng.choice([
            [], "json", None, {"output": "xml"}, {"budget": "9"}, {"budget": True},
            {"output": "json", "budget": 2.0}, {"box": 4, "trunc": 8},
        ])
    return job


def test_job_check_agrees_with_a_json_schema_validator():
    with open(os.path.join(HERE, "golden_cli.json"), encoding="utf-8") as fh:
        jobs = [json.loads(case["stdin"]) for case in json.load(fh)]
    by_command = {}
    for job in jobs:
        by_command.setdefault(job["command"], []).append(job)
    validator = jsonschema.Draft202012Validator(_schema())
    rng = random.Random(409)
    # each command equally often, whatever its share of the golden jobs
    mutants = [_mutant(rng, rng.choice(by_command[rng.choice(sorted(by_command))]))
               for _ in range(900)]
    rejected = 0
    for job in jobs + mutants:
        expected = sorted(validator.iter_errors(job), key=lambda e: str(e.json_path))
        got = _job_errors(job)
        assert bool(got) == bool(expected), (job, got, [e.message for e in expected])
        if expected:
            rejected += 1
            assert min(got, key=lambda e: e[0])[0] == str(expected[0].json_path), job
    assert 500 <= rejected < len(mutants)


# -- every input ends in a report or a documented exit code --------------

POLY_TOKEN = re.compile(r"\d+|\w+|\S")


def _mutated_polynomial(rng, text):
    tokens = POLY_TOKEN.findall(text) or ["0"]
    i = rng.randrange(len(tokens))
    kind = rng.randrange(4)
    if kind == 0:
        tokens[i + 1:i + 1] = ["/", "0"]
    elif kind == 1:
        del tokens[i]
    elif kind == 2:
        tokens.insert(i, tokens[i])
    else:
        tokens.insert(i, rng.choice(["/", "0", "^", "*", "+", "-", "x1", "1/0"]))
    return " ".join(tokens)


def _mutated_vectors(rng, rows):
    rows = copy.deepcopy(rows)
    if not rows or not all(rows):  # an earlier edit emptied the list or a vector
        return rows + [[0]]
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows[i]))
    kind = rng.randrange(6)
    if kind == 0:
        rows[i][j] = -rows[i][j]
    elif kind == 1:
        rows[i][j] += rng.choice((-1, 1))
    elif kind == 2:
        del rows[i][j]
    elif kind == 3:
        rows.insert(i, list(rows[i]))
    elif kind == 4:
        rows[i] = [0] * len(rows[i])
    else:
        del rows[i]
    return rows


def test_mutated_golden_jobs_exit_with_a_documented_code(monkeypatch, capsys):
    with open(os.path.join(HERE, "golden_cli.json"), encoding="utf-8") as fh:
        jobs = [json.loads(case["stdin"]) for case in json.load(fh)]
    rng = random.Random(811)
    texts = list(ORIGIN_PRIMES)
    for _ in range(240):
        job = copy.deepcopy(rng.choice(jobs))
        for _ in range(rng.randint(1, 2)):
            key = rng.choice([k for k in ("rays", "generators", "grading", "ideal", "prime")
                              if k in job])
            if key in ("ideal", "prime"):
                i = rng.randrange(len(job[key]))
                job[key][i] = _mutated_polynomial(rng, job[key][i])
            else:
                job[key] = _mutated_vectors(rng, job[key])
        texts.append(json.dumps(job))
    codes = {}
    for text in texts:
        code, _, _ = run_cli(monkeypatch, capsys, [json.loads(text)["command"]], text)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET, EXIT_MATH), text
        codes[code] = codes.get(code, 0) + 1
    assert codes[EXIT_OK] > 60 and codes[EXIT_INPUT] > 30 and codes.get(EXIT_MATH)


def test_package_imports_without_numpy_or_jsonschema():
    code = ("import sys, monograde, monograde.cli; "
            "print(sorted({'numpy', 'jsonschema'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_repeated_runs_are_byte_identical(monkeypatch, capsys):
    outputs = set()
    for _ in range(3):
        code, out, err = run_cli(monkeypatch, capsys, ["canonical"], QUADRANT)
        assert code == EXIT_OK
        outputs.add(out)
    assert len(outputs) == 1
    assert outputs.pop().endswith("\n")


def test_budget_precedence_flag_over_options_over_default(monkeypatch, capsys):
    job = '{"command":"gorenstein","rays":[[1,0],[0,1]]}'
    code, out, _ = run_cli(monkeypatch, capsys, ["gorenstein"], job)
    assert json.loads(out)["options"]["budget"] == exact_linalg.DEFAULT_BUDGET
    job_opt = '{"command":"gorenstein","rays":[[1,0],[0,1]],"options":{"budget":888}}'
    code, out, _ = run_cli(monkeypatch, capsys, ["gorenstein"], job_opt)
    assert json.loads(out)["options"]["budget"] == 888
    code, out, _ = run_cli(monkeypatch, capsys, ["gorenstein", "--budget", "999"], job_opt)
    assert json.loads(out)["options"]["budget"] == 999


def test_parse_input_docstring_names_the_default_budget():
    doc = cli.parse_input.__doc__
    assert doc is not None and "Option precedence" in doc
    assert "budget=%d" % exact_linalg.DEFAULT_BUDGET in doc


def test_a_nonpositive_budget_names_where_it_came_from(monkeypatch, capsys):
    job = '{"command":"graded-hull","vars":1,"grading":[[1]],"ideal":["x1"]}'
    code, message = error_of(monkeypatch, capsys, ["graded-hull", "--budget", "0"], job)
    assert code == EXIT_INPUT
    assert message == "--budget: must be positive"


def test_reads_job_from_input_file(monkeypatch, capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(QUADRANT, encoding="utf-8")
    report = report_of(monkeypatch, capsys, ["canonical", "--input", str(path)], "")
    assert report["result"]["generators"] == [[1, 1]]


def test_missing_input_file_exits_2(monkeypatch, capsys, tmp_path):
    path = tmp_path / "absent.json"
    code, message = error_of(monkeypatch, capsys, ["canonical", "--input", str(path)], "")
    assert code == EXIT_INPUT
    assert message.startswith("cannot read")


def test_console_script_matches_in_process_output(monkeypatch, capsys):
    exe = shutil.which("monograde")
    assert exe is not None, "console script not installed"
    proc = subprocess.run(
        [exe, "class-group"], input=DEG3, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == EXIT_OK
    _, out, _ = run_cli(monkeypatch, capsys, ["class-group"], DEG3)
    assert proc.stdout == out
