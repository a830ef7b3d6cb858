"""Command line interface: JSON jobs in, deterministic JSON reports out.

A job is a single JSON object naming a command and its payload; see
``schema.json`` next to this module.  Reports echo the payload and the
resolved options together with the result and the package version, as
one line of JSON on stdout, byte-identical across repeated runs on the
same input and command line: the budget comes from ``--budget``, then
the job's options, then the default, and nothing is read from the
environment.  Failures print one line of JSON on stderr and exit with 2
for malformed input, 3 for exhausted budgets or enumeration limits, and
4 for violated mathematical preconditions.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__
from .divisorial import canonical_module, class_group, is_gorenstein
from .exact_linalg import DEFAULT_BUDGET, BudgetExceededError
from .groebner import (
    IdealPresentation,
    Polynomial,
    default_variables,
    format_polynomial,
    grevlex,
    parse_polynomial,
)
from .monoid import monoid_from_cone_rays, normalize_presentation
from .multigraded import GradedRingSpec, analyze_prime, graded_hull

# the payload fields of each command; a cone command takes exactly one
# of its two, the others take all of theirs
_PAYLOAD_KEYS = {
    "hilbert-basis": ("rays", "generators"),
    "canonical": ("rays", "generators"),
    "class-group": ("rays", "generators"),
    "gorenstein": ("rays", "generators"),
    "normalize": ("generators",),
    "graded-hull": ("vars", "grading", "ideal"),
    "analyze-prime": ("vars", "grading", "prime"),
}
COMMANDS = tuple(_PAYLOAD_KEYS)
_FIELDS = {"command", "options"}.union(*_PAYLOAD_KEYS.values())
_OPTIONS = {"budget"}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_MATH = 4


class InputError(ValueError):
    """Malformed job input; the message points at the offending field."""


@dataclass(frozen=True)
class JobSpec:
    """A checked job.  ``polynomials`` holds the parsed ``ideal`` or
    ``prime`` strings of a graded command, parsed once by ``parse_input``
    while it checks them, and is empty for the cone commands."""

    command: str
    payload: dict
    options: dict
    polynomials: tuple[Polynomial, ...]


def _unexpected(path: str, keys: list, errors: list) -> None:
    if keys:
        names = ", ".join(map(repr, keys))
        errors.append((path, "Additional properties are not allowed (%s unexpected)" % names))


def _array_errors(path: str, value, item_errors, errors: list, nonempty: bool) -> None:
    if not isinstance(value, list):
        errors.append((path, "%r is not of type 'array'" % (value,)))
        return
    if nonempty and not value:
        errors.append((path, "[] should be non-empty"))
    for i, item in enumerate(value):
        item_errors("%s[%d]" % (path, i), item, errors)


def _integer_errors(path: str, x, errors: list, minimum: int | None = None) -> None:
    # JSON Schema counts 2.0 as an integer and a boolean as no number
    if not (type(x) is int or type(x) is float and x.is_integer()):
        errors.append((path, "%r is not of type 'integer'" % (x,)))
    elif minimum is not None and x < minimum:
        errors.append((path, "%r is less than the minimum of %d" % (x, minimum)))


def _vector_errors(path: str, row, errors: list) -> None:
    _array_errors(path, row, _integer_errors, errors, nonempty=True)


def _string_errors(path: str, x, errors: list) -> None:
    if not isinstance(x, str):
        errors.append((path, "%r is not of type 'string'" % (x,)))


def _job_errors(data) -> list[tuple[str, str]]:
    """(JSON path, message) for every rule of ``schema.json`` the job breaks.

    Paths are written as the JSON Schema validators write them, so the
    smallest path is the error a validator of the shipped schema would
    report first.
    """
    if not isinstance(data, dict):
        return [("$", "%r is not of type 'object'" % (data,))]
    errors: list[tuple[str, str]] = []
    _unexpected("$", [k for k in data if k not in _FIELDS], errors)
    command = data.get("command")
    if "command" not in data:
        errors.append(("$", "'command' is a required property"))
    elif command not in COMMANDS:
        errors.append(("$.command", "%r is not one of %r" % (command, list(COMMANDS))))
    elif _PAYLOAD_KEYS[command] == ("rays", "generators"):
        if ("rays" in data) == ("generators" in data):
            errors.append(("$", "exactly one of 'rays' and 'generators' is required"))
    else:
        errors.extend(("$", "%r is a required property" % k)
                      for k in _PAYLOAD_KEYS[command] if k not in data)
    for key in ("rays", "generators", "grading"):
        if key in data:
            _array_errors("$." + key, data[key], _vector_errors, errors, nonempty=True)
    if "vars" in data:
        _integer_errors("$.vars", data["vars"], errors, minimum=1)
    for key in ("ideal", "prime"):
        if key in data:
            _array_errors("$." + key, data[key], _string_errors, errors, nonempty=False)
    if "options" in data:
        options = data["options"]
        if not isinstance(options, dict):
            errors.append(("$.options", "%r is not of type 'object'" % (options,)))
        else:
            _unexpected("$.options", [k for k in options if k not in _OPTIONS], errors)
            if "budget" in options:
                _integer_errors("$.options.budget", options["budget"], errors, minimum=1)
    return errors


def _check_vectors(name: str, rows) -> list[list[int]]:
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError("%s[%d]: expected %d entries, got %d" % (name, i, width, len(row)))
    # the schema took integral floats such as 2.0; the job runs, and echoes, their ints
    return [list(map(int, row)) for row in rows]


def parse_input(text: str, cli_command: str | None = None, budget: int | None = None) -> JobSpec:
    """Check a JSON job against the rules of the shipped schema and resolve options.

    Option precedence: ``budget`` (the --budget flag), then the job's
    "options" object, then the default budget=500000 (``DEFAULT_BUDGET``).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError("input is not valid JSON: %s" % e) from None
    errors = _job_errors(data)
    if errors:
        raise InputError("%s: %s" % min(errors, key=lambda e: e[0]))
    command = data["command"]
    if cli_command is not None and cli_command != command:
        raise InputError(
            "$.command: job says %r but the command line says %r" % (command, cli_command)
        )
    payload = {k: v for k, v in data.items() if k not in ("command", "options")}
    extra = set(payload) - set(_PAYLOAD_KEYS[command])
    if extra:
        raise InputError("$.%s: not a field of the %r command" % (sorted(extra)[0], command))
    for key in ("rays", "generators", "grading"):
        if key in payload:
            payload[key] = _check_vectors(key, payload[key])
    polys = []
    if "vars" in payload:
        n = payload["vars"] = int(payload["vars"])
        if len(payload["grading"]) != n:
            raise InputError("grading: expected one degree vector per variable (%d)" % n)
        names = default_variables(n)
        polys_key = "ideal" if "ideal" in payload else "prime"
        for i, s in enumerate(payload[polys_key]):
            try:
                polys.append(parse_polynomial(s, names))
            except ValueError as e:
                raise InputError("%s[%d]: %s" % (polys_key, i, e)) from None
    options = {"budget": DEFAULT_BUDGET, **data.get("options", {})}
    options["budget"] = int(options["budget"]) if budget is None else budget
    if options["budget"] < 1:
        # the schema already holds the job's own options.budget to >= 1,
        # so only the flag can be below it
        raise InputError("--budget: must be positive")
    return JobSpec(command, payload, options, tuple(polys))


def _monoid_of(payload: dict):
    if "rays" in payload:
        return monoid_from_cone_rays(payload["rays"])
    return normalize_presentation(payload["generators"])


def _graded_setup(job: JobSpec):
    n = job.payload["vars"]
    spec = GradedRingSpec(job.payload["grading"])
    return spec, default_variables(n), IdealPresentation(job.polynomials, grevlex(n))


def execute(job: JobSpec) -> dict:
    """Run the job and assemble the full report object."""
    payload, options = job.payload, job.options
    if job.command == "normalize":
        m = normalize_presentation(payload["generators"])
        result = {
            "rank": m.rank,
            "lattice_basis": m.lattice_basis,
            "normalized_generators": m.local_generators,
            "is_normal": m.is_normal,
            "witness": m.normality_witness,
        }
    elif job.command == "hilbert-basis":
        m = _monoid_of(payload)
        result = {
            "hilbert_basis": m.hilbert_basis(),
            "unit_basis": m.unit_basis(),
        }
    elif job.command == "canonical":
        m = _monoid_of(payload)
        can = canonical_module(m)
        result = {
            "h": can.ideal.heights,
            "generators": can.generators,
            "gorenstein": len(can.generators) == 1,
        }
    elif job.command == "class-group":
        m = _monoid_of(payload)
        result = {"invariant_factors": class_group(m).invariant_factors}
    elif job.command == "gorenstein":
        m = _monoid_of(payload)
        gor, cert = is_gorenstein(m)
        result = {"gorenstein": gor, "certificate": cert}
    elif job.command == "graded-hull":
        spec, names, ideal = _graded_setup(job)
        hull = graded_hull(ideal, spec, budget=options["budget"])
        result = {"hull": [format_polynomial(g, names, ideal.order) for g in hull.generators]}
    elif job.command == "analyze-prime":
        spec, names, ideal = _graded_setup(job)
        res = analyze_prime(ideal, spec, budget=options["budget"])
        result = {
            "p_star": [format_polynomial(g, names, ideal.order) for g in res.p_star.generators],
            "graded": res.graded,
            "dim_p": res.dim_p,
            "dim_p_star": res.dim_p_star,
            "tau": res.tau,
            "sigma": res.sigma,
        }
    else:
        raise InputError("$.command: unknown command %r" % job.command)
    return {
        "command": job.command,
        "input": payload,
        "options": options,
        "result": result,
        "version": __version__,
    }


def _fail(message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": message, "exit": code}) + "\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monograde",
        description="Monoid ring and multigraded ideal computations on JSON jobs.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="job file (default: read stdin)")
    parser.add_argument("--budget", type=int,
                        help="budget of reduction steps and dimension-search branches")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.input is None:
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            return _fail("cannot read %s: %s" % (args.input, e.strerror), EXIT_INPUT)
    try:
        job = parse_input(text, args.command, args.budget)
    except InputError as e:
        return _fail(str(e), EXIT_INPUT)
    try:
        report = execute(job)
    except BudgetExceededError as e:  # enumeration limits included
        return _fail(str(e), EXIT_BUDGET)
    except ValueError as e:
        return _fail(str(e), EXIT_MATH)
    sys.stdout.write(json.dumps(report, separators=(",", ":")) + "\n")
    return EXIT_OK


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
