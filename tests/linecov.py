"""Executable lines of the package that the test suite never runs.

    python3 tests/linecov.py [PYTEST ARGS...]

Runs the test suite (``tests/``, or the pytest arguments given) in this
process under ``sys.settrace`` and ``threading.settrace``, tracing only
frames whose code lies in this checkout's ``src/monograde``, and prints
each executable line that no traced frame reached, as
``module.py:line: source``, then a count per module.  A line is
executable when some code object of its module's compiled source maps
an instruction to it (``co_lines``); a function's ``def`` line counts as
reached when the function is called.  Tests that run the package in a
subprocess (the demos, the console script, a fresh interpreter) are not
traced, so what only they reach is listed as unreached.  Under the trace
the suite runs several times slower, so a test with a wall-clock bound
may fail here; its lines are still recorded.  pytest does not collect
this file.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "monograde")


def executable_lines(text: str, path: str) -> set[int]:
    """The lines some instruction of the module compiled from ``text``
    maps to."""
    stack = [compile(text, path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit code, reached lines per package file) of one run."""
    import pytest

    reached: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its hits, or None

    def hits_of(filename):
        if filename not in files:
            path = os.path.realpath(filename)
            inside = os.path.dirname(path) == PACKAGE
            files[filename] = reached.setdefault(path, set()) if inside else None
        return files[filename]

    def tracer(frame, event, arg):
        hits = hits_of(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def line(frame, event, arg):
            hits.add(frame.f_lineno)
            return line

        return line

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, reached


def main(argv: list[str]) -> int:
    # the sources are read before the run, so an edit during it cannot
    # shift the lines reported
    modules = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            modules.append((name, path, executable_lines(text, path), text.splitlines()))
    code, reached = run_traced(argv or [os.path.join(ROOT, "tests")])
    counts = []
    for name, path, lines, source in modules:
        missed = sorted(lines - reached.get(path, set()))
        for line in missed:
            print("%s:%d: %s" % (name, line, source[line - 1].strip()))
        counts.append((name, len(missed)))
    print()
    for name, count in counts:
        print("%-18s %4d unreached" % (name, count))
    total = sum(count for _, count in counts)
    print("%-18s %4d unreached (pytest exit code %d)" % ("total", total, code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
