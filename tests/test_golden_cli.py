"""Golden CLI reports: replay pinned jobs and compare stdout byte for byte.

``golden_cli.json`` holds one case per line: the command line, the job
text on stdin, the exit code and the exact stdout.  The cases were
recorded before the elimination kernel replaced the Hermite-form rank,
the Fraction solver and the separate Bareiss determinant, so they pin
that every report stayed byte-identical.  Since then they were edited
twice, each time when options that did nothing left the reports:
``"box":4,"trunc":8,`` and later ``,"output":"json"`` were deleted
from each stdout, and nothing else changed.  They cover all seven commands,
rank 5 and 6 cones, a non-pointed cone, a lower-dimensional cone and
non-normal presentations.  The last five, of unit rank 2, were recorded
once every answer modulo units was reduced by the Hermite basis of the
unit lattice, and pin that representative: a Hilbert basis, canonical
generators, a Gorenstein certificate, a class group and a non-normal
presentation's witness.
"""

import io
import json
import os

import pytest

from monograde.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "golden_cli.json"), encoding="utf-8") as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=["%02d-%s" % (i, c["argv"][0]) for i, c in enumerate(CASES)])
def test_golden_report_is_byte_identical(monkeypatch, capsys, case):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == case["stdout"]
