"""Set-up probe: a fresh interpreter imports monograde and runs one job.

Reads the job as JSON on stdin and prints ``ok`` once the job is done;
``run.py`` times this from process start to that line.
"""

import json
import sys

job = json.loads(sys.stdin.read())

import jobs  # noqa: E402  (imports monograde, numpy and jsonschema)

jobs.run(job)
print("ok", flush=True)
