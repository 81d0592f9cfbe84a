"""Run ``ghckit.cli.main`` with span tracing installed (traced cli workload).

    PERFBENCH_SPANS=out.json PERFBENCH_T0=<time.monotonic() at spawn> \
        python3 perfbench/launcher.py request < doc.json

Behaves like ``python3 -m ghckit``: same arguments, streams and exit code,
and an exception still ends the process with a traceback.  On the way out it
writes its spans and its start-up time (spawn to ``main``) to PERFBENCH_SPANS.
"""

import json
import os
import sys
import time

import tracing

tracer = tracing.Tracer()
tracer.install()
from ghckit import cli  # noqa: E402  (after the wrappers are in place)

started = time.monotonic()
try:
    code = cli.main(sys.argv[1:])
finally:
    with open(os.environ["PERFBENCH_SPANS"], "w") as f:
        json.dump({"startup_s": started - float(os.environ["PERFBENCH_T0"]), "spans": tracer.spans}, f)
raise SystemExit(code)
