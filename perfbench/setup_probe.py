"""Set-up time in a fresh interpreter: ``import ghckit`` plus a cold
``rootsys.build`` of every type named on the command line; prints seconds
at reference speed (see speed.py).

    PYTHONPATH=src python3 perfbench/setup_probe.py A3 A4 A5

The import and each build are timed apart, with a reference sample after
each, so a change of CPU speed during a long probe is followed closely.
The reference code is loaded only after the import has been timed.
"""

import os
import sys
import time

t0 = time.perf_counter()
import ghckit  # noqa: E402,F401
from ghckit import rootsys  # noqa: E402

walls = [time.perf_counter() - t0]

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402

refs = [speed.reference()]
for name in sys.argv[1:]:
    t0 = time.perf_counter()
    rootsys.build(name[0], int(name[1:]))
    walls.append(time.perf_counter() - t0)
    refs.append(speed.reference())
# the import is scaled by the sample after it, each build by the two around it
scales = [refs[0]] + [(a + b) / 2 for a, b in zip(refs, refs[1:])]
print(repr(sum(w * speed.REF_NOMINAL_S / r for w, r in zip(walls, scales))))
