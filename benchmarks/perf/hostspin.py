"""The host-calibration loop, in a module of its own so that
``worker.py`` can time ``import repro`` without importing anything else
first.
"""

from __future__ import annotations

import time

#: Iterations of the host-calibration loop (``host.spin_s``), and what the
#: loop takes on the reference host (this repo's bench guest, ``fc-v42``,
#: in a quiet phase).  Timings are reported in seconds *of that host*:
#: wall time x SPIN_REFERENCE_S / the run's median spin time.
SPIN_ITERATIONS = 1_000_000
SPIN_REFERENCE_S = 0.030


def host_spin() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    This guest runs the same code up to 1.8x slower for seconds to minutes
    at a time (a busy sibling thread: CPU time grows with wall time, no
    steal), and the loop slows with it, so dividing a run's timings by its
    median spin time takes most of that out (README.md, "Run length").
    """
    began = time.perf_counter()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i & 7
    return time.perf_counter() - began
