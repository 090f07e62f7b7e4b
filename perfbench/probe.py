"""Set-up probe: runs ``import ginv`` plus making one workload's inputs, in
a fresh interpreter, and prints the ``perf_counter`` readings (CLOCK_MONOTONIC,
shared with the parent) before and after.

    python3 perfbench/probe.py <workload> <seed>

``run.py`` starts it several times per run, turns each interval into
reference seconds with its own speed samples, and reports the median as
``setup_s``.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (the clock must start before the library loads)

workloads.SETUP[sys.argv[1]](int(sys.argv[2]))
print(repr(start), repr(time.perf_counter()))
