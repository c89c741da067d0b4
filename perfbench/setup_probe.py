"""Time one workload's set-up in a fresh process and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

The window runs from before ``import superkdv`` (and ``superkdv.cli``) to
after the grid, the initial condition, the state and the first
``get_algebra`` table exist: what a CLI user pays on every run.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports superkdv; part of the timed window)

workloads.WORKLOADS[sys.argv[1]]().setup(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
