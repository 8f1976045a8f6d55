"""Set-up probe, started by run.py in a fresh process:

    python3 perfbench/probe.py <workload> <scratch dir>

Prints the wall seconds taken by ``import hetcache`` (with numpy and scipy)
plus one cold call into each layer the workload uses, and the same time at
the reference speed of speed.py.
"""

import importlib
import sys

from speed import SpeedMeter


def setup(workload: str, workdir: str) -> None:
    # imports hetcache inside the timed region
    importlib.import_module("workloads").cold(workload, workdir)


with SpeedMeter() as meter:
    _, wall, ref = meter.measure(setup, sys.argv[1], sys.argv[2])
print(wall, ref)
