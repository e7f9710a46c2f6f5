"""One benchmark set-up in a fresh interpreter: import ffgeom and write a
workload's inputs.  Prints {"setup_s": seconds} as its last line.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports ffgeom)

workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]), Path(sys.argv[3]))
print(json.dumps({"setup_s": time.perf_counter() - t0}))
