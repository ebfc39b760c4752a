"""Time one set-up in a fresh process: import catbound, then generate and
write a workload's inputs.  Prints the seconds taken.

    python3 bench/setup_child.py WORKLOAD SEED DIR
"""

from time import perf_counter

_start = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports catbound)

workloads.generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(perf_counter() - _start)
