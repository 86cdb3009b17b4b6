"""Fresh-process set-up cost: import tsglab and fill the workload's caches.

    python3 perfbench/setup_probe.py <workload>

run.py times this process from outside, so interpreter start counts too.
It then times the calibration kernel KERNELS times (warm, so free of the
first-call costs a kernel run right after start-up would carry) and prints
the times, for run.py to take out of the wall time and to scale by.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from calibration import kernel_seconds  # noqa: E402  (imports numpy, as tsglab does)

KERNELS = 3

if __name__ == "__main__":
    from session import WORKLOADS, warm_caches

    warm_caches(WORKLOADS[sys.argv[1]])
    print(*(kernel_seconds() for _ in range(KERNELS)))
