"""Time one workload's set-up in a fresh process.

Set-up is ``import singlab`` plus parsing and unfolding the germs, or
building the semigroups, that the workload's ops start from: the work every
CLI command does before it computes anything.  Prints the seconds as read
and at reference speed (see ``speed.py``).

    python3 bench/setup_child.py <repo root> <workload>
"""

import statistics
import sys
import time
from pathlib import Path


def setup_seconds(root: Path, workload: str) -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import workloads  # imports singlab

    workloads.WORKLOADS[workload].setup(root)
    return time.perf_counter() - start


if __name__ == "__main__":
    seconds = setup_seconds(Path(sys.argv[1]), sys.argv[2])
    import speed  # after the timing: it imports fractions, as singlab does

    kernel = statistics.median(speed.kernel_seconds() for _ in range(3))
    print(seconds, seconds * speed.REFERENCE_S / kernel)
