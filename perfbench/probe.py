"""Set-up probe: one workload's set-up in a fresh interpreter.

Prints the seconds taken by imports plus the model and optimizer build or
the checkpoint load. `run.py` starts several probes and reports their
median as `setup_s`.

    python3 perfbench/probe.py <workload> <size> <seed> <checkpoint|->
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main(argv):
    workload, size, seed, checkpoint = argv
    workloads.setup(workload, workloads.SIZES[size], int(seed),
                    None if checkpoint == "-" else checkpoint)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1:])
