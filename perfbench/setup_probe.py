"""Child process that run.py times for ``setup_s``: it imports cocor, sets one
workload up exactly as a repetition does, and prints the ``time.monotonic()``
value at which the first op would start. run.py takes the spawn time away.

    python3 perfbench/setup_probe.py ablation 3
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import workloads
    print(repr(workloads.first_op_time(workload, seed)))


if __name__ == "__main__":
    main()
