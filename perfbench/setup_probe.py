"""Time one cold set-up of a workload and print its CPU seconds.

Set-up is: importing the package, loading or generating the dataset, and
one warm-up op.  Interpreter start-up is not included.  Started as a child
process by ``run.py``, several times per run, so that every sample imports
the package from scratch:

    python3 perfbench/setup_probe.py --workload sweep-m10 --seed 0
"""

import time

T0 = time.process_time()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import workloads

    wl = workloads.make_workload(args.workload)
    wl.warm_up(wl.setup(args.seed))
    print(repr(time.process_time() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
