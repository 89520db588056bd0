"""One isolated benchmark iteration; ``run.py`` starts it in a fresh process.

    python3 perfbench/iteration.py --workload ld-lazy --seed 2024 --mode plain

needs ``src`` on ``PYTHONPATH`` and prints one JSON record as its last
line of output.
"""

import time

# Set-up time is measured from here: it covers the program's imports.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS, run_iteration  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "serial", "traced"))
    parser.add_argument("--digest", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    try:
        record = run_iteration(WORKLOADS[args.workload], args.seed,
                               args.mode, T0, bool(args.digest))
    except Exception as exc:  # reported as a failed iteration
        traceback.print_exc()
        record = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(record), flush=True)
    if WORKLOADS[args.workload].kind == "session":
        # Skip freeing the session's heap (up to 1.2 GB of small
        # objects); a fleet iteration exits normally so the program's
        # exit hooks can release any shared memory it left.
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
