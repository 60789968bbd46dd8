"""Time one fresh interpreter's set-up: ``import fractal_strings`` plus the
workload's ``inputs.build``.  Prints the seconds on the last line.

run.py starts this several times per run and reports the median, because a
single import varies by a third between interpreters.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402  (standard library only; imports no numpy)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    t0 = time.perf_counter()
    import fractal_strings  # noqa: F401
    inputs.build(args.workload, args.seed)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
