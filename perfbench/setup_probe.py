"""Set-up time of one fresh interpreter: import sisqo, load a profile,
build the problem.

Run by the benchmark in a child process, once per set-up sample:

    python3 perfbench/setup_probe.py <profile> [section.key=value ...]

Prints one JSON object with the elapsed seconds, measured from before
the first ``sisqo`` import (which also imports numpy and selects the
kernel backend) to after ``build_problem`` returns, and the time of the
reference loop run right after it.
"""

import json
import os
import sys
import time


def main(argv):
    start = time.perf_counter()
    from sisqo.config import apply_overrides, build_problem, load_config

    build_problem(apply_overrides(load_config(argv[0]), argv[1:]))
    seconds = time.perf_counter() - start
    from reference import reference_time

    reference = reference_time(min_seconds=0.05)
    print(json.dumps({"seconds": seconds, "reference": reference}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    raise SystemExit(main(sys.argv[1:]))
