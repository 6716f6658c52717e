r"""Layered benchmark of sisqo: time to solution on three workloads, with
per-module metrics from a separate traced pass.

Run from the repository root:

    python3 perfbench/run.py --workload poisson16 --seed 0 --seconds 35 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; ``bench.py`` documents both.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The package is imported from ``src/`` of the
checkout; without it the benchmark exits with status 2.
"""

import os
import sys

# one BLAS thread: the benchmark measures the single-process library,
# and set-up children inherit the setting
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "sisqo", "__init__.py")):
        print(f"perfbench: no sisqo package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import bench

    raise SystemExit(bench.main(sys.argv[1:], root=ROOT, src=SRC,
                                thread_vars=THREAD_VARS))
