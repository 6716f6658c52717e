"""The benchmark's tracer finds every function it wraps, and its
isolated timings run against the package as it stands."""

import importlib.util
import math
from pathlib import Path

from sisqo.library import ControlProblemSpec, build_poisson_control

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    # the benchmark scripts live outside the package; load them by path
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    # a rename in the package would otherwise only print "not found" in
    # a benchmark log and drop the span from the trace
    tracing = _load("tracing")
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracing.TARGETS
               if owner.__dict__.get(attr) is None]
    assert missing == []


def test_isolated_metrics_run_on_a_small_problem():
    # the isolated timings drive MinresState directly; a change to its
    # interface should fail here, not in a benchmark run
    isolated = _load("isolated")
    problem = build_poisson_control(ControlProblemSpec(mesh_size=3))
    metrics = isolated.isolated_metrics(problem, seed=0, repeats=2, solves=1)
    assert sorted(metrics) == ["kernels.iso_matvec_us",
                               "kernels.iso_rmatvec_us",
                               "krylov.iso_minres_solve_ms",
                               "krylov.iso_minres_step_us"]
    for value, unit in metrics.values():
        assert math.isfinite(value) and value > 0.0 and unit in ("us", "ms")
