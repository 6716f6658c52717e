"""The benchmark's tracer finds every function it wraps."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_exists():
    # a rename in the package would otherwise only print "not found" in
    # a benchmark log and drop the span from the trace
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracing.TARGETS
               if owner.__dict__.get(attr) is None]
    assert missing == []
