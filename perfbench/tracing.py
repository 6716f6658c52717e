"""Spans around the public functions of each sisqo module, installed
from outside the package for one traced pass and removed afterwards.

Each wrapper is installed where the callers look the name up: module
globals for functions called by name (``sisqo.engine.compute_normal_step``
is what ``sqp_iterate`` calls), class attributes for methods.  A span
records its inclusive duration, its self time (inclusive minus the time
covered by child spans) and the name of its parent span.
"""

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import sisqo.engine
import sisqo.harness
import sisqo.kernels
from sisqo.krylov import MinresState
from sisqo.problems import GradientOracle
from sisqo.sparse import KktOperator, SparseMatrix

# (owner, attribute, span name).  ``least_squares_multipliers`` is
# looked up in two modules, so both lookups feed one span name.
TARGETS = (
    (sisqo.kernels, "csr_matvec", "kernels.matvec"),
    (sisqo.kernels, "csr_rmatvec", "kernels.rmatvec"),
    (SparseMatrix, "from_triplets", "sparse.from_triplets"),
    (KktOperator, "__init__", "sparse.kkt_init"),
    (KktOperator, "apply", "sparse.kkt_apply"),
    (MinresState, "step", "krylov.minres_step"),
    (sisqo.engine, "cg_normal_solve", "krylov.cg"),
    (sisqo.engine, "least_squares_multipliers", "krylov.ls_multipliers"),
    (sisqo.harness, "least_squares_multipliers", "krylov.ls_multipliers"),
    (GradientOracle, "sample", "problems.oracle"),
    (sisqo.engine, "estimate_lipschitz", "problems.lipschitz"),
    (sisqo.engine, "ladder_matrix", "problems.ladder"),
    (sisqo.engine, "compute_normal_step", "engine.normal_step"),
    (sisqo.engine, "merit_value", "engine.merit"),
    (sisqo.engine, "select_step_size", "engine.step_size"),
    (sisqo.harness, "sqp_iterate", "engine.sqp_iterate"),
    (sisqo.harness, "true_kkt_errors", "harness.kkt_metric"),
)

KERNEL_SPANS = ("kernels.matvec", "kernels.rmatvec")


class SpanStats:
    """Inclusive and self durations (seconds) of every call of one span."""

    def __init__(self):
        self.inclusive = array("d")
        self.self_time = array("d")

    @property
    def calls(self):
        return len(self.inclusive)

    def total(self, self_only=False):
        return float(sum(self.self_time if self_only else self.inclusive))

    def median(self, self_only=False):
        values = self.self_time if self_only else self.inclusive
        return float(np.median(values)) if len(values) else 0.0


class Tracer:
    """Collects spans while installed; ``with Tracer() as t:`` wraps
    every target on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = {}
        self.parents = Counter()
        self.rungs = []
        self.kernel_bytes = 0
        self.kernel_flops = 0
        self.cg_iters = 0
        self._stack = []
        self._saved = []

    def stats(self, name):
        return self.spans.get(name) or SpanStats()

    def child_calls(self, name, parent):
        return self.parents[(name, parent)]

    def _wrap(self, name, fn):
        spans = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        parents = self.parents
        observe = self._observe_kernel if name in KERNEL_SPANS else None
        returns = {"engine.sqp_iterate": self._observe_step,
                   "krylov.cg": self._observe_cg}.get(name)

        def traced(*args, **kwargs):
            parents[(name, stack[-1][0] if stack else None)] += 1
            if observe is not None:
                observe(*args)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                spans.inclusive.append(duration)
                spans.self_time.append(duration - frame[1])
            if returns is not None:
                returns(result)
            return result

        return traced

    def _observe_kernel(self, indptr, indices, data, x, out):
        # computed from the operands, not measured: every array is
        # counted as read (or written) once from memory
        nnz = len(data)
        self.kernel_flops += 2 * nnz
        self.kernel_bytes += 8 * (2 * nnz + len(indptr) + len(x) + len(out))

    def _observe_cg(self, result):
        self.cg_iters += result.iterations

    def _observe_step(self, result):
        _, step = result
        self.rungs.append([r["minres_iters"] for r in step.info["rungs"]])

    def __enter__(self):
        for owner, attr, name in TARGETS:
            raw = owner.__dict__.get(attr)
            if raw is None:
                print(f"tracing: {owner.__name__}.{attr} not found; span"
                      f" {name} is not recorded", file=sys.stderr)
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw))
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        return False


def layer_metrics(tracer, solve_s, outer_iters):
    """Per-layer metrics of one traced pass that took ``solve_s`` seconds
    over ``outer_iters`` outer iterations.  Returns {name: (value, unit)}.

    ``*_us`` is a median per call, ``*_ms`` a total over the pass unless
    the name says otherwise, shares are over ``solve_s``.
    """
    s = tracer.stats
    matvec, rmatvec = s("kernels.matvec"), s("kernels.rmatvec")
    kkt_apply, kkt_init = s("sparse.kkt_apply"), s("sparse.kkt_init")
    triplets, step = s("sparse.from_triplets"), s("krylov.minres_step")
    cg, ls = s("krylov.cg"), s("krylov.ls_multipliers")
    iterate, metric = s("engine.sqp_iterate"), s("harness.kkt_metric")
    kernel_calls = matvec.calls + rmatvec.calls
    applies = max(kkt_apply.calls, 1)
    steps = sum(sum(r) for r in tracer.rungs)
    wasted = sum(sum(r[:-1]) for r in tracer.rungs)
    iters = max(len(tracer.rungs), 1)
    iter_ms = np.array(iterate.inclusive) * 1e3
    return {
        "kernels.matvec_calls": (matvec.calls, "count"),
        "kernels.rmatvec_calls": (rmatvec.calls, "count"),
        "kernels.matvec_us": (matvec.median(True) * 1e6, "us"),
        "kernels.rmatvec_us": (rmatvec.median(True) * 1e6, "us"),
        "kernels.busy_share": ((matvec.total(True) + rmatvec.total(True))
                               / solve_s, "ratio"),
        "kernels.bytes_per_call_computed": (
            tracer.kernel_bytes / max(kernel_calls, 1), "B"),
        "kernels.flops_per_call_computed": (
            tracer.kernel_flops / max(kernel_calls, 1), "flop"),
        "sparse.kkt_applies": (kkt_apply.calls, "count"),
        "sparse.kkt_apply_us": (kkt_apply.median(True) * 1e6, "us"),
        "sparse.matvec_per_apply": (
            tracer.child_calls("kernels.matvec", "sparse.kkt_apply")
            / applies, "count"),
        "sparse.rmatvec_per_apply": (
            tracer.child_calls("kernels.rmatvec", "sparse.kkt_apply")
            / applies, "count"),
        "sparse.kkt_inits": (kkt_init.calls, "count"),
        "sparse.kkt_init_us": (kkt_init.median() * 1e6, "us"),
        "sparse.from_triplets_calls": (triplets.calls, "count"),
        "sparse.from_triplets_ms": (triplets.total() * 1e3, "ms"),
        "krylov.minres_steps": (step.calls, "count"),
        "krylov.minres_step_us": (step.median() * 1e6, "us"),
        "krylov.applies_per_step": (
            tracer.child_calls("sparse.kkt_apply", "krylov.minres_step")
            / max(step.calls, 1), "count"),
        "krylov.cg_iters": (tracer.cg_iters, "count"),
        "krylov.cg_ms": (cg.total() * 1e3, "ms"),
        "krylov.ls_multiplier_calls": (ls.calls, "count"),
        "krylov.ls_multiplier_ms": (ls.total() * 1e3, "ms"),
        "problems.oracle_us": (s("problems.oracle").median() * 1e6, "us"),
        "problems.lipschitz_calls": (s("problems.lipschitz").calls, "count"),
        "problems.lipschitz_us": (s("problems.lipschitz").median() * 1e6,
                                  "us"),
        "problems.ladder_calls": (s("problems.ladder").calls, "count"),
        "problems.ladder_us": (s("problems.ladder").median() * 1e6, "us"),
        "problems.rungs_per_iter": (
            sum(len(r) for r in tracer.rungs) / iters, "count"),
        "engine.outer_iters": (outer_iters, "count"),
        "engine.iter_ms_p50": (
            float(np.percentile(iter_ms, 50)) if iter_ms.size else 0.0, "ms"),
        "engine.iter_ms_p95": (
            float(np.percentile(iter_ms, 95)) if iter_ms.size else 0.0, "ms"),
        "engine.self_share": (iterate.total(True) / solve_s, "ratio"),
        "engine.minres_steps_per_iter": (steps / iters, "count"),
        "engine.wasted_step_share": (wasted / max(steps, 1), "ratio"),
        "engine.normal_step_us": (s("engine.normal_step").median() * 1e6,
                                  "us"),
        "engine.merit_us": (s("engine.merit").median() * 1e6, "us"),
        "harness.kkt_metric_calls": (metric.calls, "count"),
        "harness.kkt_metric_share": (metric.total() / solve_s, "ratio"),
        "harness.solver_s": (solve_s - metric.total(), "s"),
    }
