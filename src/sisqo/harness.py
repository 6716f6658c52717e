"""Experiment harness: single runs, budget-matched comparisons,
aggregation, and results emission.

A run drives ``sqp_iterate`` under the outer stopping rule that checks,
at each iterate before stepping, the true-gradient KKT errors:
infinity-norm feasibility below ``feasibility_tol`` and least-squares
stationarity below ``stationarity_tol``, from the state's c, J and true
gradient.  Every other ending is an ``EngineError`` raised by the
engine; ``run_single`` records its ``status``, ``info["reason"]`` and
``info["diagnostics"]`` in one handler, so one bad seed never ends a
sweep.  ``FAILED_STATUSES`` lists the endings that leave no usable
result.

Budget-matched comparisons rerun the same problem and seed with a
near-exact subproblem tolerance, capped at the total MINRES iterations
the truncated run consumed, and report the best iterate the exact
variant visited, ranked as it is visited.  The cap is enforced at
outer-iteration boundaries, so the final iteration may overshoot; the
overshoot is reported alongside the budget.  The two runs of a pair
solve at once, in two threads.  While the truncated run goes on, its
running total is a lower bound on the budget; where the near-exact run's
total reaches that bound, the budget check is open, and the near-exact
run takes its next step anyway.  It keeps the step if the budget comes
back not spent and drops it if it comes back spent, so it may take one
step that no record shows: that step's ``Problem`` calls and its log
lines (a CG or invariant warning) happen all the same.  The compiled
kernels release the GIL, so the two solves share the cores; the records
are those of the two runs made in turn.
"""

import csv
import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field, make_dataclass
from typing import Optional

import numpy as np

from .engine import (EngineError, InvalidValue, InvariantBreach,
                     IterationFailure, NonFiniteValue, init_state,
                     lipschitz_constants, sqp_iterate)
# least_squares_multipliers is not called here; the name stays bound
# because perfbench/tracing.py wraps it in this module
from .krylov import least_squares_multipliers  # noqa: F401
from .krylov import least_squares_residual
from .problems import GradientOracle, substream

__all__ = ["IterationRow", "RunRecord", "ComparisonRecord", "run_single",
           "run_budget_matched_pair", "rank_iterate", "aggregate",
           "emit_results", "load_results", "true_kkt_errors",
           "resolve_output_path", "CSV_COLUMNS", "FAILED_STATUSES"]

logger = logging.getLogger(__name__)

# the results CSV: (column, RunRecord attribute, type), in column order
_CSV_SCHEMA = (("problem", "problem", str), ("strategy", "strategy", str),
               ("eps_n", "eps_n", float), ("kappa", "kappa", float),
               ("seed", "seed", int),
               ("feas_err", "feasibility_error", float),
               ("stat_err", "stationarity_error", float),
               ("minres_iters", "total_minres_iters", int),
               ("outer_iters", "outer_iters", int), ("status", "status", str))
CSV_COLUMNS = tuple(column for column, _, _ in _CSV_SCHEMA)

OUTPUT_DIR_ENV = "SISQO_OUTPUT_DIR"

# endings with no usable result: kept out of the error statistics, they
# abort a budget-matched pair and make the command line exit 1
FAILED_STATUSES = frozenset(
    e.status for e in (IterationFailure, InvariantBreach, NonFiniteValue,
                       InvalidValue))


@dataclass
class IterationRow:
    """Per-iteration trace: KKT errors at the iterate the step left
    from, then the step's own quantities."""

    k: int
    feas_err: float
    stat_err: float
    tau: float
    xi: float
    beta: float
    alpha: float
    accepted_test: int
    hessian_rung: int
    delta_l: float
    minres_iters: int
    cg_iters: int


@dataclass
class RunRecord:
    problem: str
    strategy: str
    eps_n: float
    kappa: float
    seed: int
    status: str
    outer_iters: int
    total_minres_iters: int
    feasibility_error: float
    stationarity_error: float
    x_final: np.ndarray
    y_ls_final: np.ndarray
    rows: list
    wall_time: float
    config_digest: str
    info: dict = field(default_factory=dict)


@dataclass
class ComparisonRecord:
    """Paired truncated / near-exact runs under one MINRES budget."""

    inexact: RunRecord
    exact: Optional[RunRecord]
    budget: int
    overshoot: int
    info: dict = field(default_factory=dict)

    @property
    def aborted(self):
        return self.exact is None

    def runs(self):
        return [self.inexact] if self.exact is None \
            else [self.inexact, self.exact]


def _config_digest(cfg, seed, oracle_kind, eps_n):
    """The digest of a run's settings: ``cfg`` with the run's own seed,
    which is ``cfg.seed`` on the command line but need not be in a
    library call, the oracle and the noise level."""
    settings = dict(asdict(cfg), seed=seed)
    payload = repr(sorted(settings.items())) + f"|{oracle_kind}|{eps_n!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def true_kkt_errors(c, j, grad):
    """Infinity-norm feasibility and true-gradient stationarity with
    least-squares multipliers, from c = c(x), j = J(x) and the true
    gradient ``grad`` at x; returns (feas, stat, y_ls)."""
    feas = float(np.max(np.abs(c), initial=0.0))
    y_ls, residual = least_squares_residual(j, grad)
    stat = float(np.max(np.abs(residual), initial=0.0))
    return feas, stat, y_ls


def rank_iterate(k, feas, stat, feasibility_tol):
    """Sort key that judges an iterate of a budget-capped run: iterates
    within the feasibility tolerance first, by stationarity error, then
    the rest by feasibility error; earlier iterates win ties."""
    feasible = feas <= feasibility_tol
    return (not feasible, stat if feasible else feas, k)


def run_single(problem, cfg, seed, *, oracle_kind="gaussian", eps_n=0.0,
               strategy="sisqo", budget=None):
    """One run of the method on a problem with a fixed seed.

    Without a ``budget`` the run stops when the KKT errors meet the
    tolerances.  With one it runs until the MINRES budget is spent
    (checked before each outer iteration) or the iteration cap hits,
    and reports the best iterate it visited by ``rank_iterate``, with
    ``info["selected_iterate"]``.  Metrics are recorded at each iterate
    before stepping, so a converged start yields a record with zero
    iterations.
    """
    spent = None
    if budget is not None:
        spent = _SharedBudget()
        spent.end(budget)
    return _run(problem, cfg, seed, oracle_kind, eps_n, strategy, spent)


def _run(problem, cfg, seed, oracle_kind, eps_n, strategy, spent,
         progress=None):
    """The run of ``run_single``.  ``spent`` is None for a run to the
    stopping rule; otherwise the ``_SharedBudget`` that says, before each
    outer iteration, whether the running MINRES total spends the budget.
    Where that is still open, the run takes the iteration while it waits
    for the verdict, and drops it (its state, row, MINRES steps,
    violations or exception) if the budget was spent.
    ``progress(total)`` is called with the running total after each
    outer iteration.  Lipschitz constants that do not fit ``cfg`` are a
    ConfigError before any ``Problem`` call."""
    start = time.perf_counter()
    lipschitz_constants(problem, cfg)
    oracle = GradientOracle(oracle_kind, rng=substream(seed, "oracle"),
                            eps_n=eps_n)
    rows = []
    best = None
    total_minres = 0
    status = None
    info = {"oracle_m_g": oracle.variance_bound(problem)}
    # what a run whose start point fails to evaluate reports
    state = None
    feas = stat = math.nan
    y_ls = np.full(problem.m, math.nan)

    try:
        state = init_state(problem, cfg)
        while True:
            feas, stat, y_ls = true_kkt_errors(state.c, state.j,
                                               state.true_grad)
            # the iteration taken while the budget verdict was open: the
            # (state, step) pair, or the exception it raised
            ahead = None
            if spent is None:
                if feas <= cfg.feasibility_tol \
                        and stat <= cfg.stationarity_tol:
                    status = "converged"
                    break
            else:
                rank = rank_iterate(state.k, feas, stat, cfg.feasibility_tol)
                if best is None or rank < best[0]:
                    best = (rank, state.x, feas, stat, y_ls)
                if spent._query(total_minres) is None \
                        and state.k < cfg.max_outer_iterations:
                    try:
                        ahead = sqp_iterate(state, problem, oracle, cfg)
                    except Exception as exc:  # noqa: BLE001 - raised below
                        ahead = exc
                if spent.spent(total_minres):
                    status = "budget_exhausted"
                    info["stop"] = "minres_budget"
                    break
            if state.k >= cfg.max_outer_iterations:
                status = "budget_exhausted"
                info["stop"] = "outer_cap"
                break
            if ahead is None:
                ahead = sqp_iterate(state, problem, oracle, cfg)
            elif isinstance(ahead, Exception):
                raise ahead
            state, step = ahead
            total_minres += step.minres_iters
            if progress is not None:
                progress(total_minres)
            rows.append(IterationRow(
                k=step.k, feas_err=feas, stat_err=stat, tau=step.tau,
                xi=step.xi, beta=step.beta, alpha=step.alpha,
                accepted_test=step.accepted_test,
                hessian_rung=step.hessian_rung, delta_l=step.delta_l,
                minres_iters=step.minres_iters, cg_iters=step.cg_iters))
            if step.violations:
                info.setdefault("violations", []).extend(
                    (step.k, v) for v in step.violations)
    except EngineError as exc:
        # the steps of the iteration that raised have no row
        total_minres += exc.diagnostics.pop("minres_iters", 0)
        status = exc.status
        info["reason"] = str(exc)
        info["diagnostics"] = exc.diagnostics

    # every exit leaves the loop before stepping, so the errors measured
    # at the top of its last pass are those of the final state; a
    # budget-capped run reports its best visited iterate instead
    x = problem.x0 if state is None else state.x
    if best is not None:
        rank, x, feas, stat, y_ls = best
        rule = "min feasibility" if rank[0] \
            else "min stationarity among feasible"
        info["selected_iterate"] = {"k": rank[2], "rule": rule,
                                    "feas": feas, "stat": stat}
    return RunRecord(
        problem=problem.name, strategy=strategy, eps_n=eps_n,
        kappa=cfg.kappa, seed=seed, status=status,
        outer_iters=0 if state is None else state.k,
        total_minres_iters=total_minres,
        feasibility_error=feas, stationarity_error=stat, x_final=x.copy(),
        y_ls_final=y_ls, rows=rows, wall_time=time.perf_counter() - start,
        config_digest=_config_digest(cfg, seed, oracle_kind, eps_n),
        info=info)


class _PairAborted(Exception):
    """Ends the near-exact run of a pair whose truncated run left no
    budget."""


class _SharedBudget:
    """The MINRES budget of a capped run.  In a pair it is the truncated
    run's total as the near-exact run reads it: while the truncated run
    goes on, its running total is a lower bound on the budget; once it
    ends, the budget, or None if it left no usable result.
    ``run_single`` ends one at once with its ``budget``."""

    def __init__(self):
        self._cond = threading.Condition()
        self._bound = 0
        self._ended = False
        self._budget = None

    def publish(self, total):
        with self._cond:
            self._bound = total
            self._cond.notify_all()

    def end(self, budget):
        with self._cond:
            self._ended, self._budget = True, budget
            self._cond.notify_all()

    def _query(self, total):
        """Whether ``total`` spends the budget, or None while that is
        still open: ``total`` has reached the running bound and the
        truncated run goes on.  Raises ``_PairAborted`` once the
        truncated run ended without a budget."""
        with self._cond:
            if not self._ended:
                return False if total < self._bound else None
            if self._budget is None:
                raise _PairAborted
            return total >= self._budget

    def spent(self, total):
        """Whether ``total`` spends the budget, as ``_query`` says it;
        waits while that is still open."""
        with self._cond:
            verdict = self._query(total)
            while verdict is None:
                self._cond.wait()
                verdict = self._query(total)
            return verdict


def run_budget_matched_pair(problem, cfg_inexact, cfg_exact, seed, *,
                            oracle_kind="gaussian", eps_n=0.0):
    """Truncated run with the stopping rule, and a near-exact run of the
    same problem and seed capped at the truncated run's total MINRES
    iterations, judged at its best visited iterate.

    The near-exact run goes in a worker thread while the truncated run
    goes in the caller's; the result is that of the two runs made in
    turn.  Where its budget check is still open, the near-exact run
    takes its next step, and drops it if the budget comes back spent;
    that step's ``Problem`` calls and log lines happen though no record
    shows them.  A truncated run that ends in a ``FAILED_STATUSES``
    status aborts the pair, and the near-exact run's outcome is
    discarded.  An exception out of either run is raised here once both
    have stopped; where both raise, the truncated run's."""
    diff = [name for name, a in asdict(cfg_inexact).items()
            if a != asdict(cfg_exact)[name]]
    if set(diff) - {"kappa"}:
        logger.warning("budget-matched configs differ beyond kappa: %s", diff)

    shared = _SharedBudget()
    outcome = {}

    def near_exact():
        try:
            outcome["exact"] = _run(problem, cfg_exact, seed, oracle_kind,
                                    eps_n, "sisqo_exact", shared)
        except _PairAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - raised in the caller
            outcome["error"] = exc

    worker = threading.Thread(target=near_exact, name="sisqo-near-exact")
    worker.start()
    inexact = None
    try:
        inexact = _run(problem, cfg_inexact, seed, oracle_kind, eps_n,
                       "sisqo", None, shared.publish)
    finally:
        failed = inexact is None or inexact.status in FAILED_STATUSES
        shared.end(None if failed else inexact.total_minres_iters)
        worker.join()
    if failed:
        return ComparisonRecord(
            inexact=inexact, exact=None, budget=0, overshoot=0,
            info={"reason": f"truncated run ended {inexact.status}"})
    if "error" in outcome:
        raise outcome["error"]

    budget = inexact.total_minres_iters
    exact = outcome["exact"]
    overshoot = max(0, exact.total_minres_iters - budget)
    return ComparisonRecord(inexact=inexact, exact=exact, budget=budget,
                            overshoot=overshoot)


# -- aggregation and emission -----------------------------------------------

def aggregate(records):
    """Group records of one problem by (strategy, eps_n, kappa) and
    produce summary statistics; runs with a status in FAILED_STATUSES are
    counted but excluded from the error statistics.  Mixing problems in
    one call is an error."""
    records = list(records)
    if not records:
        return []
    names = {r.problem for r in records}
    if len(names) > 1:
        raise ValueError(f"aggregate expects a single problem,"
                         f" got {sorted(names)}")
    groups = {}
    for r in records:
        groups.setdefault((r.strategy, r.eps_n, r.kappa), []).append(r)
    out = []
    for (strategy, eps_n, kappa), runs in sorted(groups.items()):
        clean = [r for r in runs if r.status not in FAILED_STATUSES]
        row = {"problem": records[0].problem, "strategy": strategy,
               "eps_n": eps_n, "kappa": kappa, "count": len(runs),
               "n_failed": len(runs) - len(clean)}
        if clean:
            feas = np.array([r.feasibility_error for r in clean])
            stat = np.array([r.stationarity_error for r in clean])
            row.update(
                mean_feas=float(feas.mean()), median_feas=float(np.median(feas)),
                max_feas=float(feas.max()),
                mean_stat=float(stat.mean()), median_stat=float(np.median(stat)),
                max_stat=float(stat.max()),
                mean_minres=float(np.mean(
                    [r.total_minres_iters for r in clean])),
                mean_outer=float(np.mean([r.outer_iters for r in clean])))
        out.append(row)
    return out


def resolve_output_path(path):
    """Relative paths land in SISQO_OUTPUT_DIR when the variable is set."""
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def emit_results(records, path):
    """Write run records as JSON (full records, including per-iteration
    rows) to a ``.json`` path and as CSV (summary columns) to any other.
    Returns the resolved path."""
    path = resolve_output_path(path)
    flat = []
    for rec in records:
        flat.extend(rec.runs() if isinstance(rec, ComparisonRecord) else [rec])
    try:
        if str(path).endswith(".json"):
            payload = {"schema": "sisqo-results-v1",
                       "records": [_record_json(r) for r in flat]}
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1)
        else:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                for r in flat:
                    writer.writerow(
                        ["%.17g" % getattr(r, attr) if kind is float
                         else getattr(r, attr)
                         for _, attr, kind in _CSV_SCHEMA])
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
    return path


def _record_json(r):
    """Every field of the run record ``r``, the arrays as lists."""
    return {**asdict(r), "x_final": r.x_final.tolist(),
            "y_ls_final": r.y_ls_final.tolist()}


# summary-level record reconstructed from a results CSV
_LoadedRun = make_dataclass(
    "_LoadedRun", [(attr, kind) for _, attr, kind in _CSV_SCHEMA])


# the columns of a CSV written before run records carried their kappa
_PRE_KAPPA_COLUMNS = [column for column in CSV_COLUMNS if column != "kappa"]
# the kappa of each run such a CSV loads: one NaN object, so that
# ``aggregate`` keeps the runs of a (strategy, eps_n) in one group
_UNRECORDED_KAPPA = math.nan


def load_results(path):
    """Read a results CSV back into summary records that ``aggregate``
    accepts.  A CSV without the kappa column loads with kappa NaN."""
    path = resolve_output_path(path)
    out = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames not in (list(CSV_COLUMNS),
                                         _PRE_KAPPA_COLUMNS):
                raise ValueError(f"unexpected results header in {path!r}:"
                                 f" {reader.fieldnames}")
            for row in reader:
                out.append(_LoadedRun(**{
                    "kappa": _UNRECORDED_KAPPA,
                    **{attr: kind(row[column]) for column, attr, kind
                       in _CSV_SCHEMA if column in row}}))
    except OSError as exc:
        raise OSError(f"cannot read results from {path!r}: {exc}") from exc
    return out
