"""Run driver, budget-matched comparisons, aggregation, and results IO."""

import dataclasses
import logging
import math
import os
import sys
import threading
import warnings
from collections import Counter

import numpy as np
import pytest

import sisqo.engine
import sisqo.kernels
from sisqo.config import (apply_overrides, build_problem, build_solver_config,
                          harness_settings, load_config, oracle_settings)
from sisqo.engine import SolverConfig
from sisqo.harness import (FAILED_STATUSES, ComparisonRecord, aggregate,
                           emit_results, load_results, resolve_output_path,
                           rank_iterate, run_budget_matched_pair, run_single,
                           true_kkt_errors, CSV_COLUMNS, _PairAborted,
                           _SharedBudget)
from sisqo.krylov import CgResult, MinresState
from sisqo.library import SyntheticQpSpec, build_synthetic_qp
from sisqo.problems import GradientOracle, Problem
from sisqo.sparse import SparseMatrix


def _qp(n=10, m=4, seed=0):
    return build_synthetic_qp(SyntheticQpSpec(n=n, m=m, seed=seed))


def _recomputed_kkt_errors(problem, x):
    """The KKT metric at x from c, J and the true gradient evaluated
    there anew."""
    return true_kkt_errors(problem.eval_c(x), problem.eval_jacobian(x),
                           problem.eval_grad_f(x))


def test_true_kkt_errors_at_known_solution():
    problem = _qp()
    x_star, _ = problem.known_solution
    j = problem.eval_jacobian(x_star)
    feas, stat, y_ls = true_kkt_errors(problem.eval_c(x_star), j,
                                       problem.eval_grad_f(x_star))
    assert feas <= 1e-10
    assert stat <= 1e-8
    grad = problem.eval_grad_f(x_star)
    assert np.linalg.norm(grad + j.apply_transpose(y_ls)) <= 1e-8


def test_run_single_exact_converges():
    problem = _qp()
    lip_l, lip_gamma = problem.lipschitz
    cfg = SolverConfig(lipschitz_mode="fixed", lip_l=lip_l,
                       lip_gamma=lip_gamma, feasibility_tol=1e-8,
                       stationarity_tol=1e-6)
    record = run_single(problem, cfg, 0, oracle_kind="exact")
    assert record.status == "converged"
    assert record.feasibility_error <= 1e-8
    assert record.stationarity_error <= 1e-6
    x_star, _ = problem.known_solution
    assert np.linalg.norm(record.x_final - x_star) <= 1e-4
    assert record.outer_iters == len(record.rows)
    assert record.total_minres_iters == sum(r.minres_iters for r in record.rows)
    assert len(record.config_digest) == 12
    assert record.info.get("violations") is None


def test_run_single_outer_cap():
    problem = _qp()
    cfg = SolverConfig(max_outer_iterations=0)
    record = run_single(problem, cfg, 0, oracle_kind="exact")
    assert record.status == "budget_exhausted"
    assert record.info["stop"] == "outer_cap"
    assert record.outer_iters == 0
    assert record.rows == []


def test_run_single_finite_sum_oracle_needs_finite_sum_terms():
    # the M_g metadata is computed before the run starts; a problem with
    # no finite-sum terms is refused by the oracle's own check
    with pytest.raises(ValueError, match="exposes no finite-sum terms"):
        run_single(_qp(), SolverConfig(), 0, oracle_kind="finite_sum")


def test_run_single_minres_budget():
    problem = _qp()
    for feasibility_tol, rule in ((1e-6, "min feasibility"),
                                  (1e3, "min stationarity among feasible")):
        cfg = SolverConfig(feasibility_tol=feasibility_tol)
        record = run_single(problem, cfg, 0, oracle_kind="exact", budget=0)
        assert record.status == "budget_exhausted"
        assert record.info["stop"] == "minres_budget"
        assert record.outer_iters == 0
        selected = record.info["selected_iterate"]
        assert selected == {"k": 0, "rule": rule,
                            "feas": record.feasibility_error,
                            "stat": record.stationarity_error}
        np.testing.assert_array_equal(record.x_final, problem.x0)


@pytest.mark.parametrize("cfg, run_kwargs, status", [
    (SolverConfig(), {}, "converged"),
    (SolverConfig(max_outer_iterations=3), {}, "budget_exhausted"),
    (SolverConfig(), {"budget": 20}, "budget_exhausted"),
])
def test_run_single_measures_each_iterate_once(monkeypatch, cfg, run_kwargs,
                                               status):
    # one KKT metric per visited iterate: the final state's errors are
    # the ones measured at the top of the loop's last pass
    import sisqo.harness

    calls = []

    def counting(*args):
        calls.append(args)
        return true_kkt_errors(*args)

    monkeypatch.setattr(sisqo.harness, "true_kkt_errors", counting)
    problem = _qp()
    record = run_single(problem, cfg, 0, oracle_kind="gaussian", eps_n=1e-2,
                        **run_kwargs)
    assert record.status == status
    assert record.outer_iters > 0
    assert len(calls) == record.outer_iters + 1
    feas, stat, y_ls = _recomputed_kkt_errors(problem, record.x_final)
    assert (record.feasibility_error, record.stationarity_error) \
        == (feas, stat)
    np.testing.assert_array_equal(record.y_ls_final, y_ls)


def _counting(problem, calls, inside):
    """``problem`` with its f, c, J, gradient and Hessian callables
    counted in ``calls``, under a lock: the two runs of a pair call them
    at once.  A call made while ``inside.tag`` is set is counted under
    that tag instead of its own name."""
    lock = threading.Lock()

    def counted(name):
        fn = getattr(problem, name)

        def call(*args):
            with lock:
                calls[getattr(inside, "tag", None) or name] += 1
            return fn(*args)
        return call

    return dataclasses.replace(problem, **{name: counted(name) for name in (
        "eval_f", "eval_c", "eval_jacobian", "eval_grad_f",
        "eval_lagrangian_hessian")})


def _tagged(fn, tag, inside, calls):
    """``fn`` counted in ``calls`` under ``tag``, which it sets on
    ``inside`` while it runs."""
    def call(*args):
        calls[tag] += 1
        inside.tag = f"{tag} gradient"
        try:
            return fn(*args)
        finally:
            inside.tag = None
    return call


def test_each_derivative_is_evaluated_once_per_iterate(monkeypatch):
    # f, c, J and the true gradient once per visited iterate (the start
    # included), the gradient once more at x + d per directional
    # iteration, and the Lagrangian Hessian once per iteration however
    # many ladder rungs it tries; the Lipschitz estimate evaluates no J.
    # The gaussian oracle's draws and the finite-sum oracle's M_g at x0
    # evaluate the gradient too, counted apart.  The near-exact run of a
    # pair may take one more iteration, while its budget check is open,
    # and drop it
    estimates = []
    estimate = sisqo.engine.estimate_lipschitz
    iterate = sisqo.harness.sqp_iterate
    iterations = Counter()

    def counted_estimate(*args):
        estimates.append(args)
        return estimate(*args)

    def counted_iterate(*args):
        iterations[threading.current_thread().name] += 1
        return iterate(*args)

    monkeypatch.setattr(sisqo.engine, "estimate_lipschitz", counted_estimate)
    monkeypatch.setattr(sisqo.harness, "sqp_iterate", counted_iterate)
    calls, inside = Counter(), threading.local()
    for method in ("sample", "variance_bound"):
        monkeypatch.setattr(GradientOracle, method, _tagged(
            getattr(GradientOracle, method), method, inside, calls))
    neumann = apply_overrides(load_config("control_finite_sum"),
                              ["problem.kind=neumann_control",
                               "problem.mesh_size=8"])
    qp = load_config("qp_gaussian")
    for config, pair in ((neumann, True), (qp, False)):
        calls.clear()
        estimates.clear()
        iterations.clear()
        problem = _counting(build_problem(config), calls, inside)
        kind, eps_n = oracle_settings(config)
        cfg = build_solver_config(config, seed=0)
        if pair:
            kappa_exact = harness_settings(config)["kappa_exact"]
            runs = run_budget_matched_pair(
                problem, cfg, build_solver_config(config, seed=0,
                                                  kappa=kappa_exact),
                0, oracle_kind=kind, eps_n=eps_n).runs()
        else:
            runs = [run_single(problem, cfg, 0, oracle_kind=kind,
                               eps_n=eps_n)]
        assert len(runs) == (2 if pair else 1)
        assert all(r.status in ("converged", "budget_exhausted")
                   for r in runs)
        # every iteration taken, dropped or not
        taken = sum(iterations.values())
        dropped = taken - sum(r.outer_iters for r in runs)
        assert iterations[threading.current_thread().name] \
            == runs[0].outer_iters
        assert dropped in ((0, 1) if pair else (0,))
        iterates = taken + len(runs)
        assert calls["eval_lagrangian_hessian"] == taken
        assert calls["eval_f"] == calls["eval_c"] == iterates
        assert calls["eval_jacobian"] == iterates
        assert calls["variance_bound"] == len(runs)
        if pair:
            # fixed Lipschitz constants, and rungs past 0 are tried
            assert estimates == []
            assert any(row.hessian_rung > 0 for r in runs for row in r.rows)
            assert calls["eval_grad_f"] == iterates
            # finite-sum draws evaluate one term; M_g the whole gradient
            assert calls["sample gradient"] == 0
            assert calls["variance_bound gradient"] == len(runs)
        else:
            assert len(estimates) == taken > 0
            assert calls["eval_grad_f"] == iterates + taken
            assert calls["sample gradient"] == calls["sample"] >= taken
            assert calls["variance_bound gradient"] == 0


def _poisoned(problem, name, call, spoil):
    """``problem`` whose ``name`` callable returns ``spoil(value)`` at
    its ``call``-th call (counted from 1) in each thread: each run of a
    pair counts its own calls."""
    fn = getattr(problem, name)
    local = threading.local()

    def poisoned(*args):
        local.calls = getattr(local, "calls", 0) + 1
        value = fn(*args)
        return spoil(value) if local.calls == call else value
    return dataclasses.replace(problem, **{name: poisoned})


def _nan(value):
    return np.full_like(value, np.nan)


def _first(value):
    return value[:1]


def _drop_row(j):
    return SparseMatrix.from_dense(j.to_dense()[:-1])


def _lose_to_cauchy_point(monkeypatch):
    # a normal-step CG that returns v = 0 loses to the Cauchy point
    monkeypatch.setattr(sisqo.engine, "cg_normal_solve",
                        lambda j, c: CgResult(
                            np.zeros(j.cols), 0, True, 0.0))


# (callable, call, spoiled value, status, quantity, iterate); f, c, J and
# the true gradient are evaluated once per iterate, so the gradient's
# calls in iteration 0 are the true gradient at x0, the oracle's sample,
# the directional gradient at x + d once the step d is formed, and the
# true gradient at x1
_INJECTIONS = {
    "oracle gradient": ("eval_grad_f", 2, _nan, "nonfinite",
                        "sampled gradient", 0),
    "Hessian": ("eval_lagrangian_hessian", 1,
                lambda h: SparseMatrix.diagonal(np.full(h.rows, np.nan)),
                "nonfinite", "Lagrangian Hessian", 0),
    "directional gradient": ("eval_grad_f", 3, _nan, "nonfinite",
                             "gradient at x + d", 0),
    "true gradient at x1": ("eval_grad_f", 4, _nan, "nonfinite",
                            "true gradient", 1),
    # finite gradient values whose difference, taken along d, overflows
    "directional gradient overflow": (
        "eval_grad_f", 3, lambda g: np.full_like(g, 1e308), "nonfinite",
        "Lipschitz constant", 0),
    "normal step": (None, None, None, "breach", None, None),
    "c(x2)": ("eval_c", 3, _nan, "nonfinite", "c(x)", 2),
    "f(x2)": ("eval_f", 3, lambda f: math.inf, "nonfinite", "f(x)", 2),
    "f(x0)": ("eval_f", 1, lambda f: math.nan, "nonfinite", "f(x)", 0),
    "asymmetric Hessian": (
        "eval_lagrangian_hessian", 1,
        lambda h: SparseMatrix.from_dense(np.triu(h.to_dense() + 1.0)),
        "invalid", "Lagrangian Hessian", 0),
    "J(x1) shape": ("eval_jacobian", 2, _drop_row, "invalid", "J(x)", 1),
    # a gradient of shape (1,) at each of its four calls of iteration 0:
    # numpy would broadcast it against one of shape (n,)
    "true gradient shape": ("eval_grad_f", 1, _first, "invalid",
                            "true gradient", 0),
    "oracle gradient shape": ("eval_grad_f", 2, _first, "invalid",
                              "sampled gradient", 0),
    "directional gradient shape": ("eval_grad_f", 3, _first, "invalid",
                                   "gradient at x + d", 0),
    "true gradient at x1 shape": ("eval_grad_f", 4, _first, "invalid",
                                  "true gradient", 1),
}

# evaluated once per iterate; a bad one at x_{k+1} ends iteration k
_PER_ITERATE = ("f(x)", "c(x)", "J(x)", "true gradient")


@pytest.mark.parametrize("case", list(_INJECTIONS))
def test_every_injected_fault_ends_in_a_recorded_status(monkeypatch, case):
    name, call, spoil, status, quantity, k = _INJECTIONS[case]
    config = load_config("qp_gaussian")
    kind, eps_n = oracle_settings(config)
    problem = build_problem(config)
    # MINRES steps taken per tangential solve, and how many of them
    # before the fault
    steps, at_fault = [], []
    solve = sisqo.kernels.tangential_solve

    def counted_solve(*args):
        out = solve(*args)
        steps.append(out[0])
        return out

    def spoil_and_mark(value):
        at_fault.append(sum(steps))
        return spoil(value)

    monkeypatch.setattr(sisqo.kernels, "tangential_solve", counted_solve)
    if name is None:
        _lose_to_cauchy_point(monkeypatch)
    else:
        problem = _poisoned(problem, name, call, spoil_and_mark)

    # the recorded status is the whole report: no RuntimeWarning besides
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        record = run_single(problem, build_solver_config(config, seed=0), 0,
                            oracle_kind=kind, eps_n=eps_n)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert record.status == status
    assert record.info["reason"]
    assert record.outer_iters == len(record.rows)
    # the steps of the iteration that raised count too: c(x2) ends the
    # run after 19 steps, 6 of them in the one recorded row
    assert record.total_minres_iters == sum(steps)
    if status in ("nonfinite", "invalid"):
        assert record.info["diagnostics"] == {"quantity": quantity, "k": k}
        # no MINRES step after the bad value was evaluated
        assert at_fault == [sum(steps)]
        # with no row for the iteration that reached the bad iterate
        ended = k - 1 if k and quantity in _PER_ITERATE else k
        assert record.outer_iters == ended
    if record.outer_iters == 0:
        np.testing.assert_array_equal(record.x_final, problem.x0)


def test_a_bad_true_gradient_at_x1_ends_iteration_0_with_no_row():
    # the true gradient is NaN at x1 only, which a clean run capped at
    # one iteration reaches: iteration 0 ends there with no row, its
    # MINRES steps counted, and the record reports x0 with the errors of
    # x0
    config = load_config("qp_gaussian")
    kind, eps_n = oracle_settings(config)
    problem = build_problem(config)
    cfg = build_solver_config(config, seed=0)
    clean = run_single(problem, dataclasses.replace(
        cfg, max_outer_iterations=1), 0, oracle_kind=kind, eps_n=eps_n)
    assert clean.outer_iters == 1
    x1 = clean.x_final.tobytes()
    grad = problem.eval_grad_f
    at_x1 = []

    def nan_at_x1(x):
        # the step is a full one, so directional mode's x0 + d is x1 too;
        # its evaluation, the first at x1, stays clean
        if x.tobytes() != x1:
            return grad(x)
        at_x1.append(x)
        return grad(x) if len(at_x1) == 1 else np.full(problem.n, np.nan)

    record = run_single(dataclasses.replace(problem, eval_grad_f=nan_at_x1),
                        cfg, 0, oracle_kind=kind, eps_n=eps_n)
    assert clean.rows[0].alpha == 1.0 and len(at_x1) == 2
    assert record.status == "nonfinite"
    assert record.info["diagnostics"] == {"quantity": "true gradient",
                                          "k": 1}
    assert record.rows == [] and record.outer_iters == 0
    np.testing.assert_array_equal(record.x_final, problem.x0)
    assert record.total_minres_iters == clean.rows[0].minres_iters > 0
    feas, stat, y_ls = _recomputed_kkt_errors(problem, record.x_final)
    assert (record.feasibility_error, record.stationarity_error) \
        == (feas, stat)
    np.testing.assert_array_equal(record.y_ls_final, y_ls)


def test_one_kernel_call_per_hessian_rung():
    # on the compiled backend each rung's MINRES solve and its
    # termination tests are one kernels.tangential_solve call, with no
    # MinresState.step from Python; each rung record carries the call's
    # step count and rejection counts
    if "compiled" not in sisqo.kernels.available_backends():
        pytest.skip("the compiled core was not built")
    config = load_config("qp_gaussian")
    kind, eps_n = oracle_settings(config)
    problem = build_problem(config)
    outcomes, steps, rungs = [], [], []
    solve, iterate = sisqo.kernels.tangential_solve, sisqo.harness.sqp_iterate

    def counted_solve(*args):
        outcomes.append(solve(*args))
        return outcomes[-1]

    def recorded_iterate(*args, **kwargs):
        state, step = iterate(*args, **kwargs)
        rungs.extend(step.info["rungs"])
        return state, step

    previous = sisqo.kernels.active_backend()
    sisqo.kernels.use_backend("compiled")
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sisqo.kernels, "tangential_solve", counted_solve)
            patch.setattr(MinresState, "step",
                          lambda self: steps.append(self))
            patch.setattr(sisqo.harness, "sqp_iterate", recorded_iterate)
            record = run_single(problem, build_solver_config(config, seed=0),
                                0, oracle_kind=kind, eps_n=eps_n)
    finally:
        sisqo.kernels.use_backend(previous)
    assert record.status == "converged" and record.outer_iters > 0
    assert len(outcomes) == len(rungs) \
        == sum(row.hessian_rung + 1 for row in record.rows)
    assert steps == []
    for rung, out in zip(rungs, outcomes):
        assert rung["minres_iters"] == out[0]
        assert list(rung["rejected"]) == ["b", "a", "c", "tests"]
        assert tuple(rung["rejected"].values()) == out[8]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_tangential_rhs_ends_the_run_nonfinite():
    # every evaluation is finite, but the right-hand side g + H v (+ J'y)
    # of the first rung overflows: v = (0.9, 0, 0) and H = 1.7e308 I
    g = np.array([1e308, 0.0, 0.0])
    h = SparseMatrix.diagonal(np.full(3, 1.7e308))
    j = SparseMatrix.from_dense(np.array([[1.0, 0.0, 0.0]]))
    problem = Problem(name="overflow", n=3, m=1,
                      eval_f=lambda x: float(g @ x),
                      eval_grad_f=lambda x: g.copy(),
                      eval_c=lambda x: x[:1] - 1.0,
                      eval_jacobian=lambda x: j,
                      eval_lagrangian_hessian=lambda x, y: h,
                      x0=np.array([0.1, 0.0, 0.0]))
    record = run_single(problem, SolverConfig(lipschitz_mode="fixed"), 0,
                        oracle_kind="exact")
    assert record.status == "nonfinite"
    assert record.info["diagnostics"] == {
        "quantity": "tangential right-hand side", "k": 0}
    assert record.total_minres_iters == 0


def _qp_gaussian_run(overrides=()):
    config = apply_overrides(load_config("qp_gaussian"), list(overrides))
    kind, eps_n = oracle_settings(config)
    return run_single(build_problem(config),
                      build_solver_config(config, seed=0), 0,
                      oracle_kind=kind, eps_n=eps_n)


def test_a_step_past_the_step_size_model_is_a_recorded_violation(
        monkeypatch):
    # the first step is doubled until varphi(alpha) > 0, which the
    # step-size rule never allows
    select = sisqo.engine.select_step_size
    stretched = []

    def too_long(alpha_min, alpha_suff, beta, varphi):
        alpha = select(alpha_min, alpha_suff, beta, varphi)
        if not stretched:
            for _ in range(100):
                if varphi(alpha) > 0.0:
                    break
                alpha *= 2.0
            stretched.append(alpha)
        return alpha

    monkeypatch.setattr(sisqo.engine, "select_step_size", too_long)
    record = _qp_gaussian_run()
    assert [(k, message.split(" = ")[0]) for k, message
            in record.info["violations"]] \
        == [(0, f"varphi({stretched[0]:.6e})")]


def test_test_2_steps_keep_their_guarantees():
    # from tau = 1 the merit parameter must fall, by test-2 steps, and
    # the model reduction is then checked at the updated tau
    record = _qp_gaussian_run(["algorithm.tau_init=1"])
    assert record.status == "converged"
    test_2 = [row for row in record.rows if row.accepted_test == 2]
    assert test_2
    assert min(row.tau for row in test_2) < 1.0
    assert record.info.get("violations") is None


@pytest.mark.parametrize("fault", ["failed", "breach", "nonfinite"])
def test_budget_matched_pair_aborts_after_a_failed_truncated_run(
        monkeypatch, fault):
    problem = _qp(n=12, m=5, seed=1)
    if fault == "failed":
        # one MINRES step on one Hessian rung accepts no tangential iterate
        monkeypatch.setattr(sisqo.engine, "MINRES_MAX_ITER_SCALE", 0.01)
        monkeypatch.setattr(sisqo.engine, "MAX_RUNG", 0)
    elif fault == "breach":
        _lose_to_cauchy_point(monkeypatch)
    else:
        problem = _poisoned(problem, "eval_f", 2, lambda f: math.nan)
    pair = run_budget_matched_pair(problem, SolverConfig(kappa=0.1),
                                   SolverConfig(kappa=1e-7), 0,
                                   oracle_kind="gaussian", eps_n=1e-2)
    assert pair.inexact.status == fault
    assert pair.aborted
    assert pair.runs() == [pair.inexact]
    assert pair.info == {"reason": f"truncated run ended {fault}"}


def _assert_same_run(a, b):
    # every field but the wall time, arrays by their bytes
    for f in dataclasses.fields(a):
        if f.name != "wall_time":
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name


def _assert_runs_in_turn(pair, problem, cfg_inexact, cfg_exact, seed, kind,
                         eps_n):
    """``pair`` is the truncated run, then the near-exact run under the
    truncated run's total as its budget; returns the near-exact run."""
    inexact = run_single(problem, cfg_inexact, seed, oracle_kind=kind,
                         eps_n=eps_n)
    exact = run_single(problem, cfg_exact, seed, oracle_kind=kind,
                       eps_n=eps_n, strategy="sisqo_exact",
                       budget=inexact.total_minres_iters)
    _assert_same_run(pair.inexact, inexact)
    _assert_same_run(pair.exact, exact)
    assert (pair.budget, pair.overshoot, pair.info) == (
        inexact.total_minres_iters,
        max(0, exact.total_minres_iters - inexact.total_minres_iters), {})
    return exact


@pytest.mark.parametrize("case", ["neumann8", "qp"])
def test_budget_matched_pair_is_the_two_runs_in_turn(backend, case):
    # the two runs solve at once, with the records of the near-exact run
    # made after the truncated one under that run's total as its budget
    if case == "qp":
        problem, kind, eps_n = _qp(n=12, m=5, seed=1), "gaussian", 1e-2
        cfg_inexact, cfg_exact = (SolverConfig(kappa=0.1),
                                  SolverConfig(kappa=1e-7))
    else:
        config = apply_overrides(load_config("control_finite_sum"),
                                 ["problem.kind=neumann_control",
                                  "problem.mesh_size=8"])
        problem = build_problem(config)
        kind, eps_n = oracle_settings(config)
        cfg_inexact = build_solver_config(config, seed=0)
        cfg_exact = build_solver_config(
            config, seed=0, kappa=harness_settings(config)["kappa_exact"])
    pair = run_budget_matched_pair(problem, cfg_inexact, cfg_exact, 0,
                                   oracle_kind=kind, eps_n=eps_n)
    exact = _assert_runs_in_turn(pair, problem, cfg_inexact, cfg_exact, 0,
                                 kind, eps_n)
    assert exact.info["stop"] == "minres_budget"


def test_concurrent_pairs_under_frequent_thread_switches():
    # four pairs at once, eight solving threads on fewer cores, switching
    # every few microseconds: each pair is still its two runs in turn
    problem = _qp(n=12, m=5, seed=1)
    configs = SolverConfig(kappa=0.1), SolverConfig(kappa=1e-7)
    pairs = {}

    def solve(seed):
        pairs[seed] = run_budget_matched_pair(
            problem, *configs, seed, oracle_kind="gaussian", eps_n=1e-2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(pairs) == [0, 1, 2, 3]
    for seed, pair in pairs.items():
        _assert_runs_in_turn(pair, problem, *configs, seed, "gaussian", 1e-2)


@pytest.mark.parametrize("run", ["truncated", "near-exact"])
def test_an_exception_in_either_run_leaves_the_pair(run):
    # f raises at the second iterate of one run only; the pair raises it
    # once both runs have stopped, and leaves no thread behind
    caller = threading.current_thread()

    def spoil(value):
        if (threading.current_thread() is caller) == (run == "truncated"):
            raise ValueError(f"f failed in the {run} run")
        return value

    problem = _poisoned(_qp(n=12, m=5, seed=1), "eval_f", 2, spoil)
    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"in the {run} run"):
        run_budget_matched_pair(problem, SolverConfig(kappa=0.1),
                                SolverConfig(kappa=1e-7), 0,
                                oracle_kind="gaussian", eps_n=1e-2)
    assert threading.active_count() == threads


def test_shared_budget_query():
    # None while the verdict is open, and never a wait
    shared = _SharedBudget()
    assert shared._query(0) is None
    shared.publish(10)
    assert (shared._query(9), shared._query(10)) == (False, None)
    shared.end(12)
    assert [shared._query(t) for t in (0, 11, 12, 13)] \
        == [False, False, True, True]
    assert shared.spent(12) is True
    aborted = _SharedBudget()
    aborted.publish(5)
    aborted.end(None)
    for query in (aborted._query, aborted.spent):
        with pytest.raises(_PairAborted):
            query(0)


_HOLD_TIMEOUT = 60.0


def _held(problem, name, call, until, released):
    """``problem`` whose ``name`` callable, at its ``call``-th call from
    the calling thread (the truncated run's), waits for the event
    ``until``; ``released`` gets whether it was set before the wait
    timed out."""
    caller = threading.current_thread()

    def hold(value):
        if threading.current_thread() is caller:
            released.append(until.wait(_HOLD_TIMEOUT))
        return value
    return _poisoned(problem, name, call, hold)


def _pair_setup():
    problem = _qp(n=12, m=5, seed=1)
    return problem, SolverConfig(kappa=0.1), SolverConfig(kappa=1e-7)


def test_the_near_exact_run_steps_while_its_budget_is_open(monkeypatch):
    # the truncated run is held at its start, before it has published
    # any of its total; the near-exact run takes its first iteration
    # all the same, and the pair is still the two runs in turn
    problem, *configs = _pair_setup()
    caller = threading.current_thread()
    stepped, released = threading.Event(), []
    iterate = sisqo.harness.sqp_iterate

    def marked_iterate(*args):
        out = iterate(*args)
        if threading.current_thread() is not caller:
            stepped.set()
        return out

    monkeypatch.setattr(sisqo.harness, "sqp_iterate", marked_iterate)
    pair = run_budget_matched_pair(
        _held(problem, "eval_f", 1, stepped, released), *configs, 0,
        oracle_kind="gaussian", eps_n=1e-2)
    assert released == [True]
    _assert_runs_in_turn(pair, problem, *configs, 0, "gaussian", 1e-2)


def _raise_value_error(value):
    raise ValueError("f failed in the near-exact run")


@pytest.mark.parametrize("spoil", [lambda f: math.nan, _raise_value_error],
                         ids=["nonfinite", "ValueError"])
@pytest.mark.parametrize("ahead", [1, 0], ids=["dropped", "kept"])
def test_a_dropped_step_leaves_no_trace(spoil, ahead):
    # f at the iterate that the near-exact run's step after its budget
    # is spent (ahead = 1), or the step before it (ahead = 0), would
    # reach is spoiled, while the truncated run is held after its last
    # MINRES step until that evaluation: the dropped step leaves the
    # pair as the two runs in turn, and the kept one ends the near-exact
    # run as it ends it in turn
    problem, cfg_inexact, cfg_exact = _pair_setup()
    run = dict(oracle_kind="gaussian", eps_n=1e-2)
    inexact = run_single(problem, cfg_inexact, 0, **run)
    budget = inexact.total_minres_iters
    exact = run_single(problem, cfg_exact, 0, strategy="sisqo_exact",
                       budget=budget, **run)
    assert exact.info["stop"] == "minres_budget"
    # f is evaluated at x0 and once per iteration
    call = exact.outer_iters + 1 + ahead

    caller = threading.current_thread()
    spoiled, released = threading.Event(), []

    def spoil_near_exact(value):
        if threading.current_thread() is caller:
            return value
        spoiled.set()
        return spoil(value)

    pair_problem = _poisoned(problem, "eval_f", call, spoil_near_exact)
    in_turn = _poisoned(problem, "eval_f", call, spoil)
    metric = sisqo.harness.true_kkt_errors
    metric_calls = []

    def held_metric(*args):
        # the truncated run's last KKT metric measures its final
        # iterate, after the run has published its whole total
        if threading.current_thread() is caller:
            metric_calls.append(args)
            if len(metric_calls) == inexact.outer_iters + 1:
                released.append(spoiled.wait(_HOLD_TIMEOUT))
        return metric(*args)

    def held_pair():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sisqo.harness, "true_kkt_errors", held_metric)
            return run_budget_matched_pair(pair_problem, cfg_inexact,
                                           cfg_exact, 0, **run)

    if not ahead and spoil is _raise_value_error:
        with pytest.raises(ValueError, match="in the near-exact run"):
            run_single(in_turn, cfg_exact, 0, budget=budget, **run)
        with pytest.raises(ValueError, match="in the near-exact run"):
            held_pair()
    else:
        pair = held_pair()
        # in turn, the near-exact run stops before the spoiled step
        expected = exact if ahead else run_single(
            in_turn, cfg_exact, 0, strategy="sisqo_exact", budget=budget,
            **run)
        assert expected.status \
            == ("budget_exhausted" if ahead else "nonfinite")
        _assert_same_run(pair.inexact, inexact)
        _assert_same_run(pair.exact, expected)
    assert released == [True]


def test_run_single_is_deterministic():
    problem = _qp()
    cfg = SolverConfig(max_outer_iterations=15)
    a = run_single(problem, cfg, 3, oracle_kind="gaussian", eps_n=1e-2)
    b = run_single(problem, cfg, 3, oracle_kind="gaussian", eps_n=1e-2)
    np.testing.assert_array_equal(a.x_final, b.x_final)
    assert a.feasibility_error == b.feasibility_error
    assert a.stationarity_error == b.stationarity_error
    assert a.total_minres_iters == b.total_minres_iters
    assert a.config_digest == b.config_digest


def _best_k(history, feasibility_tol):
    return min(history, key=lambda e: rank_iterate(*e, feasibility_tol))[0]


def test_rank_iterate_rules():
    # (k, feas, stat) in visiting order
    history = [(0, 0.5, 9.0), (1, 1e-8, 3.0), (2, 1e-7, 1.0), (3, 1e-7, 1.0)]
    # smallest stationarity among feasible iterates, earliest of a tie
    assert _best_k(history, 1e-6) == 2
    assert rank_iterate(2, 1e-7, 1.0, 1e-6) == (False, 1.0, 2)
    # nothing feasible: smallest feasibility
    assert _best_k(history, 1e-9) == 1
    assert rank_iterate(1, 1e-8, 3.0, 1e-9) == (True, 1e-8, 1)


def _two_stage_selection(history, feasibility_tol):
    # smallest stationarity among feasible iterates, else smallest
    # feasibility, each by min in visiting order with the earliest
    # iterate winning ties
    feasible = [e for e in history if e[1] <= feasibility_tol]
    if feasible:
        return min(feasible, key=lambda e: (e[2], e[0]))[0]
    return min(history, key=lambda e: (e[1], e[0]))[0]


def test_rank_iterate_matches_two_stage_selection():
    rng = np.random.default_rng(7)
    values = [1e-8, 1e-7, 1e-6, 1e-3, 1.0, np.nan]
    for _ in range(500):
        history = [(k, float(rng.choice(values)), float(rng.choice(values)))
                   for k in range(int(rng.integers(1, 7)))]
        assert _best_k(history, 1e-6) == _two_stage_selection(history, 1e-6)


def test_budget_matched_pair_accounting():
    problem = _qp(n=12, m=5, seed=1)
    cfg_inexact = SolverConfig(kappa=0.1, feasibility_tol=1e-6,
                               stationarity_tol=1e-2)
    cfg_exact = SolverConfig(kappa=1e-7, feasibility_tol=1e-6,
                             stationarity_tol=1e-2)
    pair = run_budget_matched_pair(problem, cfg_inexact, cfg_exact, 0,
                                   oracle_kind="gaussian", eps_n=1e-2)
    assert not pair.aborted
    assert pair.budget == pair.inexact.total_minres_iters
    assert pair.overshoot == max(
        0, pair.exact.total_minres_iters - pair.budget)
    assert pair.exact.strategy == "sisqo_exact"
    provenance = pair.exact.info["selected_iterate"]
    assert provenance["k"] <= pair.exact.outer_iters
    assert (provenance["feas"], provenance["stat"]) == \
        (pair.exact.feasibility_error, pair.exact.stationarity_error)
    # here an iterate before the last one wins, and it ranks first among
    # the iterates the rows recorded
    assert provenance["k"] < pair.exact.outer_iters
    row = pair.exact.rows[provenance["k"]]
    assert (row.feas_err, row.stat_err) == \
        (provenance["feas"], provenance["stat"])
    assert min(pair.exact.rows, key=lambda r: rank_iterate(
        r.k, r.feas_err, r.stat_err, 1e-6)) is row
    # reported errors are those of the selected iterate
    feas, stat, _ = _recomputed_kkt_errors(problem, pair.exact.x_final)
    assert pair.exact.feasibility_error == feas
    assert pair.exact.stationarity_error == stat
    assert pair.runs() == [pair.inexact, pair.exact]


def test_budget_matched_pair_equal_kappa_coincides():
    # with identical configs the two variants trace the same iterates
    # up to the budget cut
    problem = _qp(n=8, m=3, seed=4)
    cfg = SolverConfig(kappa=0.1)
    pair = run_budget_matched_pair(problem, cfg, cfg, 5,
                                   oracle_kind="gaussian", eps_n=1e-2)
    shared = min(len(pair.inexact.rows), len(pair.exact.rows))
    assert shared > 0
    for a, b in zip(pair.inexact.rows[:shared], pair.exact.rows[:shared]):
        assert (a.alpha, a.tau, a.minres_iters, a.feas_err) == \
            (b.alpha, b.tau, b.minres_iters, b.feas_err)


def test_json_metrics_recompute_from_emitted_state(tmp_path):
    import json
    problem = _qp(n=6, m=2, seed=3)
    record = run_single(problem, SolverConfig(), 1, oracle_kind="exact")
    path = emit_results([record], str(tmp_path / "replay.json"))
    row = json.load(open(path))["records"][0]
    x = np.array(row["x_final"])
    feas, stat, _ = _recomputed_kkt_errors(problem, x)
    assert abs(feas - row["feasibility_error"]) <= 1e-12
    assert abs(stat - row["stationarity_error"]) <= 1e-12


def test_budget_matched_pair_warns_on_config_drift(caplog):
    problem = _qp(n=6, m=2, seed=2)
    cfg_inexact = SolverConfig(kappa=0.1, max_outer_iterations=3)
    cfg_exact = SolverConfig(kappa=1e-7, max_outer_iterations=3, eta=0.3)
    with caplog.at_level(logging.WARNING, logger="sisqo.harness"):
        run_budget_matched_pair(problem, cfg_inexact, cfg_exact, 0,
                                oracle_kind="exact")
    assert any("differ beyond kappa" in m for m in caplog.messages)


def _stub_record(problem="qp", strategy="sisqo", eps_n=0.0, seed=0,
                 feas=1e-7, stat=1e-3, status="converged"):
    from sisqo.harness import RunRecord
    return RunRecord(problem=problem, strategy=strategy, eps_n=eps_n,
                     seed=seed, status=status, outer_iters=4,
                     total_minres_iters=40, feasibility_error=feas,
                     stationarity_error=stat, x_final=np.zeros(2),
                     y_ls_final=np.zeros(1), rows=[], wall_time=0.1,
                     config_digest="abcdef012345")


def test_aggregate_groups_and_excludes_failures():
    records = [
        _stub_record(seed=0, feas=1e-7, stat=2e-3),
        _stub_record(seed=1, feas=3e-7, stat=4e-3),
        _stub_record(seed=2, status="failed", feas=9.0, stat=9.0),
        _stub_record(strategy="sisqo_exact", eps_n=0.0, feas=1e-2, stat=1e-2),
    ]
    summary = aggregate(records)
    assert [(row["strategy"], row["eps_n"]) for row in summary] == \
        [("sisqo", 0.0), ("sisqo_exact", 0.0)]
    first = summary[0]
    assert first["count"] == 3
    assert first["n_failed"] == 1
    assert first["mean_feas"] == pytest.approx(2e-7)
    assert first["mean_stat"] == pytest.approx(3e-3)
    assert first["max_feas"] == 3e-7

    assert aggregate([]) == []
    with pytest.raises(ValueError, match="single problem"):
        aggregate([_stub_record(problem="a"), _stub_record(problem="b")])


def test_aggregate_excludes_every_failed_status():
    records = [_stub_record(seed=0, feas=1e-7),
               _stub_record(seed=1, feas=3e-7, status="stationary")]
    records += [_stub_record(seed=2 + i, status=status, feas=math.nan,
                             stat=math.nan)
                for i, status in enumerate(sorted(FAILED_STATUSES))]
    assert sorted(FAILED_STATUSES) == ["breach", "failed", "invalid",
                                       "nonfinite"]
    row, = aggregate(records)
    assert (row["count"], row["n_failed"]) == (6, 4)
    assert row["mean_feas"] == pytest.approx(2e-7)


def test_emit_and_load_csv_round_trip(tmp_path):
    records = [_stub_record(seed=0, feas=1.0 / 3.0),
               _stub_record(seed=1, stat=2e-3)]
    path = emit_results(records, str(tmp_path / "out.csv"))
    text = open(path).read()
    # 17 significant digits keep doubles exact across the round trip
    assert "0.33333333333333331" in text

    loaded = load_results(path)
    assert len(loaded) == 2
    assert loaded[0].feasibility_error == 1.0 / 3.0
    assert loaded[1].stationarity_error == 2e-3
    assert loaded[0].status == "converged"
    assert aggregate(loaded)[0]["mean_feas"] == \
        aggregate(records)[0]["mean_feas"]


def test_emit_csv_flattens_comparison_records(tmp_path):
    pair = ComparisonRecord(
        inexact=_stub_record(seed=0),
        exact=_stub_record(strategy="sisqo_exact", seed=0),
        budget=40, overshoot=0)
    assert not pair.aborted
    path = emit_results([pair], str(tmp_path / "pair.csv"))
    loaded = load_results(path)
    assert [r.strategy for r in loaded] == ["sisqo", "sisqo_exact"]

    aborted = ComparisonRecord(inexact=_stub_record(), exact=None, budget=0,
                               overshoot=0)
    assert aborted.aborted
    assert aborted.runs() == [aborted.inexact]


def test_emit_empty_records_writes_header(tmp_path):
    path = emit_results([], str(tmp_path / "empty.csv"))
    assert open(path).read().strip() == ",".join(CSV_COLUMNS)
    assert load_results(path) == []


def test_emit_json_schema(tmp_path):
    import json
    record = _stub_record()
    path = emit_results([record], str(tmp_path / "out.json"))
    payload = json.load(open(path))
    assert payload["schema"] == "sisqo-results-v1"
    assert len(payload["records"]) == 1
    row = payload["records"][0]
    assert row["problem"] == "qp"
    assert row["x_final"] == [0.0, 0.0]
    assert row["rows"] == []


def test_emit_json_keeps_dict_valued_info(tmp_path, monkeypatch):
    import json
    problem = _qp(n=8, m=3, seed=4)
    pair = run_budget_matched_pair(problem, SolverConfig(kappa=0.1),
                                   SolverConfig(kappa=1e-7), 5,
                                   oracle_kind="gaussian", eps_n=1e-2)
    # one MINRES step on one Hessian rung accepts no tangential iterate
    monkeypatch.setattr(sisqo.engine, "MINRES_MAX_ITER_SCALE", 0.01)
    monkeypatch.setattr(sisqo.engine, "MAX_RUNG", 0)
    failed = run_single(problem, SolverConfig(), 0, oracle_kind="exact")
    assert failed.status == "failed"
    path = emit_results([pair, failed], str(tmp_path / "out.json"))
    rows = json.load(open(path))["records"]
    assert [row["strategy"] for row in rows] == \
        ["sisqo", "sisqo_exact", "sisqo"]
    assert rows[1]["info"]["selected_iterate"] == \
        pair.exact.info["selected_iterate"]
    assert rows[2]["info"]["diagnostics"] == failed.info["diagnostics"]
    assert rows[2]["info"]["diagnostics"]["rungs"]


def test_emit_rejects_unknown_format_and_bad_path(tmp_path):
    with pytest.raises(OSError, match="cannot write results"):
        emit_results([], str(tmp_path / "no_such_dir" / "out.csv"))


def test_output_dir_redirects_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("SISQO_OUTPUT_DIR", str(tmp_path))
    assert resolve_output_path("out.csv") == str(tmp_path / "out.csv")
    absolute = str(tmp_path / "abs.csv")
    assert resolve_output_path(absolute) == absolute
    path = emit_results([_stub_record()], "redirected.csv")
    assert os.path.dirname(path) == str(tmp_path)
    assert len(load_results("redirected.csv")) == 1


def test_load_results_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("alpha,beta\n1,2\n")
    with pytest.raises(ValueError, match="unexpected results header"):
        load_results(str(path))
    with pytest.raises(OSError, match="cannot read results"):
        load_results(str(tmp_path / "missing.csv"))
