"""Run driver, budget-matched comparisons, aggregation, and results IO."""

import dataclasses
import logging
import math
import os
from collections import Counter

import numpy as np
import pytest

import sisqo.engine
from sisqo.config import (apply_overrides, build_problem, build_solver_config,
                          harness_settings, load_config, oracle_settings)
from sisqo.engine import SolverConfig
from sisqo.harness import (FAILED_STATUSES, ComparisonRecord, aggregate,
                           emit_results, load_results, resolve_output_path,
                           rank_iterate, run_budget_matched_pair, run_single,
                           true_kkt_errors, CSV_COLUMNS)
from sisqo.krylov import CgResult, MinresState
from sisqo.library import SyntheticQpSpec, build_synthetic_qp
from sisqo.problems import Problem
from sisqo.sparse import SparseMatrix


def _qp(n=10, m=4, seed=0):
    return build_synthetic_qp(SyntheticQpSpec(n=n, m=m, seed=seed))


def test_true_kkt_errors_at_known_solution():
    problem = _qp()
    x_star, _ = problem.known_solution
    j = problem.eval_jacobian(x_star)
    feas, stat, y_ls = true_kkt_errors(problem, x_star,
                                       problem.eval_c(x_star), j)
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
    j = problem.eval_jacobian(record.x_final)
    feas, stat, y_ls = true_kkt_errors(problem, record.x_final,
                                       problem.eval_c(record.x_final), j)
    assert (record.feasibility_error, record.stationarity_error) \
        == (feas, stat)
    np.testing.assert_array_equal(record.y_ls_final, y_ls)


def _counting(problem, calls):
    """``problem`` with its f, c, J and Hessian callables counted in
    ``calls``."""
    def counted(name):
        fn = getattr(problem, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    return dataclasses.replace(problem, **{name: counted(name) for name in (
        "eval_f", "eval_c", "eval_jacobian", "eval_lagrangian_hessian")})


def test_each_derivative_is_evaluated_once_per_iterate(monkeypatch):
    # f, c and J once per visited iterate (the start included), J(x')
    # once per Lipschitz probe, and the Lagrangian Hessian once per
    # iteration however many ladder rungs it tries
    probes = []
    estimate = sisqo.engine.estimate_lipschitz

    def probe(*args):
        probes.append(args)
        return estimate(*args)

    monkeypatch.setattr(sisqo.engine, "estimate_lipschitz", probe)
    neumann = apply_overrides(load_config("control_finite_sum"),
                              ["problem.kind=neumann_control",
                               "problem.mesh_size=8"])
    qp = load_config("qp_gaussian")
    for config, pair in ((neumann, True), (qp, False)):
        calls = Counter()
        probes.clear()
        problem = _counting(build_problem(config), calls)
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
        outer = sum(r.outer_iters for r in runs)
        iterates = outer + len(runs)
        assert calls["eval_lagrangian_hessian"] == outer
        assert calls["eval_f"] == calls["eval_c"] == iterates
        assert calls["eval_jacobian"] == iterates + len(probes)
        if pair:
            # fixed Lipschitz constants, and rungs past 0 are tried
            assert probes == []
            assert any(row.hessian_rung > 0 for r in runs for row in r.rows)
        else:
            assert len(probes) == outer > 0


def _poisoned(problem, name, call, spoil):
    """``problem`` whose ``name`` callable returns ``spoil(value)`` at
    its ``call``-th call (counted from 1)."""
    fn = getattr(problem, name)
    calls = []

    def poisoned(*args):
        calls.append(args)
        value = fn(*args)
        return spoil(value) if len(calls) == call else value
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
                        lambda j, c, rel_tol, abs_floor: CgResult(
                            np.zeros(j.cols), 0, True, 0.0))


# (callable, call, spoiled value, status, quantity, iterate); the gradient
# is evaluated by the KKT metric, the oracle and the Lipschitz probe in
# that order, and f and c once per iterate
_INJECTIONS = {
    "oracle gradient": ("eval_grad_f", 2, _nan, "nonfinite",
                        "sampled gradient", 0),
    "Hessian": ("eval_lagrangian_hessian", 1,
                lambda h: SparseMatrix.diagonal(np.full(h.rows, np.nan)),
                "nonfinite", "Lagrangian Hessian", 0),
    "probe gradient": ("eval_grad_f", 3, _nan, "nonfinite",
                       "probe gradient", 0),
    # finite probe values whose difference overflows the norm
    "probe overflow": ("eval_grad_f", 3, lambda g: np.full_like(g, 1e308),
                       "nonfinite", "Lipschitz constants", 0),
    "normal step": (None, None, None, "breach", None, None),
    "c(x2)": ("eval_c", 3, _nan, "nonfinite", "c(x)", 2),
    "f(x2)": ("eval_f", 3, lambda f: math.inf, "nonfinite", "f(x)", 2),
    "f(x0)": ("eval_f", 1, lambda f: math.nan, "nonfinite", "f(x)", 0),
    "asymmetric Hessian": (
        "eval_lagrangian_hessian", 1,
        lambda h: SparseMatrix.from_dense(np.triu(h.to_dense() + 1.0)),
        "invalid", "Lagrangian Hessian", 0),
    # J is evaluated at x0, by the Lipschitz probe, then at x1
    "J(x1) shape": ("eval_jacobian", 3, _drop_row, "invalid", "J(x)", 1),
    # a gradient of shape (1,) at each of its four calls of iteration 0:
    # numpy would broadcast it against one of shape (n,)
    "true gradient shape": ("eval_grad_f", 1, _first, "invalid",
                            "true gradient", 0),
    "oracle gradient shape": ("eval_grad_f", 2, _first, "invalid",
                              "sampled gradient", 0),
    "probe gradient at x' shape": ("eval_grad_f", 3, _first, "invalid",
                                   "probe gradient", 0),
    "probe gradient at x shape": ("eval_grad_f", 4, _first, "invalid",
                                  "probe gradient", 0),
    "probe Jacobian shape": ("eval_jacobian", 2, _drop_row, "invalid",
                             "probe Jacobian", 0),
}


@pytest.mark.parametrize("case", list(_INJECTIONS))
def test_every_injected_fault_ends_in_a_recorded_status(monkeypatch, case):
    name, call, spoil, status, quantity, k = _INJECTIONS[case]
    config = load_config("qp_gaussian")
    kind, eps_n = oracle_settings(config)
    problem = build_problem(config)
    # MINRES steps taken, and how many of them before the fault
    steps, at_fault = [], []
    step = MinresState.step

    def counted_step(self):
        steps.append(1)
        return step(self)

    def spoil_and_mark(value):
        at_fault.append(len(steps))
        return spoil(value)

    monkeypatch.setattr(MinresState, "step", counted_step)
    if name is None:
        _lose_to_cauchy_point(monkeypatch)
    else:
        problem = _poisoned(problem, name, call, spoil_and_mark)

    record = run_single(problem, build_solver_config(config, seed=0), 0,
                        oracle_kind=kind, eps_n=eps_n)
    assert record.status == status
    assert record.info["reason"]
    assert record.outer_iters == len(record.rows)
    # the steps of the iteration that raised count too: c(x2) ends the
    # run after 19 steps, 6 of them in the one recorded row
    assert record.total_minres_iters == len(steps)
    if status in ("nonfinite", "invalid"):
        assert record.info["diagnostics"] == {"quantity": quantity, "k": k}
        # no MINRES step after the bad value was evaluated
        assert at_fault == [len(steps)]
    if k == 0:
        assert record.outer_iters == 0
        np.testing.assert_array_equal(record.x_final, problem.x0)


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
    j = problem.eval_jacobian(pair.exact.x_final)
    feas, stat, _ = true_kkt_errors(problem, pair.exact.x_final,
                                    problem.eval_c(pair.exact.x_final), j)
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
    j = problem.eval_jacobian(x)
    feas, stat, _ = true_kkt_errors(problem, x, problem.eval_c(x), j)
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
