"""Acceptance gates for the toolkit, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantities
(visible even under pytest's capture) and then asserts.  The thresholds
are fixed; a red line here means the product does not meet its contract,
not that the test needs loosening.
"""

import math
import time

import numpy as np

import sisqo.engine
import sisqo.krylov
from oracles import (candidate_tests, dense_kkt_solve, dense_normal_step,
                     make_sparse, merit_model_parts, model_reduction_holds,
                     random_full_rank, random_spd, residual_pair, tau_parts,
                     varphi_parts)
from sisqo.config import build_solver_config, load_config
from sisqo.engine import (MAX_RUNG, SolverConfig, compute_normal_step,
                          evaluate_varphi, ladder_matrix, model_reduction,
                          select_step_size, step_size_bounds,
                          tau_trial_and_update, update_duals, xi_update)
from sisqo.harness import run_budget_matched_pair, run_single
from sisqo.krylov import (MinresState, cg_normal_solve,
                          least_squares_multipliers)
from sisqo.library import (ControlProblemSpec, SyntheticQpSpec,
                           build_neumann_control, build_poisson_control,
                           build_synthetic_qp, reference_function_value)
from sisqo.problems import GradientOracle, estimate_lipschitz, substream
from sisqo.sparse import KktOperator, SparseMatrix

EPS_S = float(np.sqrt(15.0))


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}"
              f" {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _control_spec(mesh, eps_n):
    return ControlProblemSpec(mesh_size=mesh, n_terms=3, regularization=1e-5,
                              eps_n=eps_n, eps_s=EPS_S)


def test_01_subproblem_solvers_match_dense_references(capsys, monkeypatch):
    # 50 random well-conditioned KKT systems, n <= 40, m <= 20; the
    # normal-step CG runs to a tight tolerance
    monkeypatch.setattr(sisqo.krylov, "CG_REL_TOL", 1e-12)
    monkeypatch.setattr(sisqo.krylov, "CG_ABS_FLOOR", 1e-14)
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst_kkt, worst_normal = 0.0, 0.0
    for trial in range(50):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(0, min(n, 20) + 1))
        h_dense = random_spd(rng, n)
        j_dense = random_full_rank(rng, m, n)
        j = make_sparse(np.atleast_2d(j_dense) if m else
                        j_dense.reshape(0, n))
        op = KktOperator(make_sparse(h_dense), j)
        rhs_top = rng.standard_normal(n)
        rhs_bot = rng.standard_normal(m)
        state = MinresState(op, (rhs_top, rhs_bot))
        tol = 1e-12 * max(1.0, state.resid_norm)
        for _ in range(6 * (n + m)):
            if state.resid_norm <= tol or state.breakdown or state.stalled:
                break
            state.step()
        u_ref, delta_ref = dense_kkt_solve(h_dense, j_dense, rhs_top, rhs_bot)
        z_ref = np.concatenate([u_ref, delta_ref])
        worst_kkt = max(worst_kkt, float(
            np.linalg.norm(state.z - z_ref) / max(1.0, np.linalg.norm(z_ref))))

        c = rng.standard_normal(m)
        res = cg_normal_solve(j, c)
        v_ref = dense_normal_step(j_dense, c)
        worst_normal = max(worst_normal, float(
            np.linalg.norm(res.v - v_ref) / max(1.0, np.linalg.norm(v_ref))))
    elapsed = time.perf_counter() - t0
    ok = worst_kkt <= 1e-8 and worst_normal <= 1e-8 and elapsed < 10.0
    _report(capsys, 1, "subproblem solvers match dense references", ok,
            f"50 systems, worst KKT err {worst_kkt:.2e},"
            f" worst normal-step err {worst_normal:.2e}, {elapsed:.1f}s")


def test_02_invariant_battery(capsys):
    # >= 200 recorded iterations over QPs and both control families,
    # every step's internal invariant recheck clean
    t0 = time.perf_counter()
    total, violations, statuses = 0, [], set()
    qp_base = load_config("qp_gaussian")
    for (n, m) in ((20, 8), (30, 12), (40, 15)):
        for eps_n in (0.0, 1e-2):
            for seed in (0, 1, 2):
                problem = build_synthetic_qp(
                    SyntheticQpSpec(n=n, m=m, seed=seed))
                cfg = build_solver_config(qp_base, seed=seed,
                                          max_outer_iterations=40)
                rec = run_single(problem, cfg, seed, oracle_kind="gaussian",
                                 eps_n=eps_n)
                total += rec.outer_iters
                statuses.add(rec.status)
                violations.extend(rec.info.get("violations", []))
    ctrl_base = load_config("control_finite_sum")
    for build in (build_poisson_control, build_neumann_control):
        for eps_n in (0.0, 1e-2):
            for seed in (0, 1, 2):
                problem = build(_control_spec(8, eps_n))
                cfg = build_solver_config(ctrl_base, seed=seed,
                                          max_outer_iterations=40)
                rec = run_single(problem, cfg, seed,
                                 oracle_kind="finite_sum", eps_n=eps_n)
                total += rec.outer_iters
                statuses.add(rec.status)
                violations.extend(rec.info.get("violations", []))
    elapsed = time.perf_counter() - t0
    ok = (total >= 200 and not violations and "failed" not in statuses
          and elapsed < 60.0)
    _report(capsys, 2, "per-iteration invariant battery", ok,
            f"{total} iterations, {len(violations)} violations,"
            f" statuses {sorted(statuses)}, {elapsed:.1f}s")


def test_03_exact_oracle_kkt_convergence(capsys):
    # 20 synthetic QPs, exact oracle, true Lipschitz constants
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    worst_feas = worst_stat = worst_x = worst_y = 0.0
    max_outer, failed = 0, []
    for trial in range(20):
        n = int(rng.integers(10, 61))
        m = int(rng.integers(2, min(n // 2, 30) + 1))
        problem = build_synthetic_qp(SyntheticQpSpec(n=n, m=m, seed=trial))
        cfg = SolverConfig(lipschitz_mode="fixed", feasibility_tol=1e-8,
                           stationarity_tol=1e-6, max_outer_iterations=200)
        rec = run_single(problem, cfg, trial, oracle_kind="exact")
        if rec.status != "converged":
            failed.append((trial, rec.status))
            continue
        x_star, y_star = problem.known_solution
        worst_feas = max(worst_feas, rec.feasibility_error)
        worst_stat = max(worst_stat, rec.stationarity_error)
        worst_x = max(worst_x, float(
            np.linalg.norm(rec.x_final - x_star)
            / max(1.0, np.linalg.norm(x_star))))
        worst_y = max(worst_y, float(
            np.linalg.norm(rec.y_ls_final - y_star)
            / max(1.0, np.linalg.norm(y_star))))
        max_outer = max(max_outer, rec.outer_iters)
    elapsed = time.perf_counter() - t0
    ok = (not failed and worst_feas <= 1e-8 and worst_stat <= 1e-6
          and worst_x <= 1e-6 and worst_y <= 1e-5 and max_outer <= 200
          and elapsed < 60.0)
    _report(capsys, 3, "exact-oracle convergence to planted solutions", ok,
            f"20 QPs, worst feas {worst_feas:.1e}, stat {worst_stat:.1e},"
            f" |x-x*| {worst_x:.1e}, |y-y*| {worst_y:.1e},"
            f" max outer {max_outer}, failures {failed}, {elapsed:.1f}s")


def test_04_noise_scaling_on_poisson_control(capsys):
    # mesh 16, 10 seeds per noise level, shipped control profile;
    # stationarity must grow with the noise and stay within two orders
    # of magnitude of the recorded reference column
    reference = {1e-4: 1.76e-5, 1e-2: 2.09e-3, 1e-1: 5.15e-3}
    config = load_config("control_finite_sum")
    t0 = time.perf_counter()
    mean_feas, mean_stat = {}, {}
    for eps_n in (1e-4, 1e-2, 1e-1):
        problem = build_poisson_control(_control_spec(16, eps_n))
        feas, stat = [], []
        for seed in range(10):
            cfg = build_solver_config(config, seed=seed)
            rec = run_single(problem, cfg, seed, oracle_kind="finite_sum",
                             eps_n=eps_n)
            feas.append(rec.feasibility_error)
            stat.append(rec.stationarity_error)
        mean_feas[eps_n] = float(np.mean(feas))
        mean_stat[eps_n] = float(np.mean(stat))
    elapsed = time.perf_counter() - t0
    stats = [mean_stat[e] for e in (1e-4, 1e-2, 1e-1)]
    ratios = {e: mean_stat[e] / reference[e] for e in reference}
    ok = (all(v <= 1e-6 for v in mean_feas.values())
          and stats == sorted(stats)
          and all(1e-2 <= r <= 1e2 for r in ratios.values())
          and elapsed < 900.0)
    _report(capsys, 4, "noise scaling on the interior control problem", ok,
            f"mean feas {[f'{mean_feas[e]:.1e}' for e in sorted(mean_feas)]},"
            f" mean stat {[f'{mean_stat[e]:.1e}' for e in sorted(mean_stat)]},"
            f" reference ratios {[f'{ratios[e]:.3f}' for e in sorted(ratios)]},"
            f" {elapsed:.0f}s")


def test_05_budget_matched_dominance(capsys):
    # truncated vs near-exact under equal MINRES budgets: the truncated
    # variant must win on feasibility and stay within 2x on stationarity
    config = load_config("control_finite_sum")
    t0 = time.perf_counter()
    cells = []
    for build in (build_poisson_control, build_neumann_control):
        for eps_n in (1e-2, 1e-1):
            problem = build(_control_spec(16, eps_n))
            fi, fe, si, se = [], [], [], []
            for seed in range(10):
                cfg_i = build_solver_config(config, seed=seed)
                cfg_e = build_solver_config(config, seed=seed, kappa=1e-7)
                pair = run_budget_matched_pair(
                    problem, cfg_i, cfg_e, seed, oracle_kind="finite_sum",
                    eps_n=eps_n)
                if pair.aborted:
                    cells.append((problem.name, eps_n, "aborted", np.inf))
                    break
                fi.append(pair.inexact.feasibility_error)
                si.append(pair.inexact.stationarity_error)
                fe.append(pair.exact.feasibility_error)
                se.append(pair.exact.stationarity_error)
            else:
                feas_win = float(np.mean(fi)) < float(np.mean(fe))
                stat_ratio = float(np.mean(si)) / float(np.mean(se))
                cells.append((problem.name, eps_n,
                              "ok" if feas_win and stat_ratio <= 2.0
                              else "lost", stat_ratio))
    elapsed = time.perf_counter() - t0
    ok = all(flag == "ok" for _, _, flag, _ in cells) and elapsed < 1800.0
    detail = ", ".join(f"{name} eps={eps:g} {flag} (stat x{ratio:.2f})"
                       for name, eps, flag, ratio in cells)
    _report(capsys, 5, "budget-matched dominance on both controls", ok,
            f"{detail}, {elapsed:.0f}s")


def test_06_oracle_statistics(capsys):
    t0 = time.perf_counter()
    problem = build_synthetic_qp(SyntheticQpSpec(n=100, m=40, seed=0))
    oracle = GradientOracle("gaussian", rng=substream(0, "oracle"),
                            eps_n=1e-2)
    x = problem.x0
    true_grad = problem.eval_grad_f(x)
    samples = 100_000
    acc = np.zeros(problem.n)
    second = 0.0
    for _ in range(samples):
        g = oracle.sample(problem, x)
        acc += g
        dev = g - true_grad
        second += float(dev @ dev)
    mean_err = float(np.linalg.norm(acc / samples - true_grad))
    second /= samples
    bound = 4.0 * math.sqrt(oracle.variance_bound(problem) / samples)

    control = build_poisson_control(_control_spec(4, 1e-2))
    xs = control.x0 + 0.1
    exhaustive = np.mean([control.eval_term_grad(xs, i, j)
                          for i in range(1, 4) for j in range(1, 4)], axis=0)
    term_dev = float(np.abs(exhaustive - control.eval_grad_f(xs)).max())
    elapsed = time.perf_counter() - t0
    ok = (mean_err <= bound and 0.5e-4 <= second <= 1.5e-4
          and term_dev <= 1e-12 and elapsed < 10.0)
    _report(capsys, 6, "gradient oracle statistics", ok,
            f"mean err {mean_err:.2e} (bound {bound:.2e}), second moment"
            f" {second:.2e}, exhaustive finite-sum dev {term_dev:.1e},"
            f" {elapsed:.1f}s")


def test_07_formula_examples(capsys, monkeypatch):
    t0 = time.perf_counter()
    cfg = SolverConfig()
    checks = []

    def check(label, ok):
        checks.append((label, bool(ok)))

    # model reduction: zero step, full correction, hand-evaluated case
    j1 = SparseMatrix.from_dense(np.array([[1.0, 0.0]]))
    check("model reduction zero step",
          model_reduction(0.1, *merit_model_parts(
              np.array([1.0, 0.0]), np.array([1.0]), j1, np.zeros(2))) == 0.0)
    check("model reduction full correction",
          abs(model_reduction(0.1, *merit_model_parts(
              np.zeros(2), np.array([1.0]), j1, np.array([-1.0, 0.0])))
              - 1.0) < 1e-15)
    check("model reduction hand case",
          abs(model_reduction(0.1, *merit_model_parts(
              np.array([1.0, 0.0]), np.array([1.0]), j1,
              np.array([-1.0, 0.0]))) - 1.1) < 1e-15)

    # normal step: zero constraint, identity Jacobian, Cauchy certification
    ns = compute_normal_step(np.zeros(2), SparseMatrix.identity(2))
    check("normal step zero rhs", np.all(ns.v == 0.0) and ns.iterations == 0)
    ns = compute_normal_step(np.array([3.0, 4.0]), SparseMatrix.identity(2))
    check("normal step identity Jacobian",
          np.allclose(ns.v, [-3.0, -4.0], atol=1e-9)
          and abs(ns.cauchy_lhs - 5.0) < 1e-9)
    rng = np.random.default_rng(7)
    j38 = make_sparse(random_full_rank(rng, 3, 8))
    c38 = rng.standard_normal(3)
    with monkeypatch.context() as patch:
        patch.setattr(sisqo.engine, "EPS_C", 1.0)
        ns = compute_normal_step(c38, j38)
    check("Cauchy certification at eps_c=1", ns.cauchy_lhs >= ns.cauchy_rhs
          - 1e-9 and ns.cauchy_rhs > 0.0)

    # model reduction condition: trivial zero case, ascent rejection
    h2 = SparseMatrix.identity(2)
    check("model reduction condition zero case",
          model_reduction_holds(0.1, np.array([1.0, 0.0]), np.zeros(1), j1,
                                np.zeros(2), np.zeros(2), h2, cfg))
    ascent = np.array([1.0, 0.0])
    check("model reduction condition rejects ascent",
          not model_reduction_holds(5.0, ascent, np.zeros(1), j1,
                                    np.zeros(2), ascent, h2, cfg))

    # termination tests: residual cap, null-step rejection, retention
    n6, m2 = 6, 2
    j62 = make_sparse(random_full_rank(rng, m2, n6))
    h6 = make_sparse(random_spd(rng, n6))
    g6 = rng.standard_normal(n6)
    c6 = rng.standard_normal(m2)
    v6 = dense_normal_step(np.array(j62.to_dense()), c6)
    big_rho = 50.0 * np.ones(n6)
    check("TT1 rejects large dual residual",
          not candidate_tests(g6, c6, j62, v6, np.zeros(m2), h6,
                              np.zeros(n6), np.zeros(m2), big_rho,
                              np.zeros(m2), cfg, tau_prev=0.1,
                              beta=1e-3).tt1)
    check("TT1 rejects null step at feasible point",
          not candidate_tests(g6, np.zeros(m2), j62, np.zeros(n6),
                              np.zeros(m2), h6, np.zeros(n6),
                              np.zeros(m2), g6.copy(), np.zeros(m2), cfg,
                              tau_prev=0.1, beta=1.0).tt1)
    check("TT2 needs infeasibility",
          not candidate_tests(g6, np.zeros(m2), j62, np.zeros(n6),
                              np.zeros(m2), h6, np.zeros(n6),
                              np.zeros(m2), np.zeros(n6), np.zeros(m2), cfg,
                              beta=1.0).tt2)
    check("TT2 full retention at r=0",
          candidate_tests(g6, c6, j62, v6, np.zeros(m2), h6, np.zeros(n6),
                          np.zeros(m2), np.zeros(n6), np.zeros(m2), cfg,
                          beta=1.0).tt2)

    # tau update branches
    g = np.array([-1.0])
    d = np.array([1.0])
    u0 = np.zeros(1)
    h1 = SparseMatrix.diagonal(np.full(1, 0.0))
    c1 = np.array([1.0])
    j11 = SparseMatrix.identity(1)
    v1, r1 = np.array([-0.5]), np.zeros(1)
    with monkeypatch.context() as patch:
        patch.setattr(sisqo.engine, "EPS_R", 1.0)
        trial, new = tau_trial_and_update(
            0.1, *tau_parts(g, d, u0, h1, c1, j11, v1, r1))
        check("tau infinite trial keeps tau", trial == np.inf and new == 0.1)
        gd = np.array([9.0])
        trial, new = tau_trial_and_update(
            0.1, *tau_parts(gd, d, u0, h1, c1, j11, v1, r1))
        check("tau takes small trial", abs(trial - 0.05) < 1e-12
              and abs(new - 0.05) < 1e-12)
        gd = np.array([0.45 / 0.0995])
        trial, new = tau_trial_and_update(
            0.1, *tau_parts(gd, d, u0, h1, c1, j11, v1, r1))
        check("tau geometric decrease branch", abs(trial - 0.0995) < 1e-12
              and abs(new - 0.099) < 1e-12)

    # xi update branches
    d1 = np.array([1.0])
    d1_sq = float(np.dot(d1, d1))
    trial, new = xi_update(1.0, 0.5, 1.0, d1_sq)  # trial 2.0
    check("xi keeps when trial above", trial == 2.0 and new == 1.0)
    trial, new = xi_update(1.0, 2.0, 1.0, d1_sq)  # trial 0.5
    check("xi takes small trial", trial == 0.5 and new == 0.5)
    trial, new = xi_update(1.0, 1.0, 0.995, d1_sq)
    check("xi geometric decrease branch", abs(trial - 0.995) < 1e-12
          and abs(new - 0.99) < 1e-12)

    # varphi sign structure and the step-size machinery
    c3 = rng.standard_normal(3)
    j35 = make_sparse(rng.standard_normal((3, 5)))
    d5 = rng.standard_normal(5)
    parts35 = varphi_parts(c3, j35, d5)
    check("varphi zero at origin",
          evaluate_varphi(0.0, 1.0, 0.2, 0.7, 2.0, 1.0, *parts35,
                          cfg) == 0.0)
    check("varphi positive for large steps",
          evaluate_varphi(50.0, 1.0, 0.2, 0.7, 2.0, 1.0, *parts35,
                          cfg) > 0.0)
    alpha_min, alpha_suff = step_size_bounds(0.2, 0.3, 1.0, 0.7,
                                             float(np.dot(d5, d5)), 2.0,
                                             1.0, SolverConfig(eta=0.5))
    check("varphi nonpositive at sufficient step",
          evaluate_varphi(alpha_suff, 1.0, 0.2, 0.7, 2.0, 1.0, *parts35,
                          SolverConfig(eta=0.5)) <= 1e-10)

    alpha_min, alpha_suff = step_size_bounds(
        0.1, 0.2, 1.0, 0.05, d1_sq, 1.0, 0.0, SolverConfig(eta=0.5))
    check("step bounds hand case", abs(alpha_min - 0.2) < 1e-12
          and abs(alpha_suff - 0.5) < 1e-12)
    check("step bounds clamp at one",
          step_size_bounds(0.1, 0.2, 1.0, 1e9, d1_sq, 1.0, 0.0,
                           SolverConfig(eta=0.5))[1] == 1.0)

    # alpha three-case selection
    calls = []

    def varphi(a):
        calls.append(a)
        return -1.0 if a <= 0.40 else 1.0

    with monkeypatch.context() as patch:
        patch.setattr(sisqo.engine, "THETA", 10.0)
        check("alpha full step",
              select_step_size(0.5, 1.0, 1.0, lambda a: 0.0) == 1.0)
        patch.setattr(sisqo.engine, "THETA", 0.05)
        check("alpha cap inside window",
              select_step_size(0.2, 0.3, 1.0, lambda a: 0.0) == 0.25)
        patch.setattr(sisqo.engine, "THETA", 10.0)
        alpha = select_step_size(0.01, 0.3, 1.0, varphi)
    check("alpha expansion stops at sign change",
          abs(alpha - 0.3 * 1.1 ** 3) < 1e-12 and max(calls) > 0.40)

    # dual update behavior
    y, delta = np.array([1.0, -2.0]), np.array([0.5, 0.5])
    check("dual update default additive",
          np.array_equal(update_duals(y, delta), y + delta))
    check("dual update zero delta",
          np.array_equal(update_duals(y, np.zeros(2)), y))

    # residual pair conventions
    rho, r = residual_pair(h6, j62, g6, v6, np.zeros(m2), np.zeros(n6),
                           np.zeros(m2))
    check("residual pair zero candidate",
          np.allclose(rho, g6 + h6.apply(v6), atol=1e-14)
          and np.all(r == 0.0))

    # least-squares multipliers
    jt = make_sparse(random_full_rank(rng, 2, 6))
    y_hat = rng.standard_normal(2)
    g_from = -jt.apply_transpose(y_hat)
    null_g = rng.standard_normal(6)
    null_g -= jt.apply_transpose(np.linalg.solve(
        np.array(jt.to_dense()) @ np.array(jt.to_dense()).T,
        np.array(jt.to_dense()) @ null_g))
    with monkeypatch.context() as patch:
        patch.setattr(sisqo.krylov, "MULTIPLIER_REL_TOL", 1e-12)
        y_rec = least_squares_multipliers(jt, g_from)
        y_null = least_squares_multipliers(jt, null_g)
    check("multiplier recovery", np.allclose(y_rec, y_hat, atol=1e-8))
    check("multipliers vanish off row space",
          float(np.linalg.norm(y_null)) <= 1e-8)

    # streaming MINRES basics
    op = KktOperator(SparseMatrix.identity(2), SparseMatrix((0, 2), [0],
                                                            [], []))
    state = MinresState(op, (np.array([3.0, -1.0]), np.zeros(0)))
    state.step()
    state.step()
    check("MINRES identity solve",
          np.allclose(state.u, [-3.0, 1.0], atol=1e-12)
          and state.resid_norm <= 1e-12)
    z_before = state.z.copy()
    state.step()
    check("stepping a converged state flags breakdown",
          state.breakdown and np.array_equal(state.z, z_before))

    # Hessian ladder
    problem = build_synthetic_qp(SyntheticQpSpec(n=5, m=2, seed=0))
    x0, y0 = problem.x0, np.zeros(2)
    exact_h = problem.eval_lagrangian_hessian(x0, y0)
    check("ladder rung zero is the Hessian",
          np.allclose(ladder_matrix(exact_h, 0).to_dense(),
                      exact_h.to_dense()))
    check("ladder past max rung is identity",
          np.allclose(ladder_matrix(exact_h, MAX_RUNG + 1).to_dense(),
                      np.eye(5)))

    # oracles and the Lipschitz estimate
    exact = GradientOracle("gaussian", rng=substream(0, "oracle"), eps_n=0.0)
    check("zero-noise oracle is exact",
          np.array_equal(exact.sample(problem, x0),
                         problem.eval_grad_f(x0)))
    single = build_poisson_control(ControlProblemSpec(
        mesh_size=3, n_terms=1, regularization=1e-5, eps_n=0.0, eps_s=EPS_S))
    check("single-term finite sum collapses",
          np.allclose(single.eval_term_grad(single.x0, 1, 1),
                      single.eval_grad_f(single.x0), atol=1e-15))
    step5 = rng.standard_normal(5)
    l_est = estimate_lipschitz(step5, float(step5 @ step5),
                               problem.eval_grad_f(x0 + step5),
                               problem.eval_grad_f(x0))
    q_norm = float(np.linalg.eigvalsh(
        np.array(exact_h.to_dense())).max())
    check("directional Lipschitz estimate bounded by top curvature",
          l_est <= q_norm * (1.0 + 1e-9))

    # reference function evaluations
    check("reference center term",
          abs(reference_function_value(2, 2, 3, 0.5, EPS_S, 0.3, 0.7)
              - (math.sin(4 * 0.3) + math.cos(3 * 0.7))) < 1e-15)
    check("reference value one at origin",
          reference_function_value(1, 3, 3, 1e-1, EPS_S, 0.0, 0.0) == 1.0)
    spread = (1e-1 / EPS_S)
    check("reference offcenter numeric",
          abs(reference_function_value(1, 3, 3, 1e-1, EPS_S, 1.0, 1.0)
              - (math.sin(4.0 - spread) + math.cos(3.0 + spread))) < 1e-15)

    # planted QP solution residuals
    x_star, y_star = problem.known_solution
    j_star = problem.eval_jacobian(x_star)
    grad_res = problem.eval_grad_f(x_star) + j_star.apply_transpose(y_star)
    check("planted KKT residuals",
          float(np.abs(grad_res).max()) <= 1e-12
          and float(np.abs(problem.eval_c(x_star)).max()) <= 1e-12)

    elapsed = time.perf_counter() - t0
    failed = [label for label, ok in checks if not ok]
    ok = not failed and elapsed < 5.0
    _report(capsys, 7, "formula and example cross-checks", ok,
            f"{len(checks)} checks, failed {failed or 'none'},"
            f" {elapsed:.1f}s")
