"""Command-line interface.

Verbs:

* ``run``       single runs across the configured seeds
* ``compare``   budget-matched truncated / near-exact pairs
* ``sweep``     compare across the configured noise levels
* ``validate``  derivative and configuration checks, no solve

Exit codes: 0 success, 1 at least one run failed, 2 bad configuration
or usage.
"""

import argparse
import logging
import sys

from .config import (apply_overrides, available_profiles, build_problem,
                     build_solver_config, harness_settings, load_config,
                     oracle_settings)
from .engine import ConfigError
from .harness import (FAILED_STATUSES, aggregate, emit_results,
                      run_budget_matched_pair, run_single)
from .problems import validate_problem

logger = logging.getLogger(__name__)

_RUN_FMT = ("{problem} strategy={strategy} eps_n={eps_n:g} seed={seed}"
            " status={status} outer={outer} minres={minres}"
            " feas={feas:.3e} stat={stat:.3e}")


def _add_common(sub):
    sub.add_argument("-c", "--config", required=True,
                     help="INI file path or bundled profile name"
                          f" ({', '.join(available_profiles())})")
    sub.add_argument("-o", "--output", default=None,
                     help="results path (.csv or .json); default from config")
    sub.add_argument("--seed", type=int, default=None,
                     help="single seed overriding the configured list")
    sub.add_argument("-v", "--verbose", action="store_true")
    sub.add_argument("overrides", nargs="*",
                     help="section.key=value settings applied on top")


def _parser():
    parser = argparse.ArgumentParser(
        prog="sisqo",
        description="Stochastic inexact SQP for equality-constrained"
                    " problems with noisy gradients")
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (("run", "run the method across seeds"),
                       ("compare", "budget-matched comparison pairs"),
                       ("sweep", "comparison pairs across noise levels"),
                       ("validate", "check derivatives and configuration")):
        _add_common(subs.add_parser(verb, help=text))
    return parser


def _print_run(record):
    print(_RUN_FMT.format(
        problem=record.problem, strategy=record.strategy,
        eps_n=record.eps_n, seed=record.seed, status=record.status,
        outer=record.outer_iters, minres=record.total_minres_iters,
        feas=record.feasibility_error, stat=record.stationarity_error))


def _print_aggregate(rows):
    if not rows:
        return
    print(f"\n{'strategy':<14} {'eps_n':>9} {'runs':>5} {'mean feas':>12}"
          f" {'mean stat':>12} {'mean minres':>12} {'mean outer':>11}")
    for row in rows:
        if "mean_feas" not in row:
            print(f"{row['strategy']:<14} {row['eps_n']:>9.3g}"
                  f" {row['count']:>5}  (all failed)")
            continue
        print(f"{row['strategy']:<14} {row['eps_n']:>9.3g} {row['count']:>5}"
              f" {row['mean_feas']:>12.3e} {row['mean_stat']:>12.3e}"
              f" {row['mean_minres']:>12.1f} {row['mean_outer']:>11.1f}")


def _seeds(args, settings):
    return [args.seed] if args.seed is not None else settings["seeds"]


def _finish(records, results, args, settings):
    """Print the aggregate of the run records, write the results (runs
    or pairs) and return the exit status: 1 if any run failed."""
    _print_aggregate(aggregate(records))
    written = emit_results(results, args.output or settings["output"])
    print(f"\nresults written to {written}")
    return 1 if any(r.status in FAILED_STATUSES for r in records) else 0


def _pairs_for(config, eps_n, seeds):
    """Budget-matched pairs at one noise level; the problem is rebuilt
    because the control families embed eps_n in their reference data."""
    level = apply_overrides({k: dict(v) for k, v in config.items()},
                            [f"oracle.eps_n={eps_n!r}"])
    problem = build_problem(level)
    kind, eps = oracle_settings(level)
    kappa_exact = harness_settings(level)["kappa_exact"]
    out = []
    for seed in seeds:
        cfg_i = build_solver_config(level, seed=seed)
        cfg_e = build_solver_config(level, seed=seed, kappa=kappa_exact)
        pair = run_budget_matched_pair(problem, cfg_i, cfg_e, seed,
                                       oracle_kind=kind, eps_n=eps)
        for rec in pair.runs():
            _print_run(rec)
        if pair.exact is not None:
            print(f"  budget={pair.budget} overshoot={pair.overshoot}"
                  f" selected={pair.exact.info['selected_iterate']['k']}")
        out.append(pair)
    return problem, out


def _cmd_run(args, config):
    problem = build_problem(config)
    kind, eps_n = oracle_settings(config)
    settings = harness_settings(config)
    records = []
    for seed in _seeds(args, settings):
        cfg = build_solver_config(config, seed=seed)
        record = run_single(problem, cfg, seed, oracle_kind=kind,
                            eps_n=eps_n, strategy="sisqo")
        _print_run(record)
        records.append(record)
    return _finish(records, records, args, settings)


def _cmd_compare(args, config):
    settings = harness_settings(config)
    _, eps_n = oracle_settings(config)
    problem, pairs = _pairs_for(config, eps_n, _seeds(args, settings))
    records = [rec for pair in pairs for rec in pair.runs()]
    return _finish(records, pairs, args, settings)


def _cmd_sweep(args, config):
    settings = harness_settings(config)
    all_pairs = []
    records = []
    for eps_n in settings["eps_n_list"]:
        print(f"\n== eps_n = {eps_n:g} ==")
        _, pairs = _pairs_for(config, eps_n, _seeds(args, settings))
        all_pairs.extend(pairs)
        records.extend(rec for pair in pairs for rec in pair.runs())
    return _finish(records, all_pairs, args, settings)


_VALIDATE_TOL = {"gradient": 1e-5, "jacobian": 1e-5, "hessian": 1e-4}


def _cmd_validate(args, config):
    problem = build_problem(config)
    cfg = build_solver_config(config)
    kind, eps_n = oracle_settings(config)
    harness_settings(config)
    print(f"problem {problem.name}: n={problem.n} m={problem.m}"
          f" oracle={kind} eps_n={eps_n:g}")
    print(f"solver config ok (kappa={cfg.kappa:g},"
          f" lipschitz_mode={cfg.lipschitz_mode})")
    errors = validate_problem(problem, seed=cfg.seed)
    status = 0
    for name, err in errors.items():
        tol = _VALIDATE_TOL[name]
        flag = "ok" if err <= tol else "FAIL"
        if err > tol:
            status = 1
        print(f"  {name:<9} max relative error {err:.3e}"
              f" (tolerance {tol:g}) {flag}")
    return status


def main(argv=None):
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = apply_overrides(load_config(args.config), args.overrides)
        handler = {"run": _cmd_run, "compare": _cmd_compare,
                   "sweep": _cmd_sweep, "validate": _cmd_validate}[args.verb]
        return handler(args, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
