"""Stochastic inexact SQP for equality-constrained optimization.

Modules:

* ``kernels``   CSR matrix-vector kernels, a truncated tangential solve
                (MINRES steps and the termination tests) and a CG solve
                (compiled core, numpy fallback)
* ``sparse``    CSR matrices and the symmetric saddle (KKT) operator
* ``krylov``    CG on the normal equations, least-squares multipliers,
                streaming MINRES
* ``problems``  problem abstraction, gradient oracles, Lipschitz probes
* ``library``   synthetic QPs and the two PDE control problems
* ``engine``    one SQP iteration: steps, Hessian ladder, parameter
                updates, checks of each step's guarantees
* ``harness``   runs, budget-matched comparisons, aggregation, output
* ``config``    INI profiles and overrides
* ``cli``       command-line verbs (run, compare, sweep, validate)
"""

from .engine import (ConfigError, EngineError, IterationFailure, SolverConfig,
                     StationaryPointDetected, init_state, sqp_iterate)
from .harness import (RunRecord, aggregate, emit_results,
                      run_budget_matched_pair, run_single)
from .library import (ControlProblemSpec, SyntheticQpSpec,
                      build_neumann_control, build_poisson_control,
                      build_synthetic_qp)
from .problems import GradientOracle, Problem, validate_problem
from .sparse import KktOperator, SparseMatrix

__version__ = "0.1.0"

__all__ = ["SparseMatrix", "KktOperator", "Problem", "GradientOracle",
           "SolverConfig", "ConfigError", "EngineError", "IterationFailure",
           "StationaryPointDetected", "init_state", "sqp_iterate",
           "RunRecord", "run_single", "run_budget_matched_pair", "aggregate",
           "emit_results", "SyntheticQpSpec", "ControlProblemSpec",
           "build_synthetic_qp", "build_poisson_control",
           "build_neumann_control", "validate_problem", "__version__"]
