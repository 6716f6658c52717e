"""Single-iteration core of the stochastic inexact SQP method.

Each iteration decomposes the step into a normal component (constraint
reduction, matrix-free CG on the normal equations) and a tangential
component (an indefinite KKT solve by MINRES, truncated as soon as one
of two termination tests accepts the iterate).  The merit parameter
tau, the ratio parameter xi, and the step size alpha then follow from
closed-form updates.

Each formula of the method has one implementation, the one
``sqp_iterate`` runs.  Where the iteration already holds cached parts
(``||c||``, ``Jv``, ``||c + Jd||`` formed as ``||(c + Jv) + r||``), the
formula takes those parts rather than the raw arrays, so a test of the
formula exercises the arithmetic of the solver itself.

Every condition that ends a run is an ``EngineError`` with a
class-level ``status`` and a ``diagnostics`` dict: a stationary iterate,
a step no Hessian rung accepts, a broken invariant, and a NaN or inf in
f, c, J, the true gradient, the Lagrangian Hessian, a sampled gradient,
the gradient at x + d or the Lipschitz estimate, each checked once where
it is evaluated.  The step-size expansion has a trial bound computed
before its loop.

Each update rule enforces its guarantees where it computes them, or
raises.  Every step checks the three that no rule enforces, recording a
failure in ``StepResult.violations``: model reduction at the updated
tau, varphi(alpha) <= 0, and the merit decrease bound, which holds only
for true Lipschitz constants and an exact gradient.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import EPS_R, SIGMA_C, SIGMA_U
from .krylov import (MinresState, cg_normal_solve, least_squares_residual,
                     norm_pair)
# not called here; the name stays bound because perfbench/tracing.py
# wraps it in this module
from .krylov import least_squares_multipliers  # noqa: F401
from .problems import estimate_lipschitz
from .sparse import (KktOperator, SparseMatrix, blend_with_identity,
                     is_symmetric)

__all__ = ["SolverConfig", "IterateState", "StepResult", "NormalStepResult",
           "ConfigError", "EngineError", "IterationFailure", "InvariantBreach",
           "StationaryPointDetected", "NonFiniteValue", "InvalidValue",
           "model_reduction",
           "compute_normal_step", "tau_trial_and_update", "xi_update",
           "evaluate_varphi", "step_size_bounds", "select_step_size",
           "update_duals", "beta_for_iteration", "lipschitz_constants",
           "init_state", "sqp_iterate", "merit_value", "ladder_matrix"]

logger = logging.getLogger(__name__)

# relative slack for the checks of each step's guarantees; guards
# against flagging pure round-off at equality boundaries
REL_SLACK = 1e-9

# implementation tolerances, one value for every problem and profile:
# the MINRES residual cap never drops below MINRES_ABS_FLOOR, and one
# rung runs at most MINRES_MAX_ITER_SCALE * (n + m) steps
MINRES_ABS_FLOOR = 1e-12
MINRES_MAX_ITER_SCALE = 2.0
# ||c||_inf and the least-squares residual below which the iterate is
# stationary for the sampled gradient
STATIONARY_TOL = 1e-12
# last blended rung of the Hessian ladder before the identity
MAX_RUNG = 10

# the method's parameters that no run varies; the ones runs set are
# SolverConfig's fields, and those of the termination tests are
# constants of sisqo.kernels, which builds them into the compiled core
XI_INIT = 1.0  # initial ratio parameter xi_0
EPS_C = 1.0  # Cauchy decrease fraction the normal step must certify
EPS_TAU = 0.01  # least fractional fall of tau, when it falls
EPS_XI = 0.01  # and of xi
THETA = 1e4  # step-size cap alpha_min + THETA beta^2


def ladder_matrix(hess, rung):
    """The Hessian ladder iota H + (1 - iota) I at ``rung``: iota = 10^-rung
    up to MAX_RUNG, then the identity, so no further modification can be
    triggered."""
    iota = 10.0 ** (-rung) if rung <= MAX_RUNG else 0.0
    return blend_with_identity(hess, iota)


def _slack(*scales):
    return REL_SLACK * max(1.0, *(abs(s) for s in scales))


class ConfigError(ValueError):
    """Invalid solver configuration."""


class EngineError(RuntimeError):
    """Base class of every condition that ends a run: ``status`` names
    the ending in the run record, ``diagnostics`` explain it."""

    status = "failed"

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class IterationFailure(EngineError):
    """No tangential iterate was accepted at any Hessian rung."""


class InvariantBreach(EngineError):
    """A quantity the convergence theory guarantees came out wrong,
    which indicates a bug rather than a hard problem."""

    status = "breach"


class StationaryPointDetected(EngineError):
    """The iterate is feasible and stationary for the sampled gradient;
    diagnostics: the certifying ``residual`` and ``resampled``."""

    status = "stationary"


class NonFiniteValue(EngineError):
    """An evaluated quantity holds NaN or inf; diagnostics: the
    ``quantity`` and the iterate ``k`` it was evaluated at."""

    status = "nonfinite"


class InvalidValue(EngineError):
    """An evaluated quantity has the wrong shape, or a Hessian is not
    symmetric; diagnostics: the ``quantity`` and the iterate ``k`` it
    was evaluated at."""

    status = "invalid"


def _checked(value, quantity, k, shape=None, symmetric=False):
    """``value`` (a float, an array or a SparseMatrix) when it has
    ``shape`` (unless None), all its entries are finite and, with
    ``symmetric``, it passes :func:`is_symmetric`; else InvalidValue or
    NonFiniteValue."""
    diagnostics = {"quantity": quantity, "k": k}
    is_sparse = isinstance(value, SparseMatrix)
    if shape is not None:
        got = value.shape if is_sparse else np.shape(value)
        if got != shape:
            raise InvalidValue(f"{quantity} at iterate {k} has shape {got},"
                               f" expected {shape}", diagnostics)
    if not np.isfinite(value.data if is_sparse else value).all():
        raise NonFiniteValue(f"non-finite {quantity} at iterate {k}",
                             diagnostics)
    if symmetric and not is_symmetric(value):
        raise InvalidValue(f"{quantity} at iterate {k} is not symmetric"
                           f" (defect {value.symmetry_defect():.3e})",
                           diagnostics)
    return value


@dataclass
class SolverConfig:
    """The settings that some run sets differently, or that the harness
    reads; the method's other parameters and the implementation
    tolerances are the module constants above.

    Defaults follow the recommended settings for the stochastic runs:
    tau starts at 0.1, the two residual contractions share kappa = 0.1,
    and L is measured at every iteration as the curvature of f along the
    step d (``directional``); ``fixed`` mode takes the L the problem
    declares.  Gamma is the problem's in both modes.
    """

    # initial merit parameter, decrease fraction and inexactness
    tau_init: float = 0.1
    eta: float = 0.1
    kappa: float = 0.1
    # step-size scale schedule
    beta_mode: str = "constant"
    beta0: float = 1.0
    # L declared by the problem, or measured along each step
    lipschitz_mode: str = "directional"
    # outer loop (consumed by the run harness)
    feasibility_tol: float = 1e-6
    stationarity_tol: float = 1e-2
    max_outer_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, val in {"eta": self.eta, "kappa": self.kappa}.items():
            if not 0.0 < val < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {val}")
        # written as "not 0.0 < val <= top" so that NaN fails them too;
        # only a tolerance may be inf, which sets no bound
        positive = {"tau_init": self.tau_init,
                    "feasibility_tol": self.feasibility_tol,
                    "stationarity_tol": self.stationarity_tol}
        for name, val in positive.items():
            top = math.inf if name.endswith("_tol") else np.finfo(float).max
            if not 0.0 < val <= top:
                raise ConfigError(f"{name} = {val} lies outside (0, {top:g}]")
        if not 0.0 < self.beta0 <= 1.0:
            raise ConfigError("beta0 must lie in (0, 1]")
        if self.beta_mode not in ("constant", "diminishing"):
            raise ConfigError(f"unknown beta_mode {self.beta_mode!r}")
        if self.lipschitz_mode not in ("fixed", "directional"):
            raise ConfigError(f"unknown lipschitz_mode {self.lipschitz_mode!r};"
                              " expected 'fixed' or 'directional'")
        if self.max_outer_iterations < 0:
            raise ConfigError("max_outer_iterations must be >= 0")


@dataclass
class IterateState:
    """Everything carried from iteration k to k+1.

    ``f``, ``c``, ``j`` and ``true_grad`` are f(x), c(x), J(x) and the
    true gradient, evaluated once per iterate.  ``prev_pair_norm`` is
    ||(g + J'y; c)|| of the previous iterate's sampled gradient, Jacobian
    and constraint values at the current duals, the backward-looking
    branch of the dual residual bound; it is inf at k = 0.
    """

    k: int
    x: np.ndarray
    y: np.ndarray
    tau: float
    xi: float
    f: float
    c: np.ndarray
    j: object
    true_grad: np.ndarray
    prev_pair_norm: float = math.inf


@dataclass
class NormalStepResult:
    """The normal step v with the constraint parts every later formula
    of the iteration reads: ``jv`` = Jv, ``c_plus_jv`` = c + Jv,
    ``c_norm`` = ||c||, and ``cauchy_lhs`` = ||c|| - ||c + Jv||, the
    normal decrease certified against ``cauchy_rhs``."""

    v: np.ndarray
    iterations: int
    cauchy_lhs: float
    cauchy_rhs: float
    jv: np.ndarray
    c_plus_jv: np.ndarray
    c_norm: float


@dataclass
class StepResult:
    """Full diagnostics for one accepted iteration."""

    k: int
    v: np.ndarray
    u: np.ndarray
    delta: np.ndarray
    accepted_test: int
    minres_iters: int
    cg_iters: int
    hessian_rung: int
    tau: float
    xi: float
    beta: float
    lip_l: float
    lip_gamma: float
    delta_l: float
    alpha_min: float
    alpha_suff: float
    alpha: float
    violations: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def merit_value(tau, f, c):
    """Exact-penalty merit tau * f(x) + ||c(x)||, from f = f(x) and
    c = c(x)."""
    return tau * f + float(np.linalg.norm(c))


# -- model reduction and the normal step ------------------------------------

def model_reduction(tau, g_dot_d, c_norm, norm_c_plus_jd):
    """Reduction of the local merit model along d,
    -tau g'd + ||c|| - ||c + Jd||, from g'd, ||c|| and ||c + Jd||."""
    return -tau * g_dot_d + c_norm - norm_c_plus_jd


def _reduces_model(tau, g_dot_d, max_term, c_norm, norm_c_plus_jd,
                   decrease_v):
    """Sufficient model reduction of d = v + u at merit parameter tau, up
    to round-off at the boundary: the reduction covers sigma_u tau
    max(u'Hu, eps_u ||u||^2) plus sigma_c times the normal decrease
    ``decrease_v``.  Termination test 1 poses it in the kernel at the
    incoming tau; this is its recheck at the updated one."""
    lhs = model_reduction(tau, g_dot_d, c_norm, norm_c_plus_jd)
    rhs = SIGMA_U * tau * max_term + SIGMA_C * decrease_v
    return lhs >= rhs - _slack(lhs, rhs)


def compute_normal_step(c, j):
    """Matrix-free CG on J'J v = -J'c, certified against the Cauchy
    decrease of the steepest-descent direction for 0.5||c + Jv||^2.

    Raises InvariantBreach if the certification fails, since the CG
    iterates should dominate the Cauchy point by construction.
    """
    res = cg_normal_solve(j, c)
    v = res.v
    c_norm = float(np.linalg.norm(c))
    jv = j.apply(v)
    c_plus_jv = c + jv
    lhs = c_norm - float(np.linalg.norm(c_plus_jv))

    jtc = j.apply_transpose(c)
    jtc_sq = float(np.dot(jtc, jtc))
    if jtc_sq == 0.0:
        rhs = 0.0
    else:
        jjtc = j.apply(jtc)
        denom = float(np.dot(jjtc, jjtc))
        alpha_c = jtc_sq / denom if denom > 0.0 else 0.0
        rhs = EPS_C * (c_norm - float(np.linalg.norm(c - alpha_c * jjtc)))
    if lhs < rhs - _slack(c_norm):
        raise InvariantBreach(
            f"normal step lost to the Cauchy point: decrease {lhs:.6e}"
            f" < required {rhs:.6e} (||c|| = {c_norm:.3e},"
            f" cg iterations {res.iterations})")
    return NormalStepResult(v, res.iterations, lhs, rhs, jv, c_plus_jv,
                            c_norm)


# -- parameter updates -------------------------------------------------------

def tau_trial_and_update(tau_prev, g_dot_d, max_term, c_norm, norm_c_plus_jd):
    """Merit parameter update after a test-2 acceptance, from g'd,
    max(u'Hu, eps_u ||u||^2), ||c|| and ||c + Jd||; returns
    (tau_trial, tau).  tau never increases or exceeds tau_trial, and a
    fall is at least by the factor 1 - eps_tau; a tau that is not
    positive, or a NaN trial value, is an InvariantBreach."""
    denom = g_dot_d + max_term
    tau_trial = math.inf if denom <= 0.0 else \
        (1.0 - SIGMA_C / EPS_R) * (c_norm - norm_c_plus_jd) / denom
    tau_new = tau_prev if tau_prev <= tau_trial \
        else min((1.0 - EPS_TAU) * tau_prev, tau_trial)
    if not 0.0 < tau_new <= tau_trial:
        raise InvariantBreach(
            f"merit parameter collapsed to {tau_new:.3e}"
            f" (trial {tau_trial:.3e})")
    return tau_trial, tau_new


def xi_update(xi_prev, tau, delta_l, d_sq):
    """Ratio parameter update from d_sq = ||d||^2; the trial value is
    the realized reduction-to-step ratio delta_l / (tau ||d||^2).  xi
    never increases or exceeds xi_trial; a model reduction or step that
    is not positive, or a NaN ratio, is an InvariantBreach."""
    scale = tau * d_sq
    xi_trial = delta_l / scale if delta_l > 0.0 and scale > 0.0 \
        else math.nan
    xi_new = xi_prev if xi_prev <= xi_trial \
        else min((1.0 - EPS_XI) * xi_prev, xi_trial)
    if not xi_new <= xi_trial:
        raise InvariantBreach(
            f"no ratio update from model reduction delta_l = {delta_l:.3e}"
            f" and step tau ||d||^2 = {scale:.3e}")
    return xi_trial, xi_new


# -- step size ---------------------------------------------------------------

def evaluate_varphi(alpha, beta, tau, delta_l, lip_l, lip_gamma, c, c_norm,
                    jd, norm_c_plus_jd, d_sq, cfg):
    """Upper model of the merit change at step size alpha, minus the
    target decrease; step sizes with varphi <= 0 are safe.  Takes c, its
    norm, Jd, ||c + Jd|| and ||d||^2 as the iteration holds them."""
    return ((cfg.eta - 1.0) * alpha * beta * delta_l
            + float(np.linalg.norm(c + alpha * jd)) - c_norm
            + alpha * (c_norm - norm_c_plus_jd)
            + 0.5 * (tau * lip_l + lip_gamma) * alpha ** 2 * d_sq)


def step_size_bounds(tau, xi, beta, delta_l, d_sq, lip_l, lip_gamma, cfg):
    """Lower and upper safe step sizes, from d_sq = ||d||^2.

    alpha_min <= alpha_suff holds because xi never exceeds the realized
    ratio delta_l / (tau ||d||^2); the clamp makes the guarantee robust
    to round-off (and to Lipschitz constants from different sources).
    A denominator that is not positive, or a NaN bound, is an
    InvariantBreach.
    """
    denom = tau * lip_l + lip_gamma
    if not denom > 0.0:
        raise InvariantBreach(f"tau * L + Gamma = {denom:.3e} not positive")
    scale = denom * d_sq
    if not scale > 0.0:
        raise InvariantBreach("zero step direction reached the step-size"
                              f" rule (||d||^2 = {d_sq:.3e})")
    alpha_suff = min(2.0 * (1.0 - cfg.eta) * beta * delta_l / scale, 1.0)
    alpha_min = min(2.0 * (1.0 - cfg.eta) * beta * xi * tau / denom,
                    alpha_suff)
    if not alpha_min <= alpha_suff:
        raise InvariantBreach(f"step-size bounds {alpha_min:.3e} >"
                              f" {alpha_suff:.3e}")
    return alpha_min, alpha_suff


_EXPAND = 1.1
# the largest t for which _EXPAND ** t is finite
_MAX_EXPANSIONS = int(math.log(np.finfo(float).max) / math.log(_EXPAND))


def select_step_size(alpha_min, alpha_suff, beta, varphi):
    """Step size selection between the safe bounds.

    A full step wins when alpha_suff reaches 1.  Otherwise the capped
    lower bound alpha_min + THETA beta^2 is taken when it does not
    exceed alpha_suff; failing that, alpha_suff is expanded by factors
    of 1.1 while the merit model stays nonpositive, the cap is
    respected, and the previous trial was below 1.  The unexpanded
    alpha_suff is always admissible, so no varphi evaluation guards it.
    Raises InvariantBreach unless alpha_suff and the cap are finite and
    positive.
    """
    cap = alpha_min + THETA * beta ** 2
    if not (0.0 < alpha_suff < math.inf and 0.0 < cap < math.inf):
        raise InvariantBreach(f"step-size bounds alpha_suff = {alpha_suff:.3e}"
                              f" and cap = {cap:.3e} must be finite, > 0")
    if alpha_suff == 1.0:
        return min(1.0, cap)
    if cap <= alpha_suff:
        return cap
    # the loop returns by the first t with alpha_suff * 1.1^(t-1) >= 1,
    # at most int(log(1 / alpha_suff) / log(1.1)) + 2, one more for
    # round-off; _MAX_EXPANSIONS keeps 1.1^t finite for a subnormal
    # alpha_suff
    limit = min(int(-math.log(alpha_suff) / math.log(_EXPAND)) + 3,
                _MAX_EXPANSIONS)
    alpha = alpha_suff
    for t in range(1, limit + 1):
        trial = alpha_suff * _EXPAND ** t
        if trial > cap or alpha_suff * _EXPAND ** (t - 1) >= 1.0 \
                or varphi(trial) > 0.0:
            return alpha
        alpha = trial
    return alpha


def beta_for_iteration(cfg, k):
    if cfg.beta_mode == "constant":
        return cfg.beta0
    return cfg.beta0 / (k + 1)


# -- dual update and the outer iteration -------------------------------------

def _least_squares_residual(g, j):
    """||g + J'y|| at the least-squares multipliers y for g."""
    return float(np.linalg.norm(least_squares_residual(j, g)[1]))


def update_duals(y, delta):
    """The shifted duals y + delta."""
    return y + delta


def _evaluated(problem, x, k, true_grad=None):
    """The ``IterateState`` fields f, c, j and true_grad of iterate ``k``
    at x, each checked as it is evaluated; a given true_grad is kept."""
    n, m = problem.n, problem.m
    return {"f": _checked(problem.eval_f(x), "f(x)", k, ()),
            "c": _checked(problem.eval_c(x), "c(x)", k, (m,)),
            "j": _checked(problem.eval_jacobian(x), "J(x)", k, (m, n)),
            "true_grad": _checked(problem.eval_grad_f(x), "true gradient",
                                  k, (n,)) if true_grad is None else true_grad}


def lipschitz_constants(problem, cfg):
    """(L, Gamma) that ``problem`` declares, else (None, 0), with which
    only ``directional`` mode, measuring L, runs; a ConfigError for
    ``fixed`` mode without them, and for a Gamma with 2(1 - eta) beta0
    xi0 tau0 / Gamma outside (0, 1].  Evaluates nothing."""
    lip_l, lip_gamma = (None, 0.0) if problem.lipschitz is None \
        else problem.lipschitz
    if lip_l is None and cfg.lipschitz_mode == "fixed":
        raise ConfigError(f"lipschitz_mode fixed needs the Lipschitz"
                          f" constants (L, Gamma) of the problem, and"
                          f" {problem.name} declares none")
    if lip_gamma > 0.0:
        scale = 2.0 * (1.0 - cfg.eta) * cfg.beta0 * XI_INIT \
            * cfg.tau_init / lip_gamma
        if not 0.0 < scale <= 1.0:
            raise ConfigError(
                "step-size normalization 2(1-eta) beta0 xi0 tau0 / Gamma"
                f" = {scale:.3g} falls outside (0, 1] for the Gamma ="
                f" {lip_gamma:g} of {problem.name}")
    return lip_l, lip_gamma


def init_state(problem, cfg):
    """The state at k = 0: ``problem.x0``, evaluated, and zero duals."""
    x = np.array(problem.x0, dtype=np.float64)
    return IterateState(k=0, x=x, y=np.zeros(problem.m), tau=cfg.tau_init,
                        xi=XI_INIT, **_evaluated(problem, x, 0))


def _stationary(residual, resampled):
    return StationaryPointDetected(
        f"stationary for sampled gradient (residual {residual:.3e},"
        f" resampled={resampled})",
        {"residual": residual, "resampled": resampled})


def _check_stationary(state, problem, oracle, g):
    """Feasible-and-stationary detection for the sampled gradient,
    with a single resample for stochastic oracles."""
    if float(np.max(np.abs(state.c), initial=0.0)) >= STATIONARY_TOL:
        return g
    resampled = False
    while True:
        residual = _least_squares_residual(g, state.j)
        if residual >= STATIONARY_TOL:
            return g
        if oracle.is_stochastic and not resampled:
            g = _checked(oracle.sample(problem, state.x),
                         "sampled gradient", state.k, (problem.n,))
            resampled = True
            continue
        raise _stationary(residual, resampled)


def _tangential_solve(h, j, rhs_top, vecs, tests, kappa):
    """Run MINRES on the KKT system with right-hand side (rhs_top; 0),
    checking the termination tests at every iterate whose residual
    passes the gate max(kappa ||rhs_top||_inf, MINRES_ABS_FLOOR), until
    one accepts: one call of :func:`sisqo.kernels.tangential_solve` on
    ``vecs`` and on the gate followed by ``tests``, the 8 per-iterate
    scalars.  A NaN residual passes the gate and then fails condition b.

    Returns (state, outcome, record): the MINRES state, whose views hold
    the accepted candidate (no step follows it); the kernel's outcome
    tuple; and the rung record of its steps, the residuals it formed
    (so the KKT products are steps + residuals), its breakdown and stall
    flags, its final residual norm and, under ``rejected``, the gated
    candidates that condition b, a or c, or both tests after them,
    turned down.
    """
    op = KktOperator(h, j)
    mstate = MinresState(op, (rhs_top, np.zeros(j.rows)))
    # the bottom block is zero, so this is max |rhs_top|
    cap = max(kappa * mstate.resid_norm_inf, MINRES_ABS_FLOOR)
    out = mstate.run(max(1, int(MINRES_MAX_ITER_SCALE * op.dim)), vecs,
                     (cap, *tests))
    steps, _, _, breakdown, stalled, *_, rejected, residuals = out
    return mstate, out, {"minres_iters": steps, "residuals": residuals,
                         "breakdown": breakdown, "stalled": stalled,
                         "resid_norm": mstate.resid_norm,
                         "rejected": dict(zip(("b", "a", "c", "tests"),
                                              rejected))}


def _verify(reduces, c_norm, step, varphi, d_sq, merit_drop, guaranteed,
            cfg):
    """The violations (empty when clean) of the three guarantees of the
    accepted step that no update rule enforces: sufficient model
    reduction at the updated tau (``reduces``, from
    :func:`_reduces_model`), varphi(alpha) <= 0, and the merit decrease
    bound, which is logged instead unless ``guaranteed``."""
    out = []
    if not reduces:
        out.append("model reduction condition fails at updated tau")
    alpha = step.alpha
    phi_scale = (1.0 - cfg.eta) * alpha * step.beta * step.delta_l \
        + 0.5 * (step.tau * step.lip_l + step.lip_gamma) * alpha ** 2 * d_sq \
        + alpha * c_norm
    phi_val = varphi(alpha)
    if not phi_val <= _slack(phi_scale):
        out.append(f"varphi({alpha:.6e}) = {phi_val:.6e} > 0")
    bound = -alpha * step.delta_l * (1.0 - (1.0 - cfg.eta) * step.beta)
    gap = merit_drop - bound
    if not gap <= _slack(abs(merit_drop), abs(bound), step.delta_l):
        if guaranteed:
            out.append(f"merit change {merit_drop:.6e} above bound"
                       f" {bound:.6e}")
        else:
            logger.debug("merit bound exceeded by %.3e at iteration %d",
                         gap, step.k)
    for message in out:
        logger.warning("invariant violation at iteration %d: %s", step.k,
                       message)
    return out


def sqp_iterate(state, problem, oracle, cfg):
    """One full iteration: sample, detect stationarity, take the normal
    step, truncate the tangential solve over the Hessian ladder, update
    tau / xi / duals, select the step size, and evaluate x_{k+1}.  In
    ``directional`` mode L is measured along the step d from the true
    gradients at x + d and x, which draw nothing from the oracle; at a
    full step x_{k+1} is x + d bit for bit and keeps that gradient.

    Returns the advanced state and a StepResult.  Constants that
    :func:`lipschitz_constants` refuses are a ConfigError, raised before
    the iteration evaluates anything.  A condition that ends the run, a
    bad value at x_{k+1} included, raises an EngineError, whose
    ``status`` names the ending and whose ``diagnostics["minres_iters"]``
    counts the MINRES steps the iteration took before it.
    """
    rungs = []
    try:
        return _iterate(state, problem, oracle, cfg, rungs)
    except EngineError as exc:
        exc.diagnostics["minres_iters"] = sum(r["minres_iters"]
                                              for r in rungs)
        raise


def _iterate(state, problem, oracle, cfg, rungs):
    """The body of ``sqp_iterate``; appends one record per Hessian rung
    tried to ``rungs``."""
    lip_l, lip_gamma = lipschitz_constants(problem, cfg)
    g = _checked(oracle.sample(problem, state.x), "sampled gradient",
                 state.k, (problem.n,))
    g = _check_stationary(state, problem, oracle, g)

    ns = compute_normal_step(state.c, state.j)
    beta = beta_for_iteration(cfg, state.k)

    # the kernel's inputs, formed once per iterate: vecs holds g, Hv,
    # g + Hv, c and c + Jv, and each rung refreshes Hv and g + Hv
    n, v = problem.n, ns.v
    v_norm = float(np.linalg.norm(v))
    tests = (beta, cfg.kappa, state.prev_pair_norm, state.tau, v_norm,
             float(np.dot(g, v)), ns.c_norm, ns.cauchy_lhs)
    jty = state.j.apply_transpose(state.y)
    vecs = np.concatenate([g, np.empty(2 * n), state.c, ns.c_plus_jv])
    hv, g_plus_hv = vecs[n:2 * n], vecs[2 * n:3 * n]
    hess = _checked(problem.eval_lagrangian_hessian(state.x, state.y),
                    "Lagrangian Hessian", state.k, (n, n), symmetric=True)
    total_minres = 0
    for rung in range(MAX_RUNG + 2):
        h = ladder_matrix(hess, rung)
        hv[:] = h.apply(v)
        np.add(g, hv, out=g_plus_hv)
        rhs_top = _checked(g_plus_hv + jty, "tangential right-hand side",
                           state.k)
        mstate, out, record = _tangential_solve(h, state.j, rhs_top, vecs,
                                                tests, cfg.kappa)
        total_minres += record["minres_iters"]
        rungs.append({"rung": rung, **record})
        _, tt1, tt2, _, _, g_dot_d, max_term, norm_c_plus_jd, *_ = out
        if tt1 or tt2:
            break
    else:
        raise IterationFailure(
            f"no tangential iterate accepted at iteration {state.k}"
            f" after {len(rungs)} Hessian rungs"
            f" ({total_minres} total MINRES iterations)",
            diagnostics={"k": state.k, "rungs": rungs,
                         "c_norm": ns.c_norm, "v_norm": v_norm,
                         "rhs_norm": float(np.linalg.norm(rhs_top))})

    if tt1:
        tau_new = state.tau
    else:
        _, tau_new = tau_trial_and_update(state.tau, g_dot_d, max_term,
                                          ns.c_norm, norm_c_plus_jd)

    d = v + mstate.u
    d_sq = float(np.dot(d, d))
    if d_sq == 0.0:
        # a zero direction can only be accepted with v = 0 and u = 0
        # (any cancellation fails both tests), which certifies the
        # iterate as stationary for the sampled gradient to working
        # precision even when the explicit gate has not fired yet
        raise _stationary(_least_squares_residual(g, state.j), False)
    grad_x_plus_d = None
    if cfg.lipschitz_mode == "directional":
        grad_x_plus_d = _checked(problem.eval_grad_f(state.x + d),
                                 "gradient at x + d", state.k, (n,))
        lip_l = _checked(estimate_lipschitz(d, d_sq, grad_x_plus_d,
                                            state.true_grad),
                         "Lipschitz constant", state.k)
    delta_l = model_reduction(tau_new, g_dot_d, ns.c_norm, norm_c_plus_jd)
    _, xi_new = xi_update(state.xi, tau_new, delta_l, d_sq)
    alpha_min, alpha_suff = step_size_bounds(tau_new, xi_new, beta, delta_l,
                                             d_sq, lip_l, lip_gamma, cfg)

    jd = ns.jv + mstate.r

    def varphi(alpha):
        return evaluate_varphi(alpha, beta, tau_new, delta_l, lip_l, lip_gamma,
                               state.c, ns.c_norm, jd, norm_c_plus_jd, d_sq,
                               cfg)

    alpha = select_step_size(alpha_min, alpha_suff, beta, varphi)

    x_next = state.x + alpha * d
    y_next = update_duals(state.y, mstate.delta)

    step = StepResult(
        k=state.k, v=v, u=mstate.u, delta=mstate.delta,
        accepted_test=1 if tt1 else 2, minres_iters=total_minres,
        cg_iters=ns.iterations, hessian_rung=rung, tau=tau_new, xi=xi_new,
        beta=beta, lip_l=lip_l, lip_gamma=lip_gamma, delta_l=delta_l,
        alpha_min=alpha_min, alpha_suff=alpha_suff, alpha=alpha,
        info={"rungs": rungs})

    state_next = IterateState(
        k=state.k + 1, x=x_next, y=y_next, tau=tau_new, xi=xi_new,
        prev_pair_norm=norm_pair(g + state.j.apply_transpose(y_next),
                                 state.c),
        **_evaluated(problem, x_next, state.k + 1,
                     grad_x_plus_d if alpha == 1.0 else None))
    # the merit bound holds for true Lipschitz upper bounds and exact g
    merit_drop = merit_value(tau_new, state_next.f, state_next.c) \
        - merit_value(tau_new, state.f, state.c)
    reduces = _reduces_model(tau_new, g_dot_d, max_term, ns.c_norm,
                             norm_c_plus_jd, ns.cauchy_lhs)
    step.violations = _verify(
        reduces, ns.c_norm, step, varphi, d_sq, merit_drop,
        cfg.lipschitz_mode == "fixed" and not oracle.is_stochastic, cfg)
    return state_next, step
