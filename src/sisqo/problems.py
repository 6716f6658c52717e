"""Problem abstraction, stochastic gradient oracles, finite-difference
Lipschitz estimation, and derivative validation.

A Problem bundles callables for the objective, constraints, and their
derivatives.  Sparse matrices returned by the derivative callables must
be :class:`sisqo.sparse.SparseMatrix`.  The solver evaluates f, c and J
once per iterate and the Lagrangian Hessian once per iteration, so
``estimate_lipschitz`` takes the J(x) it already holds.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .sparse import frobenius_distance

__all__ = ["Problem", "GradientOracle", "gaussian_oracle_sample",
           "finite_sum_oracle_sample", "estimate_lipschitz", "substream",
           "validate_problem"]

# substream codes for the counter-based RNG (Philox): adding new
# instrumentation must never perturb existing streams
STREAMS = {"oracle": 1, "lipschitz": 2, "problem": 3}

# lower bound of both Lipschitz estimates, so a flat probe still gives
# a positive step-size denominator
LIP_FLOOR = 1e-8

# validate_problem's probe count, and its difference step per max(1, ||x0||)
VALIDATION_POINTS = 20
VALIDATION_FD_STEP = 1e-6


def substream(seed, name):
    """Named Philox substream; (seed, name) fully determines the draws."""
    try:
        code = STREAMS[name]
    except KeyError:
        raise ValueError(f"unknown stream {name!r}; known: {sorted(STREAMS)}")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), code))))


@dataclass(frozen=True)
class Problem:
    """Equality-constrained NLP: min f(x) subject to c(x) = 0.

    Parameters
    ----------
    eval_f, eval_grad_f, eval_c, eval_jacobian : callables of x
        True objective, gradient, constraints, and m-by-n Jacobian.
        The true gradient stays available for metrics and for the
        exact-mode oracle even when runs sample stochastic gradients.
    eval_lagrangian_hessian : callable of (x, y)
        Symmetric n-by-n Hessian of f(x) + c(x)^T y.
    known_solution : optional (x_star, y_star)
        A KKT pair when available (synthetic QPs).
    term_grid : optional int
        N when f is the mean of N^2 terms indexed by (i, j) in
        {1..N}^2; enables the finite-sum oracle.
    eval_term_grad : optional callable of (x, i, j)
        Gradient of the single (i, j) term.
    lipschitz : optional (L, Gamma)
        True Lipschitz upper bounds for the gradient and Jacobian, when
        known (quadratic objective / linear constraints).
    """

    name: str
    n: int
    m: int
    eval_f: Callable
    eval_grad_f: Callable
    eval_c: Callable
    eval_jacobian: Callable
    eval_lagrangian_hessian: Callable
    x0: np.ndarray
    known_solution: Optional[tuple] = None
    term_grid: Optional[int] = None
    eval_term_grad: Optional[Callable] = None
    lipschitz: Optional[tuple] = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m > self.n:
            raise ValueError("constraint dimension cannot exceed primal dimension")
        if self.x0.shape != (self.n,):
            raise ValueError("x0 must have length n")


# -- gradient oracles ----------------------------------------------------

def gaussian_oracle_sample(problem, x, eps_n, rng):
    """True gradient plus N(0, (eps_n^2/n) I) noise, drawn in the
    gradient's shape so a wrong one is not broadcast away; M_g = eps_n^2."""
    if eps_n < 0:
        raise ValueError("eps_n must be non-negative")
    g = problem.eval_grad_f(x)
    if eps_n == 0.0:
        return g
    return g + (eps_n / np.sqrt(problem.n)) * rng.standard_normal(np.shape(g))


def _term_grid(problem):
    """N of the problem's N-by-N grid of finite-sum terms."""
    if problem.term_grid is None or problem.eval_term_grad is None:
        raise ValueError(f"problem {problem.name} exposes no finite-sum terms")
    return problem.term_grid


def finite_sum_oracle_sample(problem, x, rng):
    """Gradient of one uniformly drawn (i, j) term of the finite sum."""
    n_terms = _term_grid(problem)
    i = int(rng.integers(1, n_terms + 1))
    j = int(rng.integers(1, n_terms + 1))
    return problem.eval_term_grad(x, i, j)


@dataclass
class GradientOracle:
    """Stochastic (or exact) gradient sampler with a private stream.

    kind is one of ``gaussian`` (true gradient plus isotropic noise),
    ``finite_sum`` (single uniformly drawn term), or ``exact``.
    """

    kind: str
    rng: Optional[np.random.Generator] = None
    eps_n: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "finite_sum", "exact"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.kind != "exact" and self.rng is None:
            raise ValueError(f"{self.kind} oracle requires an rng")

    @property
    def is_stochastic(self):
        return self.kind != "exact" and not (self.kind == "gaussian"
                                             and self.eps_n == 0.0)

    def sample(self, problem, x):
        if self.kind == "exact":
            return problem.eval_grad_f(x)
        if self.kind == "gaussian":
            return gaussian_oracle_sample(problem, x, self.eps_n, self.rng)
        return finite_sum_oracle_sample(problem, x, self.rng)

    def variance_bound(self, problem):
        """Reported M_g metadata; the algorithm itself never consumes it.

        Gaussian: eps_n^2 exactly.  Finite sum: the maximum squared
        term-gradient deviation at x0, computed exhaustively.
        """
        if self.kind == "exact":
            return 0.0
        if self.kind == "gaussian":
            return self.eps_n ** 2
        n_terms = _term_grid(problem)
        x0 = problem.x0
        full = problem.eval_grad_f(x0)
        worst = 0.0
        for i in range(1, n_terms + 1):
            for j in range(1, n_terms + 1):
                dev = problem.eval_term_grad(x0, i, j) - full
                worst = max(worst, float(np.dot(dev, dev)))
        return worst


# -- Lipschitz estimation --------------------------------------------------

def estimate_lipschitz(problem, x, j, probe_radius, rng):
    """Finite-difference Lipschitz estimates at a random nearby point.

    Samples x' uniformly in the ball of radius ``probe_radius`` around
    x, then L_est = ||grad f(x') - grad f(x)|| / ||x' - x|| and
    Gamma_est = ||J(x') - J(x)||_F / ||x' - x||, floored at LIP_FLOOR;
    ``j`` is J(x).
    """
    if probe_radius <= 0:
        raise ValueError("probe_radius must be positive")
    n = problem.n
    direction = rng.standard_normal(n)
    dnorm = float(np.linalg.norm(direction))
    if dnorm == 0.0:
        return LIP_FLOOR, LIP_FLOOR
    radius = probe_radius * rng.uniform() ** (1.0 / n)
    step = (radius / dnorm) * direction
    dist = float(np.linalg.norm(step))
    if dist == 0.0:
        return LIP_FLOOR, LIP_FLOOR
    xp = x + step
    l_est = float(np.linalg.norm(problem.eval_grad_f(xp)
                                 - problem.eval_grad_f(x))) / dist
    gamma_est = frobenius_distance(problem.eval_jacobian(xp), j) / dist
    return max(l_est, LIP_FLOOR), max(gamma_est, LIP_FLOOR)


# -- derivative validation -------------------------------------------------

def validate_problem(problem, seed=0):
    """Central finite-difference checks of the declared derivatives.

    Returns a dict of worst-case relative errors over VALIDATION_POINTS
    random probes: gradient vs f, Jacobian vs c, and Lagrangian Hessian
    vs the Lagrangian gradient.  An error is NaN when any probe's is.
    """
    rng = substream(seed, "problem")
    x_base = problem.x0
    scale = max(1.0, float(np.linalg.norm(x_base)))
    grad_err = jac_err = hess_err = 0.0
    for _ in range(VALIDATION_POINTS):
        x = x_base + 0.5 * scale * rng.standard_normal(problem.n)
        y = rng.standard_normal(problem.m)
        d = rng.standard_normal(problem.n)
        d /= np.linalg.norm(d)
        h = VALIDATION_FD_STEP * scale

        fd = (problem.eval_f(x + h * d) - problem.eval_f(x - h * d)) / (2 * h)
        an = float(np.dot(problem.eval_grad_f(x), d))
        grad_err = np.maximum(grad_err, abs(fd - an) / max(1.0, abs(an)))

        cd = (problem.eval_c(x + h * d) - problem.eval_c(x - h * d)) / (2 * h)
        jd = problem.eval_jacobian(x).apply(d)
        jac_err = np.maximum(jac_err, float(np.max(np.abs(cd - jd)))
                             / max(1.0, float(np.max(np.abs(jd)))))

        def lagr_grad(z):
            return problem.eval_grad_f(z) + \
                problem.eval_jacobian(z).apply_transpose(y)

        hd_fd = (lagr_grad(x + h * d) - lagr_grad(x - h * d)) / (2 * h)
        hd = problem.eval_lagrangian_hessian(x, y).apply(d)
        hess_err = np.maximum(hess_err, float(np.max(np.abs(hd_fd - hd)))
                              / max(1.0, float(np.max(np.abs(hd)))))
    return {"gradient": float(grad_err), "jacobian": float(jac_err),
            "hessian": float(hess_err)}
