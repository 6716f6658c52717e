"""Built-in test problems.

Three families:

* synthetic equality-constrained QPs with a known KKT solution,
* an interior-control Poisson problem (Dirichlet boundary, control in
  the source term),
* a boundary-control Neumann problem (control in the flux).

Both PDE problems minimize an average of tracking terms over an N-by-N
grid of reference states, which makes them natural finite-sum targets
for the single-term gradient oracle.
"""

from dataclasses import dataclass

import numpy as np

from .problems import Problem, substream
from .sparse import SparseMatrix

__all__ = ["SyntheticQpSpec", "ControlProblemSpec", "build_synthetic_qp",
           "build_poisson_control", "build_neumann_control",
           "reference_function_value"]


def reference_function_value(i, j, n_terms, eps_n, eps_s, x1, x2):
    """Tracking target for term (i, j) evaluated at a point of the domain.

    sin((4 + (eps_n/eps_s)(i - (N+1)/2)) x1)
      + cos((3 + (eps_n/eps_s)(j - (N+1)/2)) x2)

    with 1-based i, j in {1..N}.  The center term (i = j = (N+1)/2 for
    odd N) reduces to sin(4 x1) + cos(3 x2).
    """
    if not (1 <= i <= n_terms and 1 <= j <= n_terms):
        raise ValueError(f"term index ({i}, {j}) outside 1..{n_terms}")
    if eps_s <= 0:
        raise ValueError("eps_s must be positive")
    spread = eps_n / eps_s
    mid = (n_terms + 1) / 2.0
    return (np.sin((4.0 + spread * (i - mid)) * x1)
            + np.cos((3.0 + spread * (j - mid)) * x2))


# -- synthetic QPs ---------------------------------------------------------

@dataclass(frozen=True)
class SyntheticQpSpec:
    """min 0.5 x'Qx + q'x  s.t.  Jx = b, with planted KKT pair.

    Q has minimum eigenvalue ``curvature_floor`` and condition number
    ``cond_target``; J has singular values in [0.5, 2] so full row rank
    is guaranteed by construction (and re-verified numerically).
    """

    n: int = 40
    m: int = 15
    seed: int = 0
    cond_target: float = 10.0
    curvature_floor: float = 1.0

    def __post_init__(self):
        if not (0 < self.m <= self.n):
            raise ValueError("need 0 < m <= n")
        if self.cond_target < 1.0 or self.curvature_floor <= 0.0:
            raise ValueError("cond_target >= 1 and curvature_floor > 0 required")


_QP_MIN_SINGULAR = 1e-3
_QP_BUILD_RETRIES = 5


def build_synthetic_qp(spec):
    rng = substream(spec.seed, "problem")
    n, m = spec.n, spec.m
    for _ in range(_QP_BUILD_RETRIES):
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = spec.curvature_floor * np.logspace(
            np.log10(spec.cond_target), 0.0, n)
        q_mat = (basis * eigs) @ basis.T
        q_mat = 0.5 * (q_mat + q_mat.T)

        u_l, _, v_r = np.linalg.svd(rng.standard_normal((m, n)),
                                    full_matrices=False)
        sing = np.linspace(2.0, 0.5, m)
        j_dense = (u_l * sing) @ v_r

        x_star = rng.standard_normal(n)
        y_star = rng.standard_normal(m)

        # rank deficiency cannot occur with the SVD construction, but the
        # contract promises a numerical recheck with bounded retries
        if (np.linalg.svd(j_dense, compute_uv=False).min() >= _QP_MIN_SINGULAR
                and np.linalg.eigvalsh(q_mat).min()
                >= spec.curvature_floor * (1 - 1e-9)):
            break
    else:
        raise RuntimeError("QP generation kept producing degenerate data")

    q_vec = -(q_mat @ x_star) - j_dense.T @ y_star
    b = j_dense @ x_star
    x0 = x_star + rng.standard_normal(n)

    q_sparse = SparseMatrix.from_dense(q_mat)
    j_sparse = SparseMatrix.from_dense(j_dense)
    l_true = float(eigs.max())

    return Problem(
        name=f"qp_n{n}_m{m}_s{spec.seed}",
        n=n, m=m,
        eval_f=lambda x: float(0.5 * x @ (q_mat @ x) + q_vec @ x),
        eval_grad_f=lambda x: q_mat @ x + q_vec,
        eval_c=lambda x: j_dense @ x - b,
        eval_jacobian=lambda x: j_sparse,
        eval_lagrangian_hessian=lambda x, y: q_sparse,
        x0=x0,
        known_solution=(x_star, y_star),
        lipschitz=(l_true, 0.0),
        info={"cond_target": spec.cond_target,
              "curvature_floor": spec.curvature_floor},
    )


# -- PDE control problems --------------------------------------------------

def _checkerboard(side):
    """Deterministic oscillatory starting state, 1 +- 0.5 on an
    alternating pattern.  Far from satisfying either discretized PDE,
    so runs begin with an O(1) feasibility error."""
    p = np.repeat(np.arange(side), side)
    q = np.tile(np.arange(side), side)
    return 1.0 + 0.5 * np.where((p + q) % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class ControlProblemSpec:
    """Shared settings for the two PDE control problems.

    mesh_size is the number of interior grid points per side (N_h);
    regularization is the control penalty weight; eps_n / eps_s set the
    spread of the N-by-N grid of reference states.  The same eps_n that
    parameterizes the problem drives the finite-sum oracle's noise.
    """

    mesh_size: int = 16
    n_terms: int = 3
    regularization: float = 1e-5
    eps_n: float = 1e-2
    eps_s: float = float(np.sqrt(15.0))

    def __post_init__(self):
        if self.mesh_size < 1 or self.n_terms < 1:
            raise ValueError("mesh_size and n_terms must be positive")
        if self.regularization <= 0 or self.eps_n < 0 or self.eps_s <= 0:
            raise ValueError("bad regularization or noise parameters")


def _reference_targets(spec, axis):
    """The N-by-N grid of reference states on the square grid with the
    given coordinates per side (nodes in row-major order); row
    (i - 1) N + (j - 1) holds term (i, j)."""
    x1, x2 = np.repeat(axis, len(axis)), np.tile(axis, len(axis))
    n = spec.n_terms
    return np.array([reference_function_value(i, j, n, spec.eps_n, spec.eps_s,
                                              x1, x2)
                     for i in range(1, n + 1) for j in range(1, n + 1)])


def _tracking_problem(name, spec, state_dim, control_dim, jac, targets,
                      state_weights, control_weights, x0, extra_info):
    """Assemble a quadratic tracking Problem from precomputed pieces.

    f(w, z) = mean_ij [ 0.5 (w - wbar_ij)' W (w - wbar_ij) ]
              + 0.5 lam z' S z
    with diagonal weights W = diag(state_weights), S = diag(control_weights)
    and lam = spec.regularization.  Constraints are linear: jac @ x = 0.
    """
    lam = spec.regularization
    n = state_dim + control_dim
    m = jac.rows
    target_mean = targets.mean(axis=0)
    n_sq = targets.shape[0]

    hess = SparseMatrix.diagonal(
        np.concatenate([state_weights, lam * control_weights]))

    def eval_f(x):
        w, z = x[:state_dim], x[state_dim:]
        track = 0.0
        for t in range(n_sq):
            diff = w - targets[t]
            track += 0.5 * float(diff @ (state_weights * diff))
        return track / n_sq + 0.5 * lam * float(z @ (control_weights * z))

    def eval_grad_f(x):
        w, z = x[:state_dim], x[state_dim:]
        return np.concatenate([state_weights * (w - target_mean),
                               lam * control_weights * z])

    def eval_term_grad(x, i, j):
        if not (1 <= i <= spec.n_terms and 1 <= j <= spec.n_terms):
            raise ValueError(f"term index ({i}, {j}) outside 1..{spec.n_terms}")
        w, z = x[:state_dim], x[state_dim:]
        t = (i - 1) * spec.n_terms + (j - 1)
        return np.concatenate([state_weights * (w - targets[t]),
                               lam * control_weights * z])

    l_true = float(max(state_weights.max(), lam * control_weights.max()))

    return Problem(
        name=name, n=n, m=m,
        eval_f=eval_f,
        eval_grad_f=eval_grad_f,
        eval_c=lambda x: jac.apply(x),
        eval_jacobian=lambda x: jac,
        eval_lagrangian_hessian=lambda x, y: hess,
        x0=x0,
        term_grid=spec.n_terms,
        eval_term_grad=eval_term_grad,
        lipschitz=(l_true, 0.0),
        info=dict(extra_info, mesh_size=spec.mesh_size,
                  regularization=lam, eps_n=spec.eps_n, eps_s=spec.eps_s),
    )


def build_poisson_control(spec):
    """Interior control: -laplace(w) = z on the unit square, w = 0 on
    the boundary, five-point stencil on an N_h-by-N_h interior grid.

    Variables are (w, z) with both fields living on the interior grid,
    so n = 2 N_h^2 and m = N_h^2.  Constraint rows carry the usual h^2
    scaling (stencil weights 4 and -1, control weight -h^2); the
    tracking objective is a plain sum of squares, which makes the
    objective Hessian exactly diag(I, lam I).
    """
    nh = spec.mesh_size
    h = 1.0 / (nh + 1)
    dim = nh * nh

    rows, cols, vals = [], [], []
    for p in range(nh):
        for q in range(nh):
            node = p * nh + q
            rows.append(node)
            cols.append(node)
            vals.append(4.0)
            for dp, dq in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                pp, qq = p + dp, q + dq
                if 0 <= pp < nh and 0 <= qq < nh:
                    rows.append(node)
                    cols.append(pp * nh + qq)
                    vals.append(-1.0)
            # -h^2 z coupling
            rows.append(node)
            cols.append(dim + node)
            vals.append(-h * h)
    jac = SparseMatrix.from_triplets((dim, 2 * dim),
                                     np.array(rows), np.array(cols),
                                     np.array(vals))

    targets = _reference_targets(spec, (np.arange(nh) + 1) * h)

    x0 = np.concatenate([_checkerboard(nh), np.zeros(dim)])
    return _tracking_problem(
        f"poisson_nh{nh}", spec, dim, dim, jac, targets,
        np.ones(dim), np.ones(dim), x0,
        {"family": "poisson", "h": h, "row_scaling": "h^2",
         "objective_scaling": "plain sum over interior nodes"})


def build_neumann_control(spec):
    """Boundary control: -laplace(w) + w = 0 inside the unit square,
    dw/dn = z on the boundary, discretized on the full (N_h+2)^2 node
    grid with ghost elimination of the Neumann condition.

    The control z lives on the 4 N_h non-corner boundary nodes.  PDE
    rows carry the h^2 scaling; the four corner nodes, which the
    five-point stencil never references, get closure rows that tie them
    to the average of their two boundary neighbors.  The tracking terms
    integrate over the whole square with trapezoidal weights and the
    control penalty uses the boundary quadrature weight h, so the
    objective Hessian is diag(mass weights, lam * h).
    """
    nh = spec.mesh_size
    h = 1.0 / (nh + 1)
    side = nh + 2
    dim = side * side

    def node(p, q):
        return p * side + q

    corner = {(0, 0), (0, side - 1), (side - 1, 0), (side - 1, side - 1)}

    # control indexing: left, right, bottom, top edges, each nh nodes
    control_of = {}
    for t in range(nh):
        control_of[(0, t + 1)] = t
        control_of[(side - 1, t + 1)] = nh + t
        control_of[(t + 1, 0)] = 2 * nh + t
        control_of[(t + 1, side - 1)] = 3 * nh + t
    n_ctrl = 4 * nh

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for p in range(side):
        for q in range(side):
            r = node(p, q)
            if (p, q) in corner:
                # closure: corner minus the mean of its two neighbors
                add(r, r, 1.0)
                np_, nq = (1 if p == 0 else side - 2), q
                add(r, node(np_, nq), -0.5)
                np_, nq = p, (1 if q == 0 else side - 2)
                add(r, node(np_, nq), -0.5)
                continue
            add(r, r, 4.0 + h * h)
            for dp, dq in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                pp, qq = p + dp, q + dq
                if 0 <= pp < side and 0 <= qq < side:
                    add(r, node(pp, qq), -1.0)
                else:
                    # ghost neighbor: reflect through the Neumann
                    # condition, doubling the interior neighbor and
                    # sourcing the control with weight 2h
                    add(r, node(p - dp, q - dq), -1.0)
                    add(r, dim + control_of[(p, q)], -2.0 * h)
    jac = SparseMatrix.from_triplets(
        (dim, dim + n_ctrl), np.array(rows), np.array(cols), np.array(vals),
        sum_duplicates=True)

    targets = _reference_targets(spec, np.arange(side) * h)

    # trapezoidal mass weights: h^2 inside, halved along each boundary
    gamma = np.ones(side)
    gamma[0] = gamma[-1] = 0.5
    state_w = h * h * np.outer(gamma, gamma).ravel()
    control_w = h * np.ones(n_ctrl)

    x0 = np.concatenate([_checkerboard(side), np.zeros(n_ctrl)])
    return _tracking_problem(
        f"neumann_nh{nh}", spec, dim, n_ctrl, jac, targets,
        state_w, control_w, x0,
        {"family": "neumann", "h": h, "row_scaling": "h^2",
         "objective_scaling": "trapezoidal quadrature"})
