"""Damped nonlinear least squares (Levenberg-Marquardt).

The cost minimized is ``0.5 * sum(r(x)**2)``. The damped normal equations
``(J^T J + lambda diag(J^T J)) step = -J^T r`` are solved by a dense
Cholesky factorization when the Jacobian is an ndarray. When it is a
:class:`PointBlockJacobian`, as the bundle-adjustment Jacobian is, each
point's 3x3 block is eliminated first and only the reduced camera system
(the Schur complement) is factored. Only that linear solve differs: damping
over all free parameters, step acceptance and termination are shared. A
``scipy.sparse`` Jacobian is not accepted; converting it fails with an
error. The damping starts at 1e-3 and is multiplied by 10 after a rejected
step and by 0.1 after an accepted one. Steps are accepted only when the
cost strictly decreases, so the accepted-cost sequence is monotonically
non-increasing. Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import NonFiniteResidual, SingularNormalEquations

_INITIAL_DAMPING = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_MAX_DAMPING = 1e10
_FD_EPS = 1e-6


@dataclass
class LeastSquaresProblem:
    """A residual evaluator plus an optional analytic Jacobian.

    The evaluator must be deterministic and return a fixed-length residual
    vector of dimension >= the parameter dimension. The Jacobian is anything
    ``np.asarray`` turns into a float matrix, or a :class:`PointBlockJacobian`;
    its type selects the linear solve. A ``scipy.sparse`` array is neither,
    and the solver raises on it.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray | PointBlockJacobian]] = None


@dataclass(eq=False)
class PointBlockJacobian:
    """A Jacobian whose columns are camera columns and the columns of 3D
    points, stored as per-observation blocks.

    Observation k owns residual rows 2k and 2k+1, and its only nonzero
    entries are two blocks: ``camera[k]``, (2, c), in the columns
    ``camera_cols[k]``, and ``points[k]``, (2, 3), in the columns
    ``point_cols[point[k]]`` of its point. A column index of -1 marks a
    frozen entry, whose values are ignored. Columns that no point owns are
    camera columns; one may appear in every observation (a shared global) or
    in some (a view's pose). A point may be observed more than once in one
    view. ``np.asarray`` gives the dense ``shape`` matrix.
    """

    camera: np.ndarray  # (m, 2, c) float
    camera_cols: np.ndarray  # (m, c) int
    points: np.ndarray  # (m, 2, 3) float
    point: np.ndarray  # (m,) int
    point_cols: np.ndarray  # (n_points, 3) int
    shape: tuple

    def __array__(self, dtype=None, copy=None):
        n_cols = self.shape[1]
        cols = np.concatenate([self.camera_cols, self.point_cols[self.point]], axis=1)
        values = np.concatenate([self.camera, self.points], axis=2)
        kept = cols >= 0
        # Flat positions in each observation's first row; the second follows.
        at = (cols + 2 * n_cols * np.arange(len(cols))[:, None])[kept]
        dense = np.zeros(self.shape)
        dense.ravel()[at] = values[:, 0][kept]
        dense.ravel()[at + n_cols] = values[:, 1][kept]
        return dense if dtype is None else dense.astype(dtype, copy=False)


@dataclass
class LmConfig:
    """Iteration cap and stopping tolerances for :func:`levenberg_marquardt`."""

    max_iters: int = 100
    cost_tol: float = 1e-10  # relative cost decrease
    step_tol: float = 1e-12

    def __post_init__(self):
        # ``not v > 0`` also rejects NaN, which would disable a tolerance.
        if (not isinstance(self.max_iters, (int, np.integer))
                or any(not v > 0 for v in (self.max_iters, self.cost_tol,
                                           self.step_tol))):
            raise ValueError("LM configuration needs a positive integer max_iters "
                             "and positive tolerances")


@dataclass
class LmReport:
    """Outcome of one Levenberg-Marquardt solve.

    ``cost_history`` lists the cost after every accepted step, starting with
    the initial cost; it is non-increasing by construction. ``residual`` is
    the residual vector at ``params``.
    """

    params: np.ndarray
    initial_cost: float
    final_cost: float
    iterations: int
    reason: str  # "cost-tol" | "step-tol" | "max-iter"
    cost_history: Optional[list] = None
    residual: Optional[np.ndarray] = None


def _eval_residual(problem: LeastSquaresProblem, x: np.ndarray) -> np.ndarray:
    r = np.asarray(problem.residual(x), dtype=np.float64).ravel()
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residual evaluator returned non-finite values")
    return r


def numeric_jacobian(problem: LeastSquaresProblem, x) -> np.ndarray:
    """Central-difference Jacobian, step ``_FD_EPS * max(1, |x_j|)`` per parameter."""
    x = np.asarray(x, dtype=np.float64).ravel()
    r0 = _eval_residual(problem, x)
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = _FD_EPS * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        jac[:, j] = (_eval_residual(problem, xp) - _eval_residual(problem, xm)) / (2.0 * h)
    return jac


def _cost(r: np.ndarray) -> float:
    return 0.5 * float(r @ r)


def _dense_solver(jac: np.ndarray, r: np.ndarray):
    """The damped solve of a dense Jacobian by Cholesky factorization of the
    damped normal equations."""
    jtj = jac.T @ jac
    grad = jac.T @ r
    diag = jtj.diagonal()

    def solve(lam: float):
        try:
            chol = scipy.linalg.cho_factor(jtj + lam * np.diag(diag), lower=True)
            return scipy.linalg.cho_solve(chol, -grad)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            return None

    return solve


def _point_block_solver(jac: PointBlockJacobian, r: np.ndarray):
    """The damped solve of a point-block Jacobian: each point's 3x3 block is
    eliminated and the reduced camera system (the Schur complement) is solved
    by Cholesky factorization, then the point steps follow by back-substitution
    (Triggs et al., "Bundle Adjustment - A Modern Synthesis", 2000, sec. 6).

    With U the camera block of ``J^T J``, V_p point p's 3x3 block and W the
    camera-point coupling, all damped on their diagonals, the camera step
    solves ``(U - W V^-1 W^T) dc = -g_c + W V^-1 g_p`` and each point step is
    ``dp = V_p^-1 (-g_p - W_p^T dc)``. Everything but the damping is formed
    once per Jacobian, with sums over observations and no sparse product.
    """
    n_cols = jac.shape[1]
    n_points = len(jac.point_cols)
    point_free = jac.point_cols >= 0
    is_point = np.zeros(n_cols, dtype=bool)
    is_point[jac.point_cols[point_free]] = True
    n_cam = n_cols - int(is_point.sum())
    # Frozen entries get zero values, so their (clipped) index adds nothing.
    cam_row = (np.cumsum(~is_point) - 1)[np.maximum(jac.camera_cols, 0)]
    a = np.where(jac.camera_cols[:, None, :] >= 0, jac.camera, 0.0)
    b = np.where(point_free[jac.point][:, None, :], jac.points, 0.0)
    # Contiguous transposes: numpy's stacked products run several times
    # faster with a contiguous left operand.
    a_t = np.ascontiguousarray(a.transpose(0, 2, 1))
    b_t = np.ascontiguousarray(b.transpose(0, 2, 1))
    point_row = 3 * jac.point[:, None] + np.arange(3)  # (m, 3) rows of V and W
    res = r.reshape(-1, 2, 1)

    def sums(index, values, size):
        return np.bincount(index.ravel(), values.ravel(), size)[:size]

    grad_c = sums(cam_row, a_t @ res, n_cam)
    grad_p = sums(point_row, b_t @ res, 3 * n_points)
    u = sums(cam_row[:, :, None] * n_cam + cam_row[:, None, :], a_t @ a,
             n_cam * n_cam).reshape(n_cam, n_cam)
    v = sums(point_row[:, :, None] * 3 + np.arange(3), b_t @ b,
             9 * n_points).reshape(n_points, 3, 3)
    w = sums(point_row[:, :, None] * n_cam + cam_row[:, None, :], b_t @ a,
             3 * n_points * n_cam).reshape(-1, n_cam)
    # A frozen point coordinate keeps a unit diagonal and a zero step.
    frozen_point, frozen_axis = np.nonzero(~point_free)
    v[frozen_point, frozen_axis, frozen_axis] = 1.0
    u_diag = u.diagonal().copy()
    v_diag = np.diagonal(v, axis1=1, axis2=2).copy()
    axis = np.arange(3)

    def solve(lam: float):
        v_damped = v.copy()
        v_damped[:, axis, axis] += lam * v_diag
        try:
            v_inv = np.linalg.inv(v_damped)
            v_inv_w = v_inv @ w.reshape(n_points, 3, n_cam)
            v_inv_g = (v_inv @ grad_p.reshape(n_points, 3, 1)).ravel()
            schur = u + lam * np.diag(u_diag) - w.T @ v_inv_w.reshape(-1, n_cam)
            chol = scipy.linalg.cho_factor(schur, lower=True)
            step_c = scipy.linalg.cho_solve(chol, w.T @ v_inv_g - grad_c)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            return None
        step_p = -(v_inv_g + v_inv_w.reshape(-1, n_cam) @ step_c)
        step = np.empty(n_cols)
        step[~is_point] = step_c
        step[jac.point_cols[point_free]] = step_p.reshape(n_points, 3)[point_free]
        return step

    return solve


def levenberg_marquardt(problem: LeastSquaresProblem, x0,
                        cfg: LmConfig | None = None) -> LmReport:
    """Minimize ``0.5*||r(x)||^2`` starting from ``x0``.

    Raises NonFiniteResidual if the residual (or Jacobian input point) is
    non-finite at the current iterate, and SingularNormalEquations if the
    damped system stays unsolvable up to the damping cap.
    """
    cfg = cfg or LmConfig()
    x = np.array(x0, dtype=np.float64).ravel()
    r = _eval_residual(problem, x)
    cost = _cost(r)
    initial_cost = cost
    history = [cost]
    lam = _INITIAL_DAMPING
    reason = "max-iter"
    iteration = 0

    for iteration in range(1, cfg.max_iters + 1):
        if problem.jacobian is None:
            solve = _dense_solver(numeric_jacobian(problem, x), r)
        else:
            jac = problem.jacobian(x)
            if isinstance(jac, PointBlockJacobian):
                values, solver = (jac.camera, jac.points), _point_block_solver
            else:
                jac = np.asarray(jac, dtype=np.float64)
                values, solver = (jac,), _dense_solver
            if not all(np.all(np.isfinite(v)) for v in values):
                raise NonFiniteResidual("Jacobian evaluator returned non-finite values")
            solve = solver(jac, r)

        while True:
            step = solve(lam)
            if step is None or not np.all(np.isfinite(step)):
                if lam >= _MAX_DAMPING:
                    raise SingularNormalEquations(
                        f"normal equations singular at damping {lam:.1e}"
                    )
                lam *= _DAMPING_UP
                continue

            if np.linalg.norm(step) < cfg.step_tol * (1.0 + np.linalg.norm(x)):
                return LmReport(x, initial_cost, cost, iteration, "step-tol",
                                history, r)

            x_trial = x + step
            r_trial = np.asarray(problem.residual(x_trial), dtype=np.float64).ravel()
            trial_cost = _cost(r_trial) if np.all(np.isfinite(r_trial)) else np.inf
            if trial_cost < cost:
                break
            lam *= _DAMPING_UP

        decrease = cost - trial_cost
        x, r, cost = x_trial, r_trial, trial_cost
        history.append(cost)
        lam = max(lam * _DAMPING_DOWN, 1e-32)
        if decrease <= cfg.cost_tol * max(cost, np.finfo(float).tiny):
            reason = "cost-tol"
            break

    return LmReport(x, initial_cost, cost, iteration, reason, history, r)
