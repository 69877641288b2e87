"""Damped nonlinear least squares (Levenberg-Marquardt).

The cost minimized is ``0.5 * sum(r(x)**2)``. The damped normal equations
``(J^T J + lambda diag(J^T J)) step = -J^T r`` are solved by a dense
Cholesky factorization when the Jacobian is an ndarray or not supplied.
When it is a :class:`BlockJacobian`, as every reprojection Jacobian is, its
blocks are eliminated first and only the reduced system of the kept columns
(the Schur complement) is factored; :func:`standard_errors` reads the same
elimination. Only that linear solve differs: damping over all free
parameters, step acceptance and termination are shared. A ``scipy.sparse``
Jacobian is not accepted; converting it fails with an error. The damping
starts at 1e-3 and is multiplied by 10 after a rejected step and by 0.1
after an accepted one. Steps are accepted only when the cost strictly
decreases, so the accepted-cost sequence is monotonically non-increasing.
Everything is deterministic.
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
    ``np.asarray`` turns into a float matrix, or a :class:`BlockJacobian`;
    its type selects the linear solve. A ``scipy.sparse`` array is neither,
    and the solver raises on it.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray | BlockJacobian]] = None


@dataclass(eq=False)
class BlockJacobian:
    """A Jacobian stored as per-observation blocks: kept columns, and the
    columns of eliminated blocks of width b.

    Observation k owns residual rows 2k and 2k+1; its only nonzero entries
    are ``kept[k]``, (2, c), in the columns ``kept_cols[k]``, and
    ``blocks[k]``, (2, b), in the columns ``block_cols[block[k]]``. A column
    index of -1 marks a frozen entry, whose values are ignored. Columns that
    no block owns are kept; observations may share a block and its kept
    columns. ``np.asarray`` gives the dense ``shape`` matrix.
    """

    kept: np.ndarray  # (m, 2, c) float
    kept_cols: np.ndarray  # (m, c) int
    blocks: np.ndarray  # (m, 2, b) float
    block: np.ndarray  # (m,) int
    block_cols: np.ndarray  # (n_blocks, b) int
    shape: tuple

    def __array__(self, dtype=None, copy=None):
        cols = np.concatenate([self.kept_cols, self.block_cols[self.block]], axis=1)
        values = np.concatenate([self.kept, self.blocks], axis=2)
        obs, slot = np.nonzero(cols >= 0)
        dense = np.zeros((len(cols), 2, self.shape[1]))
        dense[obs, :, cols[obs, slot]] = values[obs, :, slot]
        dense = dense.reshape(self.shape)
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


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` by Cholesky factorization; an empty ``a`` skips scipy."""
    if not len(a):
        return b
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)


_SINGULAR = (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError)


def _dense_solver(jac: np.ndarray, r: np.ndarray):
    """The damped step of a dense Jacobian, by Cholesky factorization of the
    damped normal equations."""
    jtj = jac.T @ jac
    grad = jac.T @ r
    return lambda lam: _spd_solve(jtj + lam * np.diag(jtj.diagonal()), -grad)


def _elimination(jac: BlockJacobian, r: np.ndarray):
    """Eliminate a block Jacobian's blocks from its normal equations (Triggs
    et al., "Bundle Adjustment - A Modern Synthesis", 2000, sec. 6).

    ``J^T J`` has the kept columns' block U, block i's (b, b) block V_i (a
    unit diagonal for a frozen entry) and their coupling W; ``J^T r`` is
    (g_k, g_b). Returns ``(reduce, join)``: ``reduce(lam)`` damps U and V by
    ``lam`` times their diagonals and gives ``V^-1``, ``V^-1 W^T``,
    ``V^-1 g_b``, ``S = U - W V^-1 W^T`` and ``W V^-1 g_b - g_k``; ``join``
    places a kept and a block-major vector in column order.
    """
    n_cols = jac.shape[1]
    n_blocks, width = jac.block_cols.shape
    axis = np.arange(width)
    block_free = jac.block_cols >= 0
    is_block = np.zeros(n_cols, dtype=bool)
    is_block[jac.block_cols[block_free]] = True
    n_kept = n_cols - int(is_block.sum())
    # Frozen entries get zero values, so their (clipped) index adds nothing.
    kept_row = (np.cumsum(~is_block) - 1)[np.maximum(jac.kept_cols, 0)]
    a = np.where(jac.kept_cols[:, None, :] >= 0, jac.kept, 0.0)
    b = np.where(block_free[jac.block][:, None, :], jac.blocks, 0.0)
    # Contiguous transposes: numpy's stacked products run several times
    # faster with a contiguous left operand.
    a_t = np.ascontiguousarray(a.transpose(0, 2, 1))
    b_t = np.ascontiguousarray(b.transpose(0, 2, 1))
    block_row = width * jac.block[:, None] + axis  # (m, b) rows of V and W
    res = r.reshape(-1, 2, 1)

    def sums(index, values, size):
        return np.bincount(index.ravel(), values.ravel(), size)[:size]

    grad_kept = sums(kept_row, a_t @ res, n_kept)
    grad_block = sums(block_row, b_t @ res, width * n_blocks).reshape(n_blocks, width, 1)
    u = sums(kept_row[:, :, None] * n_kept + kept_row[:, None, :], a_t @ a,
             n_kept * n_kept).reshape(n_kept, n_kept)
    v = sums(block_row[:, :, None] * width + axis, b_t @ b,
             width * width * n_blocks).reshape(n_blocks, width, width)
    w = sums(block_row[:, :, None] * n_kept + kept_row[:, None, :], b_t @ a,
             width * n_blocks * n_kept).reshape(width * n_blocks, n_kept)
    frozen_block, frozen_axis = np.nonzero(~block_free)
    v[frozen_block, frozen_axis, frozen_axis] = 1.0

    def reduce(lam: float):
        v_damped = v.copy()
        v_damped[:, axis, axis] += lam * v[:, axis, axis]
        v_inv = np.linalg.inv(v_damped)
        v_inv_w = (v_inv @ w.reshape(n_blocks, width, n_kept)).reshape(len(w), n_kept)
        v_inv_g = (v_inv @ grad_block).ravel()
        schur = u + lam * np.diag(u.diagonal()) - w.T @ v_inv_w
        return v_inv, v_inv_w, v_inv_g, schur, w.T @ v_inv_g - grad_kept

    def join(kept: np.ndarray, block: np.ndarray) -> np.ndarray:
        out = np.empty(n_cols)
        out[~is_block] = kept
        out[jac.block_cols[block_free]] = block.reshape(n_blocks, width)[block_free]
        return out

    return reduce, join


def _block_solver(jac: BlockJacobian, r: np.ndarray):
    """The damped step of a block Jacobian: ``S dk = W V^-1 g_b - g_k`` by
    Cholesky factorization, then ``db_i = -V_i^-1 (g_b + W_i^T dk)``."""
    reduce, join = _elimination(jac, r)

    def solve(lam: float):
        _, v_inv_w, v_inv_g, schur, rhs = reduce(lam)
        step_k = _spd_solve(schur, rhs)
        return join(step_k, -(v_inv_g + v_inv_w @ step_k))

    return solve


def standard_errors(jac: BlockJacobian, residual: np.ndarray) -> np.ndarray:
    """First-order standard errors, ``sqrt(diag(sigma^2 (J^T J)^-1))`` with
    ``sigma^2 = r^T r / (m - n)``, in ``jac``'s column order. From the undamped
    elimination: the kept block is ``S^-1`` and block i's is
    ``V_i^-1 + V_i^-1 W_i^T S^-1 W_i V_i^-1``. All NaN when ``m <= n`` or V or
    S is singular, as the data then do not fix every parameter.
    """
    m, n = jac.shape
    if m <= n:
        return np.full(n, np.nan)
    reduce, join = _elimination(jac, residual)
    try:
        v_inv, v_inv_w, _, schur, _ = reduce(0.0)
        s_inv = _spd_solve(schur, np.eye(len(schur)))
    except _SINGULAR:
        return np.full(n, np.nan)
    v_inv_w = v_inv_w.reshape(*v_inv.shape[:2], len(schur))
    var = join(s_inv.diagonal(), np.diagonal(v_inv, axis1=1, axis2=2)
               + ((v_inv_w @ s_inv) * v_inv_w).sum(axis=2))
    return np.sqrt(np.maximum(residual @ residual / (m - n) * var, 0.0))


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
        jac = (numeric_jacobian(problem, x) if problem.jacobian is None
               else problem.jacobian(x))
        if isinstance(jac, BlockJacobian):
            values, solver = (jac.kept, jac.blocks), _block_solver
        else:
            jac = np.asarray(jac, dtype=np.float64)
            values, solver = (jac,), _dense_solver
        if not all(np.all(np.isfinite(v)) for v in values):
            raise NonFiniteResidual("Jacobian evaluator returned non-finite values")
        solve = solver(jac, r)

        while True:
            try:
                step = solve(lam)
            except _SINGULAR:
                step = None
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
