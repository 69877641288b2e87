"""Damped nonlinear least squares (Levenberg-Marquardt).

The cost minimized is ``0.5 * sum(r(x)**2)``. The damped normal equations
``(J^T J + lambda diag(J^T J)) step = -J^T r`` have one solve: the blocks of
a :class:`BlockJacobian`, as every reprojection Jacobian is, are eliminated
and only the reduced system of the kept columns (the Schur complement) is
factored, by numpy's Cholesky factorization. A matrix Jacobian, analytic or
by central differences when none is supplied, is a :class:`BlockJacobian`
that eliminates nothing, so its reduced system is the whole ``J^T J``.
:func:`standard_errors` reads the same elimination. Which column each block
entry lands in, a :class:`BlockLayout`, is built once per problem and shared
by all its Jacobians, so each iteration only masks and sums new values; a
reprojection Jacobian forms only the blocks of parameters that are free. A
``scipy.sparse`` Jacobian is not accepted; converting it fails with an
error. The damping starts at 1e-3 and is multiplied by 10 after a rejected
step and by 0.1 after an accepted one. Steps are accepted only when the cost
strictly decreases, so the accepted-cost sequence is monotonically
non-increasing. Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
    ``np.asarray`` turns into a float matrix, which the solver takes as
    :meth:`BlockJacobian.dense`, or a :class:`BlockJacobian`. A
    ``scipy.sparse`` array is neither, and the solver raises on it.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray | BlockJacobian]] = None


class BlockLayout:
    """Where each entry of a :class:`BlockJacobian` lands: everything about
    the Jacobian that does not change while its values do.

    Observation k owns residual rows hk to hk+h-1, h the blocks' height (2
    for a reprojection); its only nonzero entries are ``kept[k]``, (h, c), in
    the columns ``kept_cols[k]``, and ``blocks[k]``, (h, b), in the columns
    ``block_cols[block[k]]``, where b = 0 eliminates nothing. A column
    index of -1 marks a frozen entry, whose values are ignored. Columns that
    no block owns are kept; observations may share a block and its kept
    columns. The Jacobian is ``shape``.

    Built once per problem (Triggs et al., "Bundle Adjustment - A Modern
    Synthesis", 2000, sec. 6; Agarwal et al., "Bundle Adjustment in the
    Large", 2010): besides its arguments it holds the masks of free entries
    and the flat indices that :func:`_elimination` sums the products of each
    observation into, which the elimination would otherwise rebuild on every
    Jacobian. Every array is read-only.
    """

    def __init__(self, kept_cols: np.ndarray, block: np.ndarray,
                 block_cols: np.ndarray, shape: tuple):
        # Copies, so that freezing them leaves the caller's arrays alone.
        kept_cols, block, block_cols = map(np.array, (kept_cols, block, block_cols))
        self.kept_cols, self.block, self.block_cols = kept_cols, block, block_cols
        self.shape = shape
        width = block_cols.shape[1]
        axis = np.arange(width)
        self.block_free = block_cols >= 0
        is_block = np.zeros(shape[1], dtype=bool)
        is_block[block_cols[self.block_free]] = True
        self.kept_at = np.flatnonzero(~is_block)  # column of each kept row
        n_kept = len(self.kept_at)
        # The masks give frozen entries zero values, so their index, clipped
        # to row 0 (a valid index even when no column is kept), adds nothing.
        self.kept_free = kept_cols[:, None, :] >= 0
        self.block_free_of = self.block_free[block][:, None, :]
        kept_row = np.maximum(np.cumsum(~is_block) - 1, 0)[np.maximum(kept_cols, 0)]
        block_row = width * block[:, None] + axis  # (m, b) rows of V and W
        self.kept_row, self.block_row = kept_row, block_row
        self.u_index = kept_row[:, :, None] * n_kept + kept_row[:, None, :]
        self.v_index = block_row[:, :, None] * width + axis
        self.w_index = block_row[:, :, None] * n_kept + kept_row[:, None, :]
        self.frozen_block, self.frozen_axis = np.nonzero(~self.block_free)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.setflags(write=False)

    def join(self, kept: np.ndarray, block: np.ndarray) -> np.ndarray:
        """A kept and a block-major vector placed in column order."""
        out = np.empty(self.shape[1])
        out[self.kept_at] = kept
        out[self.block_cols[self.block_free]] = block.reshape(
            self.block_cols.shape)[self.block_free]
        return out


@dataclass(eq=False)
class BlockJacobian:
    """A Jacobian stored as per-observation blocks, ``kept`` (m, h, c) and
    ``blocks`` (m, h, b), placed by a :class:`BlockLayout` that every
    Jacobian of one problem shares. ``np.asarray`` gives the dense
    ``shape`` matrix, and :meth:`dense` takes a matrix back.
    """

    kept: np.ndarray  # (m, h, c) float
    blocks: np.ndarray  # (m, h, b) float
    layout: BlockLayout

    @classmethod
    def dense(cls, matrix) -> BlockJacobian:
        """A matrix as one observation that keeps every column and has
        zero-width blocks, so that a solve eliminates nothing."""
        matrix = np.asarray(matrix, dtype=np.float64)
        layout = BlockLayout(np.arange(matrix.shape[1])[None], np.zeros(1, dtype=np.intp),
                             np.empty((1, 0), dtype=np.intp), matrix.shape)
        return cls(matrix[None], np.empty((1, len(matrix), 0)), layout)

    @property
    def shape(self) -> tuple:
        return self.layout.shape

    def __array__(self, dtype=None, copy=None):
        layout = self.layout
        cols = np.concatenate([layout.kept_cols, layout.block_cols[layout.block]], axis=1)
        values = np.concatenate([self.kept, self.blocks], axis=2)
        obs, slot = np.nonzero(cols >= 0)
        dense = np.zeros((len(cols), values.shape[1], self.shape[1]))
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
    """``a^-1 b`` from numpy's Cholesky factor L of ``a``: ``L y = b`` with L's
    rows scaled to a unit diagonal, so that pivoting ignores each unknown's
    scale, then ``L^T x = y``. An empty ``a`` returns ``b``. Raises LinAlgError
    unless ``a`` is positive definite, ValueError if ``a`` or ``b`` is not finite."""
    if not len(a):
        return b
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite linear system")
    low = np.linalg.cholesky(a)
    diag = low.diagonal()
    return np.linalg.solve(low.T, np.linalg.solve(low / diag[:, None], (b.T / diag).T))


_SINGULAR = (np.linalg.LinAlgError, ValueError)


def _elimination(jac: BlockJacobian, r: np.ndarray):
    """The normal equations of a block Jacobian by block (Triggs et al.,
    "Bundle Adjustment - A Modern Synthesis", 2000, sec. 6).

    ``J^T J`` has the kept columns' block U, block i's (b, b) block V_i (a
    unit diagonal for a frozen entry) and their coupling W; ``J^T r`` is
    (g_k, g_b). Returns ``(U, V, W, g_k, g_b)`` with V ``(n_blocks, b, b)``,
    W ``(n_blocks * b, n_kept)`` and g_b ``(n_blocks, b, 1)``. Only the values
    are new on each call: the products of each observation are summed into
    place by the indices of the Jacobian's :class:`BlockLayout`.
    """
    layout = jac.layout
    n_blocks, width = layout.block_cols.shape
    n_kept = len(layout.kept_at)
    a = np.where(layout.kept_free, jac.kept, 0.0)
    b = np.where(layout.block_free_of, jac.blocks, 0.0)
    # Contiguous transposes: numpy's stacked products run several times
    # faster with a contiguous left operand.
    a_t = np.ascontiguousarray(a.transpose(0, 2, 1))
    b_t = np.ascontiguousarray(b.transpose(0, 2, 1))
    res = r.reshape(a.shape[0], a.shape[1], 1)

    def sums(index, values, size):
        return np.bincount(index.ravel(), values.ravel(), size)[:size]

    grad_kept = sums(layout.kept_row, a_t @ res, n_kept)
    grad_block = sums(layout.block_row, b_t @ res,
                      width * n_blocks).reshape(n_blocks, width, 1)
    u = sums(layout.u_index, a_t @ a, n_kept * n_kept).reshape(n_kept, n_kept)
    v = sums(layout.v_index, b_t @ b,
             width * width * n_blocks).reshape(n_blocks, width, width)
    w = sums(layout.w_index, b_t @ a,
             width * n_blocks * n_kept).reshape(width * n_blocks, n_kept)
    v[layout.frozen_block, layout.frozen_axis, layout.frozen_axis] = 1.0
    return u, v, w, grad_kept, grad_block


def _reduce(normal, lam: float):
    """Damp U and V of ``normal``, the output of :func:`_elimination`, by
    ``lam`` times their diagonals and eliminate the blocks: returns
    ``V^-1``, ``V^-1 W^T``, ``V^-1 g_b``, ``S = U - W V^-1 W^T`` and
    ``W V^-1 g_b - g_k``."""
    u, v, w, grad_kept, grad_block = normal
    n_blocks, width, _ = v.shape
    n_kept = len(u)
    axis = np.arange(width)
    v_damped = v.astype(float)  # an empty sum is an integer array
    v_damped[:, axis, axis] += lam * v[:, axis, axis]
    v_inv = np.linalg.inv(v_damped)
    v_inv_w = (v_inv @ w.reshape(n_blocks, width, n_kept)).reshape(w.shape)
    v_inv_g = (v_inv @ grad_block).ravel()
    schur = u + lam * np.diag(u.diagonal()) - w.T @ v_inv_w
    return v_inv, v_inv_w, v_inv_g, schur, w.T @ v_inv_g - grad_kept


def _block_solver(jac: BlockJacobian, r: np.ndarray):
    """The damped step of a block Jacobian: ``S dk = W V^-1 g_b - g_k`` by
    Cholesky factorization, then ``db_i = -V_i^-1 (g_b + W_i^T dk)``."""
    normal = _elimination(jac, r)

    def solve(lam: float):
        _, v_inv_w, v_inv_g, schur, rhs = _reduce(normal, lam)
        step_k = _spd_solve(schur, rhs)
        return jac.layout.join(step_k, -(v_inv_g + v_inv_w @ step_k))

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
    normal = _elimination(jac, residual)
    try:
        v_inv, v_inv_w, _, schur, _ = _reduce(normal, 0.0)
        s_inv = _spd_solve(schur, np.eye(len(schur)))
    except _SINGULAR:
        return np.full(n, np.nan)
    v_inv_w = v_inv_w.reshape(*v_inv.shape[:2], len(schur))
    var = jac.layout.join(s_inv.diagonal(), np.diagonal(v_inv, axis1=1, axis2=2)
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
        if not isinstance(jac, BlockJacobian):
            jac = BlockJacobian.dense(jac)
        if not (np.all(np.isfinite(jac.kept)) and np.all(np.isfinite(jac.blocks))):
            raise NonFiniteResidual("Jacobian evaluator returned non-finite values")
        solve = _block_solver(jac, r)

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
