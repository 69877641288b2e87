"""Damped nonlinear least squares (Levenberg-Marquardt).

The cost minimized is ``0.5 * sum(r(x)**2)``. The damped normal equations
``(J^T J + lambda diag(J^T J)) step = -J^T r`` are solved by a dense
Cholesky factorization when the Jacobian is an ndarray, and by a sparse LU
factorization (SuperLU, COLAMD ordering, diagonal pivots) when it is a
``scipy.sparse`` array, as the block-sparse bundle-adjustment Jacobian is.
Only that linear solve differs: damping, step acceptance and termination
are shared. The damping starts at 1e-3 and is multiplied by 10 after a
rejected step and by 0.1 after an accepted one. Steps are accepted only
when the cost strictly decreases, so the accepted-cost sequence is
monotonically non-increasing. Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import splu

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
    vector of dimension >= the parameter dimension. The Jacobian may be an
    ndarray or a ``scipy.sparse`` array; its type selects the linear solve.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray | sparse.sparray]] = None


@dataclass
class LmConfig:
    """Iteration cap and stopping tolerances for :func:`levenberg_marquardt`."""

    max_iters: int = 100
    cost_tol: float = 1e-10  # relative cost decrease
    step_tol: float = 1e-12

    def __post_init__(self):
        if any(v <= 0 for v in (self.max_iters, self.cost_tol, self.step_tol)):
            raise ValueError("all LM configuration values must be positive")


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


def _damped_step(jtj, diag: np.ndarray, lam: float, grad: np.ndarray):
    """Solve ``(jtj + lam diag(diag)) step = -grad``; None if the
    factorization fails."""
    try:
        if sparse.issparse(jtj):
            # The damped matrix is symmetric positive definite unless J has
            # a zero column, so diagonal pivots in a symmetric fill-reducing
            # order are stable, as in Cholesky; row pivoting only adds fill.
            damped = sparse.csc_array(jtj + sparse.diags_array(lam * diag))
            lu = splu(damped, permc_spec="COLAMD", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
            return lu.solve(-grad)
        chol = scipy.linalg.cho_factor(jtj + lam * np.diag(diag), lower=True)
        return scipy.linalg.cho_solve(chol, -grad)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError,
            RuntimeError):  # SuperLU raises RuntimeError on a singular factor
        return None


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
        if problem.jacobian is not None:
            jac = problem.jacobian(x)
            if sparse.issparse(jac):
                jac = sparse.csr_array(jac, dtype=np.float64)
                values = jac.data
            else:
                jac = values = np.asarray(jac, dtype=np.float64)
            if not np.all(np.isfinite(values)):
                raise NonFiniteResidual("Jacobian evaluator returned non-finite values")
        else:
            jac = numeric_jacobian(problem, x)
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = jtj.diagonal()

        while True:
            step = _damped_step(jtj, diag, lam, grad)
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
