"""Damped nonlinear least squares (Levenberg-Marquardt) on dense problems.

The cost minimized is ``0.5 * sum(r(x)**2)``. The damped normal equations
``(J^T J + lambda diag(J^T J)) step = -J^T r`` are solved by Cholesky
factorization; steps are accepted only when the cost strictly decreases, so
the accepted-cost sequence is monotonically non-increasing. Everything is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import NonFiniteResidual, SingularNormalEquations

_MAX_DAMPING = 1e10


@dataclass
class LeastSquaresProblem:
    """A residual evaluator plus an optional analytic Jacobian.

    The evaluator must be deterministic and return a fixed-length residual
    vector of dimension >= the parameter dimension.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class LmConfig:
    """Tuning knobs for :func:`levenberg_marquardt`."""

    initial_damping: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 0.1
    max_iters: int = 100
    cost_tol: float = 1e-10  # relative cost decrease
    step_tol: float = 1e-12

    def __post_init__(self):
        values = (self.initial_damping, self.damping_up, self.damping_down,
                  self.max_iters, self.cost_tol, self.step_tol)
        if any(v <= 0 for v in values):
            raise ValueError("all LM configuration values must be positive")
        if not (self.damping_up > 1.0 > self.damping_down):
            raise ValueError("damping factors must straddle 1")


@dataclass
class LmReport:
    """Outcome of one Levenberg-Marquardt solve.

    ``cost_history`` lists the cost after every accepted step, starting with
    the initial cost; it is non-increasing by construction.
    """

    params: np.ndarray
    initial_cost: float
    final_cost: float
    iterations: int
    reason: str  # "cost-tol" | "step-tol" | "max-iter"
    cost_history: Optional[list] = None


def _eval_residual(problem: LeastSquaresProblem, x: np.ndarray) -> np.ndarray:
    r = np.asarray(problem.residual(x), dtype=np.float64).ravel()
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residual evaluator returned non-finite values")
    return r


def numeric_jacobian(problem: LeastSquaresProblem, x, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with per-parameter step ``eps*max(1,|x_j|)``."""
    x = np.asarray(x, dtype=np.float64).ravel()
    r0 = _eval_residual(problem, x)
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = eps * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        jac[:, j] = (_eval_residual(problem, xp) - _eval_residual(problem, xm)) / (2.0 * h)
    return jac


def _cost(r: np.ndarray) -> float:
    return 0.5 * float(r @ r)


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
    lam = cfg.initial_damping
    reason = "max-iter"
    iteration = 0

    for iteration in range(1, cfg.max_iters + 1):
        if problem.jacobian is not None:
            jac = np.asarray(problem.jacobian(x), dtype=np.float64)
            if not np.all(np.isfinite(jac)):
                raise NonFiniteResidual("Jacobian evaluator returned non-finite values")
        else:
            jac = numeric_jacobian(problem, x)
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(jtj).copy()

        accepted = False
        while True:
            try:
                chol = scipy.linalg.cho_factor(jtj + lam * np.diag(diag), lower=True)
                step = scipy.linalg.cho_solve(chol, -grad)
            except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
                step = None
            if step is None or not np.all(np.isfinite(step)):
                if lam >= _MAX_DAMPING:
                    raise SingularNormalEquations(
                        f"normal equations singular at damping {lam:.1e}"
                    )
                lam *= cfg.damping_up
                continue

            if np.linalg.norm(step) < cfg.step_tol * (1.0 + np.linalg.norm(x)):
                return LmReport(x, initial_cost, cost, iteration, "step-tol",
                                history)

            x_trial = x + step
            r_trial = np.asarray(problem.residual(x_trial), dtype=np.float64).ravel()
            trial_cost = _cost(r_trial) if np.all(np.isfinite(r_trial)) else np.inf
            if trial_cost < cost:
                accepted = True
                break
            lam *= cfg.damping_up

        decrease = cost - trial_cost
        x, r, cost = x_trial, r_trial, trial_cost
        history.append(cost)
        lam = max(lam * cfg.damping_down, 1e-32)
        if decrease <= cfg.cost_tol * max(cost, np.finfo(float).tiny):
            reason = "cost-tol"
            break

    return LmReport(x, initial_cost, cost, iteration, reason, history)
