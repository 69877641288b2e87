import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from camkit import LeastSquaresProblem, LmConfig, levenberg_marquardt, numeric_jacobian
from camkit.errors import NonFiniteResidual, SingularNormalEquations


def test_numeric_jacobian_identity():
    problem = LeastSquaresProblem(lambda x: x.copy())
    jac = numeric_jacobian(problem, np.array([1.0, -2.0]))
    assert np.max(np.abs(jac - np.eye(2))) < 1e-9


def test_numeric_jacobian_quadratic():
    problem = LeastSquaresProblem(lambda x: np.array([x[0] ** 2, x[0] * x[1]]))
    jac = numeric_jacobian(problem, np.array([3.0, 2.0]))
    assert np.max(np.abs(jac - np.array([[6.0, 0.0], [2.0, 3.0]]))) < 1e-6


def test_numeric_jacobian_constant_residual():
    problem = LeastSquaresProblem(lambda x: np.array([5.0, -1.0, 2.0]))
    jac = numeric_jacobian(problem, np.array([0.3, 0.7]))
    assert np.max(np.abs(jac)) < 1e-9


def test_numeric_jacobian_rejects_nan():
    problem = LeastSquaresProblem(lambda x: np.array([np.nan]))
    with pytest.raises(NonFiniteResidual):
        numeric_jacobian(problem, np.array([1.0]))


def test_lm_solves_linear_problem():
    problem = LeastSquaresProblem(lambda x: x - np.array([1.0, 2.0]))
    report = levenberg_marquardt(problem, np.zeros(2))
    assert report.params == pytest.approx([1.0, 2.0], abs=1e-9)
    assert report.final_cost < 1e-18
    assert report.final_cost <= report.initial_cost


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def test_lm_solves_rosenbrock():
    report = levenberg_marquardt(LeastSquaresProblem(rosenbrock),
                                 np.array([-1.2, 1.0]))
    assert report.params == pytest.approx([1.0, 1.0], abs=1e-6)
    reference = scipy.optimize.least_squares(rosenbrock, [-1.2, 1.0], method="lm")
    assert report.params == pytest.approx(reference.x.tolist(), abs=1e-6)


def test_lm_terminates_quickly_at_optimum():
    problem = LeastSquaresProblem(lambda x: x - np.array([1.0, 2.0]))
    x_opt = np.array([1.0, 2.0])
    report = levenberg_marquardt(problem, x_opt)
    assert report.iterations <= 2
    assert report.reason in ("cost-tol", "step-tol")
    assert np.max(np.abs(report.params - x_opt)) < 1e-12


def test_lm_cost_history_is_non_increasing():
    for x0 in ([-1.2, 1.0], [3.0, -3.0], [0.0, 0.0]):
        report = levenberg_marquardt(LeastSquaresProblem(rosenbrock),
                                     np.array(x0))
        hist = np.array(report.cost_history)
        assert np.all(np.diff(hist) <= 0)


def inconsistent(x):
    """A problem with a nonzero residual at its optimum."""
    return np.array([x[0] ** 2 - 2.0, x[0] * x[1] - 1.0, x[1] - 0.5])


@pytest.mark.parametrize("residual, x0, max_iters, reason", [
    (inconsistent, [1.0, 1.0], 100, "cost-tol"),
    (rosenbrock, [-1.2, 1.0], 100, "step-tol"),
    (rosenbrock, [-1.2, 1.0], 3, "max-iter"),
])
def test_lm_report_carries_final_residual(residual, x0, max_iters, reason):
    problem = LeastSquaresProblem(residual)
    report = levenberg_marquardt(problem, np.array(x0), LmConfig(max_iters=max_iters))
    assert report.reason == reason
    assert report.residual.tobytes() == problem.residual(report.params).tobytes()


def test_lm_invariant_to_residual_permutation():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(12, 3))
    b = rng.normal(size=12)
    perm = rng.permutation(12)

    direct = levenberg_marquardt(
        LeastSquaresProblem(lambda x: a @ x - b), np.zeros(3))
    permuted = levenberg_marquardt(
        LeastSquaresProblem(lambda x: (a @ x - b)[perm]), np.zeros(3))
    assert abs(direct.final_cost - permuted.final_cost) <= 1e-12 * max(
        1.0, direct.final_cost)


def test_lm_raises_on_dead_parameter():
    problem = LeastSquaresProblem(lambda x: np.array([x[0] - 1.0, x[0] + 2.0]))
    with pytest.raises(SingularNormalEquations):
        levenberg_marquardt(problem, np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_lm_sparse_jacobian_matches_dense(seed):
    # A sparse, well-conditioned, mildly nonlinear problem with a nonzero
    # residual at the optimum. cost_tol stays well above rounding: at the
    # default 1e-10 a solve can end on a decrease of a few ulps, where
    # whether the last step is accepted depends on the last bit of the cost.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    m = n + int(rng.integers(1, 20))
    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.3)
    a[:n] += np.diag(2.0 + rng.random(n))
    b = rng.normal(size=m)

    def residual(x):
        u = a @ x
        return u + 0.05 * u ** 3 - b

    def jacobian(x):
        u = a @ x
        return (1.0 + 0.15 * u ** 2)[:, None] * a

    x0 = rng.normal(size=n)
    cfg = LmConfig(cost_tol=1e-6)
    dense = levenberg_marquardt(LeastSquaresProblem(residual, jacobian), x0, cfg)
    csr = levenberg_marquardt(
        LeastSquaresProblem(residual, lambda x: sparse.csr_array(jacobian(x))),
        x0, cfg)
    scale = max(1.0, np.max(np.abs(dense.params)))
    assert np.max(np.abs(csr.params - dense.params)) <= 1e-10 * scale
    assert csr.iterations == dense.iterations
    assert csr.reason == dense.reason


def test_lm_raises_on_dead_parameter_of_sparse_jacobian():
    problem = LeastSquaresProblem(
        lambda x: np.array([x[0] - 1.0, x[0] + 2.0]),
        lambda x: sparse.csr_array(np.array([[1.0, 0.0], [1.0, 0.0]])))
    with pytest.raises(SingularNormalEquations):
        levenberg_marquardt(problem, np.zeros(2))


def test_lm_rejects_non_finite_sparse_jacobian():
    problem = LeastSquaresProblem(
        lambda x: x - np.array([1.0, 2.0]),
        lambda x: sparse.csr_array(np.array([[1.0, 0.0], [np.nan, 1.0]])))
    with pytest.raises(NonFiniteResidual):
        levenberg_marquardt(problem, np.zeros(2))


def test_lm_raises_on_non_finite_start():
    problem = LeastSquaresProblem(lambda x: np.array([np.inf]))
    with pytest.raises(NonFiniteResidual):
        levenberg_marquardt(problem, np.zeros(1))


def test_lm_config_validation():
    with pytest.raises(ValueError):
        LmConfig(max_iters=0)
