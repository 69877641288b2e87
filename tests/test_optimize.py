import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from camkit import (
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    LeastSquaresProblem,
    LmConfig,
    levenberg_marquardt,
    numeric_jacobian,
)
from camkit.errors import NonFiniteResidual, SingularNormalEquations
from camkit.geometry import project_points, reprojection_problem
from camkit.optimize import (
    BlockJacobian,
    BlockLayout,
    _block_solver,
    _SINGULAR,
    _elimination,
    _spd_solve,
    standard_errors,
)
from camkit.synthetic import sample_ring_poses


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
    # A scipy.sparse Jacobian is refused, not densified; numpy's conversion
    # error is a TypeError or a ValueError depending on its version.
    with pytest.raises((TypeError, ValueError)):
        levenberg_marquardt(LeastSquaresProblem(
            problem.residual, lambda x: sparse.csr_array(np.eye(2))), np.zeros(2))


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


def dense_solver(jac, r):
    """The damped step of a dense Jacobian by Cholesky factorization of the
    whole damped normal equations: the reference for the block solve."""
    jac = np.asarray(jac)
    jtj = jac.T @ jac
    grad = jac.T @ r
    return lambda lam: _spd_solve(jtj + lam * np.diag(jtj.diagonal()), -grad)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), extra=st.integers(0, 27))
@example(seed=0, n=5, extra=0)  # square
@example(seed=1, n=4, extra=7)  # odd row count
def test_matrix_jacobian_is_a_block_jacobian_that_eliminates_nothing(seed, n, extra):
    rng = np.random.default_rng(seed)
    m = n + extra
    jac = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-2.0, 2.0, n)
    r = rng.normal(size=m)
    blocks = BlockJacobian.dense(jac)
    assert blocks.blocks.shape == (1, m, 0)
    assert np.asarray(blocks).tobytes() == jac.tobytes()
    for lam in (1e-3, 1.0):
        expected = dense_solver(jac, r)(lam)
        step = _block_solver(blocks, r)(lam)
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)
    if m > n and conditioned(jac, 1e-4):
        sigma2 = float(r @ r) / (m - n)
        expected = np.sqrt(sigma2 * np.diag(np.linalg.inv(jac.T @ jac)))
        assert np.max(np.abs(standard_errors(blocks, r) - expected) / expected) < 1e-6


KINDS = ("points", "points+globals", "poses", "pose")


def random_reprojection_problem(rng: np.random.Generator, kind: str):
    """A reprojection problem for the block solve, of one of four kinds.

    The ``points`` kinds are bundle-adjustment-like, so the points are
    eliminated: 2-6 ring views of 3-40 free points, each point seen by one
    view up to all and each view seeing at least 4 points. Frozen: the first
    pose, the second pose's largest translation coordinate (the gauge),
    about a fifth of the other pose entries, and the coordinate along the
    viewing axis of each point seen once; the points start 2 mm off. With
    ``points+globals`` some of fx, fy and k1 are free too. ``poses`` is
    calibration-like, so the poses are eliminated: the points are frozen,
    some of fx, fy, cx, cy and k1 are free, about a fifth of the pose entries
    are frozen and the poses start off their truth. ``pose`` is
    ``refine_pose``-like: the same with one view and nothing kept. Every
    kind has 0.5 px noise and one observation repeated. Returns
    ``(problem, x0)``."""
    n_poses = 1 if kind == "pose" else int(rng.integers(2, 7))
    n_points = int(rng.integers(3, 41))
    intr = CameraIntrinsics(fx=800.0, fy=780.0, cx=320.0, cy=240.0, skew=0.5)
    dist = DistortionCoeffs(k1=-0.2, k2=0.05, k3=0.01, p1=1e-3, p2=-2e-3)
    ring = sample_ring_poses(n_poses, radius=500.0, elevation_deg=25.0,
                             sweep_deg=float(rng.uniform(30.0, 120.0)),
                             start_deg=float(rng.uniform(0.0, 360.0)))
    poses = np.array([np.concatenate([p.axis_angle(), p.translation]) for p in ring])
    points = rng.uniform(-100.0, 100.0, (n_points, 3))
    obs = [(v, j) for j in range(n_points)
           for v in rng.choice(n_poses, int(rng.integers(1, n_poses + 1)), replace=False)]
    for v in range(n_poses):
        unseen = sorted(set(range(n_points)) - {j for w, j in obs if w == v})
        missing = min(4, n_points) - (n_points - len(unseen))
        obs += [(v, j) for j in rng.choice(unseen, max(missing, 0), replace=False)]
    obs.append(obs[int(rng.integers(len(obs)))])
    obs_pose, obs_point = np.array(obs).T
    obs_px = np.array([project_points(points[j], poses[v:v + 1, :3], poses[v:v + 1, 3:],
                                      intr, dist, pose_of=np.zeros(1, dtype=np.intp))[0]
                       for v, j in obs]) + rng.normal(0.0, 0.5, (len(obs), 2))

    free_poses = np.zeros((n_poses, 6), dtype=bool)
    free_points = False
    start = points
    if kind.startswith("points"):
        free_globals = np.array(["fx", "fy", "k1"])[
            (kind == "points+globals") & (rng.random(3) < 0.7)]
        free_poses[1:] = (rng.random(poses.size - 6) < 0.8).reshape(-1, 6)
        free_poses[1, 3 + np.argmax(np.abs(poses[1, 3:]))] = False
        free_points = np.ones_like(points, dtype=bool)
        seen = np.bincount(obs_point, minlength=n_points)
        for j in np.flatnonzero(seen == 1):
            axis = ring[obs_pose[obs_point == j][0]].rotation[2]
            free_points[j, np.argmax(np.abs(axis))] = False
        start = points + rng.normal(0.0, 2.0, points.shape)
    else:
        free_globals = np.array(["fx", "fy", "cx", "cy", "k1"])[
            (kind == "poses") & (rng.random(5) < 0.7)]
        free_poses[:] = (rng.random(poses.size) < 0.8).reshape(-1, 6)
        poses = poses + rng.normal(0.0, 1.0, poses.shape) * ([0.01] * 3 + [2.0] * 3)
        ring = [CameraPose.from_axis_angle(p[:3], p[3:]) for p in poses]
    problem, x0, _ = reprojection_problem(
        start, ring, intr, dist, obs_pose, obs_point, obs_px,
        free_globals=tuple(free_globals), free_poses=free_poses, free_points=free_points)
    return problem, x0


def conditioned(jac, ratio: float) -> bool:
    """Whether the column-scaled Jacobian's singular values stay within
    ``ratio`` of its largest, far from rank deficient."""
    dense = np.asarray(jac)
    sv = np.linalg.svd(dense / np.linalg.norm(dense, axis=0), compute_uv=False)
    return sv[-1] > ratio * sv[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(KINDS))
@example(seed=611314, kind="poses")  # a slow valley: see the end of the test
def test_point_block_solve_matches_dense_cholesky(seed, kind):
    problem, x0 = random_reprojection_problem(np.random.default_rng(seed), kind)
    jac = problem.jacobian(x0)
    assert jac.blocks.shape[2] == (3 if kind.startswith("points") else 6)
    if kind == "pose":
        assert jac.kept.shape[2] == 0
    dense_jac = np.asarray(jac)
    r = problem.residual(x0)
    for lam in (1e-3, 1.0):  # the starting damping and a heavy one
        blocks = _block_solver(jac, r)(lam)
        dense = dense_solver(dense_jac, r)(lam)
        assert np.linalg.norm(blocks - dense) <= 1e-9 * np.linalg.norm(dense)

    # Whole solves agree only where the data fix the answer: with a nearly
    # rank-deficient Jacobian the two solves drift apart along its null space.
    # cost_tol stays well above rounding: at the default 1e-10 a solve can end
    # on a decrease of a few ulps, where whether the last step is accepted
    # depends on the last bit of the cost.
    assume(conditioned(jac, 1e-6))
    cfg = LmConfig(cost_tol=1e-6)
    via_blocks = levenberg_marquardt(problem, x0, cfg)
    via_dense = levenberg_marquardt(
        LeastSquaresProblem(problem.residual, lambda x: np.asarray(problem.jacobian(x))),
        x0, cfg)
    assert via_blocks.iterations == via_dense.iterations
    assert via_blocks.reason == via_dense.reason
    assert via_blocks.final_cost == pytest.approx(via_dense.final_cost, rel=1e-8)
    # The params are compared only where both solves end stationary: where
    # the Gauss-Newton step from the final gradient, (J^T J)^-1 J^T r, is
    # within half the bound, each lies that close to the one minimum. A solve
    # that stops on cost-tol short of it ends where its rounding led it along
    # a slow valley: the pinned example stops after 65 iterations a step of
    # 1.3 from stationary, the two solves 1.3e-5 apart.
    bound = 1e-8 * max(1.0, np.max(np.abs(via_dense.params)))
    if all(np.max(np.abs(dense_solver(problem.jacobian(lm.params), lm.residual)(0.0)))
           <= bound / 2
           for lm in (via_blocks, via_dense)):
        assert np.max(np.abs(via_blocks.params - via_dense.params)) <= bound


def elimination_per_call(jac, r):
    """A reference elimination that keeps no state between calls: every
    index is built from the column arrays on each call. Returns ``(U, V, W,
    g_k, g_b)`` and the damped step ``solve(lam)``."""
    kept_cols, block, block_cols = (jac.layout.kept_cols, jac.layout.block,
                                    jac.layout.block_cols)
    n_cols = jac.shape[1]
    n_blocks, width = block_cols.shape
    axis = np.arange(width)
    block_free = block_cols >= 0
    is_block = np.zeros(n_cols, dtype=bool)
    is_block[block_cols[block_free]] = True
    n_kept = n_cols - int(is_block.sum())
    kept_row = np.maximum(np.cumsum(~is_block) - 1, 0)[np.maximum(kept_cols, 0)]
    a = np.where(kept_cols[:, None, :] >= 0, jac.kept, 0.0)
    b = np.where(block_free[block][:, None, :], jac.blocks, 0.0)
    a_t = np.ascontiguousarray(a.transpose(0, 2, 1))
    b_t = np.ascontiguousarray(b.transpose(0, 2, 1))
    block_row = width * block[:, None] + axis
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
        out[block_cols[block_free]] = block.reshape(n_blocks, width)[block_free]
        return out

    def solve(lam: float):
        _, v_inv_w, v_inv_g, schur, rhs = reduce(lam)
        step_k = _spd_solve(schur, rhs)
        return join(step_k, -(v_inv_g + v_inv_w @ step_k))

    return (u, v, w, grad_kept, grad_block), solve


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(KINDS))
@example(seed=227009140, kind="points")  # every pose entry frozen: no kept column
def test_elimination_matches_per_call_assembly_bit_for_bit(seed, kind):
    problem, x0 = random_reprojection_problem(np.random.default_rng(seed), kind)
    x = x0 + np.random.default_rng(seed).normal(0.0, 1e-4, x0.shape)
    jac = problem.jacobian(x)
    r = problem.residual(x)
    expected, solve = elimination_per_call(jac, r)
    for got, want in zip(_elimination(jac, r), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for lam in (1e-3, 1.0):
        assert _block_solver(jac, r)(lam).tobytes() == solve(lam).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_jacobians_of_one_problem_share_one_read_only_layout(kind):
    problem, x0 = random_reprojection_problem(np.random.default_rng(3), kind)
    first = problem.jacobian(x0)
    second = problem.jacobian(x0 + 1e-3)
    assert second.layout is first.layout
    arrays = [a for a in vars(first.layout).values() if isinstance(a, np.ndarray)]
    assert len(arrays) >= 10
    assert not any(array.flags.writeable for array in arrays)


def test_layout_leaves_the_callers_arrays_writable():
    kept_cols = np.zeros((2, 1), dtype=np.int64)
    block = np.zeros(2, dtype=np.int64)
    block_cols = np.array([[1, 2, 3]])
    BlockLayout(kept_cols, block, block_cols, (4, 4))
    assert all(a.flags.writeable for a in (kept_cols, block, block_cols))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(KINDS))
def test_standard_errors_match_dense_inverse(seed, kind):
    problem, x0 = random_reprojection_problem(np.random.default_rng(seed), kind)
    jac = problem.jacobian(x0)
    r = problem.residual(x0)
    m, n = jac.shape
    # The inverse's rounding grows with the square of the condition number.
    assume(m > n and conditioned(jac, 1e-4))
    dense = np.asarray(jac)
    cost = 0.5 * float(r @ r)
    expected = np.sqrt(2.0 * cost / (m - n) * np.diag(np.linalg.inv(dense.T @ dense)))
    assert np.max(np.abs(standard_errors(jac, r) - expected) / expected) < 1e-6


def one_point_problem(points_block):
    """A linear problem in one camera column and one point, observed twice,
    whose Jacobian is the point-block form with the given (2, 2, 3) point
    blocks."""
    layout = BlockLayout(np.zeros((2, 1), dtype=np.int64), np.zeros(2, dtype=np.int64),
                         np.array([[1, 2, 3]]), (4, 4))
    jac = BlockJacobian(np.array([[[1.0], [0.5]], [[0.2], [1.0]]]), points_block, layout)
    target = np.array([1.0, 2.0, 3.0, 4.0])
    return LeastSquaresProblem(lambda x: np.nan_to_num(np.asarray(jac)) @ x - target,
                               lambda x: jac)


def test_lm_raises_on_dead_point_column():
    # No residual depends on the point's z.
    problem = one_point_problem(np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                          [[1.0, 1.0, 0.0], [0.0, 2.0, 0.0]]]))
    with pytest.raises(SingularNormalEquations):
        levenberg_marquardt(problem, np.zeros(4))


def test_standard_errors_are_nan_on_dead_point_column():
    problem = one_point_problem(np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                          [[1.0, 1.0, 0.0], [0.0, 2.0, 0.0]]]))
    # Five residuals for the four columns, so only the dead column fails.
    jac = problem.jacobian(None)
    layout = BlockLayout(np.zeros((3, 1), dtype=np.int64), np.zeros(3, dtype=np.int64),
                         jac.layout.block_cols, (6, 4))
    jac = BlockJacobian(np.concatenate([jac.kept, [[[0.3], [0.0]]]]),
                        np.concatenate([jac.blocks, [[[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]]]),
                        layout)
    assert np.all(np.isnan(standard_errors(jac, np.ones(6))))


def test_standard_errors_are_nan_without_redundancy():
    # One pose seen through three points: six residuals for six columns.
    world = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
    intr = CameraIntrinsics(fx=800.0, fy=800.0, cx=320.0, cy=240.0)
    pose = np.array([0.1, -0.2, 0.05, 10.0, -5.0, 500.0])
    px = project_points(world, pose[None, :3], pose[None, 3:], intr, DistortionCoeffs(),
                        pose_of=np.zeros(3, dtype=np.intp)) + 0.3
    problem, x0, _ = reprojection_problem(
        world, [CameraPose.from_axis_angle(pose[:3], pose[3:])], intr,
        DistortionCoeffs(), np.zeros(3, dtype=np.int64), np.arange(3), px,
        free_poses=True)
    jac = problem.jacobian(x0)
    assert jac.shape == (6, 6)
    assert np.all(np.isnan(standard_errors(jac, problem.residual(x0))))


def test_lm_rejects_non_finite_point_block():
    problem = one_point_problem(np.array([[[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]],
                                          [[1.0, np.nan, 0.0], [0.0, 2.0, 1.0]]]))
    with pytest.raises(NonFiniteResidual):
        levenberg_marquardt(problem, np.zeros(4))


def test_lm_raises_on_non_finite_start():
    problem = LeastSquaresProblem(lambda x: np.array([np.inf]))
    with pytest.raises(NonFiniteResidual):
        levenberg_marquardt(problem, np.zeros(1))


def test_lm_config_validation():
    for bad in ({"max_iters": 0}, {"max_iters": 2.5}, {"cost_tol": np.nan},
                {"step_tol": -1e-12}):
        with pytest.raises(ValueError):
            LmConfig(**bad)


def random_spd(rng, n: int, cond: float) -> np.ndarray:
    """A symmetric positive definite matrix with eigenvalues from 1 to ``cond``
    in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0, np.log10(cond), n)) @ q.T


@pytest.mark.parametrize("n", [1, 2, 6, 23, 24, 100, 600])
def test_spd_solve_matches_scipy_cholesky(n):
    rng = np.random.default_rng(n)
    cond = 1e3
    a = random_spd(rng, n, cond)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
        x = _spd_solve(a, b)
        assert x.shape == b.shape
        # Both solves are backward stable, so each lies within about
        # n eps cond(a) of the exact solution (relative, in norm).
        bound = n * np.finfo(float).eps * cond
        assert np.linalg.norm(x - reference) <= bound * np.linalg.norm(reference)


@pytest.mark.parametrize("n", [2, 6, 23, 100])
def test_spd_solve_ignores_the_scale_of_each_unknown(n):
    # Scaling unknown i by a power of two d_i makes the system D a D and the
    # solution D^-1 x. Cholesky and triangular solves carry such a scaling
    # through exactly; a pivoted solve with L's raw rows picks other pivots
    # and can lose a hundred ulps here.
    rng = np.random.default_rng(n)
    a = random_spd(rng, n, 100.0)
    d = 2.0 ** rng.integers(-20, 21, n)
    b = rng.standard_normal((n, 2))
    x = _spd_solve(a, b)
    scaled = _spd_solve(d[:, None] * a * d, d[:, None] * b) * d[:, None]
    assert np.max(np.abs(scaled - x)) <= 4 * np.finfo(float).eps * np.max(np.abs(x))


def test_spd_solve_returns_b_for_an_empty_system():
    b = np.empty(0)
    assert _spd_solve(np.empty((0, 0)), b) is b


def test_spd_solve_rejects_an_indefinite_matrix():
    for a in (np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
              np.zeros((2, 2))):
        with pytest.raises(np.linalg.LinAlgError):
            _spd_solve(a, np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_solve_rejects_non_finite_input(bad):
    # (0, 1) lies in the upper triangle, which the factorization never reads.
    for index in ((0, 1), (1, 0), (2, 2)):
        a = np.eye(3)
        a[index] = bad
        with pytest.raises(_SINGULAR):
            _spd_solve(a, np.ones(3))
    b = np.ones((3, 2))
    b[1, 1] = bad
    with pytest.raises(_SINGULAR):
        _spd_solve(np.eye(3), b)
