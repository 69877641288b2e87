import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camkit import (
    CameraIntrinsics,
    CameraPose,
    CalibrationDataset,
    DistortionCoeffs,
    LeastSquaresProblem,
    LmConfig,
    calibrate,
    detect_corners,
    extrinsics_from_homography,
    init_intrinsics,
    levenberg_marquardt,
    numeric_jacobian,
    render_board,
    reprojection_stats,
    axis_angle_to_rotation,
    undistort_image,
)
from camkit.board import CornerGrid
from camkit.errors import (DegenerateMotion, InsufficientViews, ShapeMismatch,
                           SingularIntrinsics)
from camkit.synthetic import (
    frontoparallel_pose,
    pose_error,
    sample_board_poses,
    synthesize_corner_views,
)

from conftest import IMAGE_HEIGHT, IMAGE_WIDTH, REF_CX, REF_CY, REF_FX, REF_FY


def synth_homography(intrinsics, pose):
    k = intrinsics.matrix()
    h = k @ np.column_stack([pose.rotation[:, 0], pose.rotation[:, 1],
                             pose.translation])
    return h / h[2, 2]


@pytest.fixture()
def random_poses(board_spec, ref_intrinsics):
    rng = np.random.default_rng(17)
    return sample_board_poses(board_spec, ref_intrinsics, DistortionCoeffs(),
                              IMAGE_WIDTH, IMAGE_HEIGHT, 5, rng)


def test_init_intrinsics_from_synthetic_homographies(ref_intrinsics, random_poses):
    homs = [synth_homography(ref_intrinsics, p) for p in random_poses]
    k = init_intrinsics(homs)
    assert abs(k.fx - REF_FX) / REF_FX < 1e-4
    assert abs(k.fy - REF_FY) / REF_FY < 1e-4
    assert abs(k.cx - REF_CX) < 0.05
    assert abs(k.cy - REF_CY) < 0.05
    assert k.skew == 0.0


def test_init_intrinsics_exact_recovery(board_spec):
    truth = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=320.0, cy=240.0)
    rng = np.random.default_rng(3)
    poses = sample_board_poses(board_spec, truth, DistortionCoeffs(),
                               640, 480, 3, rng)
    homs = [synth_homography(truth, p) for p in poses]
    k = init_intrinsics(homs)
    for name in ("fx", "fy", "cx", "cy"):
        assert abs(getattr(k, name) - getattr(truth, name)) \
            / abs(getattr(truth, name)) < 1e-6


def _oracle_constraint_row(h, i, j):
    hi, hj = h[:, i], h[:, j]
    return np.array([
        hi[0] * hj[0],
        hi[0] * hj[1] + hi[1] * hj[0],
        hi[1] * hj[1],
        hi[2] * hj[0] + hi[0] * hj[2],
        hi[2] * hj[1] + hi[1] * hj[2],
        hi[2] * hj[2],
    ])


def _oracle_init_intrinsics(homographies, estimate_skew=False):
    """``init_intrinsics`` as it was with one constraint row per homography
    and column pair, built in a loop."""
    hs = list(homographies)
    needed = 3 if estimate_skew else 2
    if len(hs) < needed:
        raise DegenerateMotion(f"need at least {needed} views, got {len(hs)}")

    rows = []
    for h in hs:
        rows.append(_oracle_constraint_row(h, 0, 1))
        rows.append(_oracle_constraint_row(h, 0, 0)
                    - _oracle_constraint_row(h, 1, 1))
    if not estimate_skew:
        rows.append(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    a = np.array(rows)

    _, s, vt = np.linalg.svd(a)
    if s.size >= 6 and s[4] <= 1e-8 * s[0]:
        raise DegenerateMotion("board orientations are too similar")
    b = vt[-1]
    if b[0] < 0:
        b = -b
    b11, b12, b22, b13, b23, b33 = b
    bmat = np.array([[b11, b12, b13], [b12, b22, b23], [b13, b23, b33]])
    try:
        lower = np.linalg.cholesky(bmat)
    except np.linalg.LinAlgError:
        raise DegenerateMotion("conic estimate is not positive definite") from None
    k = np.linalg.inv(lower.T)
    k /= k[2, 2]
    return CameraIntrinsics(fx=k[0, 0], fy=k[1, 1], cx=k[0, 2], cy=k[1, 2],
                            skew=k[0, 1] if estimate_skew else 0.0)


def _outcome(init, homographies, estimate_skew):
    try:
        k = init(homographies, estimate_skew=estimate_skew)
    except (DegenerateMotion, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return np.array([k.fx, k.fy, k.cx, k.cy, k.skew]).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_views=st.integers(2, 20),
       estimate_skew=st.booleans(), board=st.booleans())
def test_stacked_conic_rows_equal_per_homography_rows_bitwise(
        seed, n_views, estimate_skew, board):
    """The same K bit for bit, or the same exception, on board homographies
    K [r1 r2 t] with pixel noise and on arbitrary matrices."""
    rng = np.random.default_rng(seed)
    if board:
        k = np.array([[rng.uniform(300, 2000), rng.normal(0, 2), rng.uniform(200, 400)],
                      [0.0, rng.uniform(300, 2000), rng.uniform(150, 300)],
                      [0.0, 0.0, 1.0]])
        homs = []
        for _ in range(n_views):
            r = axis_angle_to_rotation(rng.normal(0, 0.4, 3))
            t = np.array([*rng.normal(0, 50, 2), rng.uniform(300, 1500)])
            h = k @ np.column_stack([r[:, 0], r[:, 1], t]) + rng.normal(0, 1e-3, (3, 3))
            homs.append(h / h[2, 2])
    else:
        homs = list(rng.normal(size=(n_views, 3, 3)))
    assert (_outcome(init_intrinsics, homs, estimate_skew)
            == _outcome(_oracle_init_intrinsics, homs, estimate_skew))


def test_init_intrinsics_rejects_frontoparallel_views(board_spec, ref_intrinsics):
    poses = [
        CameraPose(np.eye(3), np.array([x, y, 800.0]))
        for x, y in [(-80.0, 0.0), (0.0, 0.0), (60.0, 40.0), (10.0, -70.0)]
    ]
    homs = [synth_homography(ref_intrinsics, p) for p in poses]
    with pytest.raises(DegenerateMotion):
        init_intrinsics(homs)


def test_extrinsics_decomposition_recovers_pose(ref_intrinsics, random_poses):
    for truth in random_poses:
        pose = extrinsics_from_homography(
            ref_intrinsics, synth_homography(ref_intrinsics, truth))
        err = pose_error(pose, truth)
        assert err.rotation_deg < np.degrees(1e-8)
        assert err.translation_mm / np.linalg.norm(truth.translation) < 1e-8


@pytest.mark.parametrize("case, message", [("zero-first-column", "column collapses"),
                                           ("det-k-1e-14", "not invertible")],
                         ids=["zero-first-column", "det-k-1e-14"])
def test_extrinsics_from_singular_input_raises(case, message, ref_intrinsics, random_poses):
    h = synth_homography(ref_intrinsics, random_poses[0])
    k = ref_intrinsics
    if case == "zero-first-column":
        h[:, 0] = 0.0
    else:
        k = CameraIntrinsics(fx=1e-7, fy=1e-7, cx=REF_CX, cy=REF_CY)
    with pytest.raises(SingularIntrinsics, match=message):
        extrinsics_from_homography(k, h)


def test_extrinsics_frontoparallel_depth(ref_intrinsics):
    truth = CameraPose(np.eye(3), np.array([-50.0, 20.0, 750.0]))
    pose = extrinsics_from_homography(
        ref_intrinsics, synth_homography(ref_intrinsics, truth))
    assert abs(pose.translation[2] - 750.0) < 1e-8


def test_extrinsics_sign_convention(ref_intrinsics, random_poses):
    h = synth_homography(ref_intrinsics, random_poses[0])
    a = extrinsics_from_homography(ref_intrinsics, h)
    b = extrinsics_from_homography(ref_intrinsics, -h)
    assert np.allclose(a.rotation, b.rotation, atol=1e-12)
    assert np.allclose(a.translation, b.translation, atol=1e-12)
    assert a.translation[2] > 0


def make_dataset(board_spec, intrinsics, dist, poses, noise=0.0, seed=None):
    rng = np.random.default_rng(seed) if noise else None
    grids = synthesize_corner_views(board_spec, intrinsics, dist, poses,
                                    noise_sigma=noise, rng=rng)
    return CalibrationDataset(spec=board_spec, views=tuple(grids),
                              image_width=IMAGE_WIDTH, image_height=IMAGE_HEIGHT)


def test_calibrate_recovers_reference_camera(board_spec, ref_intrinsics,
                                             ref_distortion, board_poses):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion, board_poses)
    result = calibrate(dataset)
    assert abs(result.intrinsics.fx - REF_FX) / REF_FX < 1e-3
    assert abs(result.intrinsics.fy - REF_FY) / REF_FY < 1e-3
    assert abs(result.intrinsics.cx - REF_CX) < 0.5
    assert abs(result.intrinsics.cy - REF_CY) < 0.5
    assert abs(result.distortion.k1 - ref_distortion.k1) < 1e-3
    assert abs(result.distortion.k2 - ref_distortion.k2) < 1e-3
    assert result.overall_error < 1e-3
    assert result.distortion.p1 == 0.0 and result.distortion.p2 == 0.0
    assert result.intrinsics.skew == 0.0


def test_recovery_across_random_cameras(board_spec):
    rng = np.random.default_rng(2024)
    for trial in range(10):
        truth_k = CameraIntrinsics(
            fx=rng.uniform(500, 1500), fy=rng.uniform(500, 1500),
            cx=rng.uniform(290, 350), cy=rng.uniform(210, 270))
        truth_d = DistortionCoeffs(k1=rng.uniform(-0.1, 0.1),
                                   k2=rng.uniform(-0.3, 0.1))
        poses = sample_board_poses(board_spec, truth_k, truth_d,
                                   IMAGE_WIDTH, IMAGE_HEIGHT, 20, rng)
        dataset = make_dataset(board_spec, truth_k, truth_d, poses)
        result = calibrate(dataset)
        assert abs(result.intrinsics.fx - truth_k.fx) / truth_k.fx < 1e-3
        assert abs(result.intrinsics.fy - truth_k.fy) / truth_k.fy < 1e-3
        assert abs(result.intrinsics.cx - truth_k.cx) < 0.5
        assert abs(result.intrinsics.cy - truth_k.cy) < 0.5
        assert abs(result.distortion.k1 - truth_d.k1) < 1e-3
        assert abs(result.distortion.k2 - truth_d.k2) < 1e-3
        assert result.overall_error < 1e-3


@pytest.mark.parametrize("coeffs, estimate_k3", [((-0.35, 0.12, 0.0), False),
                                                 ((-0.6, 0.4, -0.1), True)])
def test_calibrate_under_strong_lenses(board_spec, ref_intrinsics, coeffs,
                                       estimate_k3):
    # The refinement starts from zero distortion, far from these lenses.
    truth_d = DistortionCoeffs(*coeffs)
    rng = np.random.default_rng(1)
    poses = sample_board_poses(board_spec, ref_intrinsics, truth_d,
                               IMAGE_WIDTH, IMAGE_HEIGHT, 20, rng)
    grids = synthesize_corner_views(board_spec, ref_intrinsics, truth_d, poses,
                                    noise_sigma=0.1, rng=rng)
    result = calibrate(CalibrationDataset(board_spec, tuple(grids), IMAGE_WIDTH,
                                          IMAGE_HEIGHT), estimate_k3=estimate_k3)
    assert result.lm_report.reason == "cost-tol"
    assert result.overall_error < 0.15
    assert abs(result.intrinsics.fx - REF_FX) < 5.0
    assert abs(result.intrinsics.fy - REF_FY) < 5.0


def test_calibrate_with_noise_stays_under_a_pixel(board_spec, ref_intrinsics,
                                                  ref_distortion, board_poses):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses, noise=0.5, seed=101)
    result = calibrate(dataset)
    assert 0.3 < result.overall_error < 0.7


def test_refinement_jacobian_matches_central_differences(
        board_spec, ref_intrinsics, ref_distortion, board_poses, monkeypatch):
    problems = []

    def solve(problem, x0, cfg=None):
        report = levenberg_marquardt(problem, x0, cfg)
        problems.append((problem, report.params))
        return report

    # The package's ``calibrate`` attribute is the function, not the module.
    monkeypatch.setattr(importlib.import_module("camkit.calibrate"),
                        "levenberg_marquardt", solve)
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses[:5], noise=0.2, seed=7)
    calibrate(dataset, estimate_skew=True, estimate_k3=True,
              estimate_tangential=True)
    (problem, params), = problems
    rng = np.random.default_rng(0)
    x = params + rng.normal(0, 1e-3, params.shape) * np.maximum(1, np.abs(params))
    supplied = problem.jacobian(x)
    dense = numeric_jacobian(LeastSquaresProblem(problem.residual), x)
    assert supplied.shape == (5 * board_spec.corner_count * 2, 10 + 5 * 6)
    assert np.max(np.abs(supplied - dense) / np.maximum(np.abs(dense), 1.0)) < 1e-5


def test_calibrate_requires_three_views(board_spec, ref_intrinsics,
                                        ref_distortion, board_poses):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses[:2])
    with pytest.raises(InsufficientViews):
        calibrate(dataset)


def test_refinement_does_not_increase_cost(board_spec, ref_intrinsics,
                                           ref_distortion, board_poses,
                                           monkeypatch):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses, noise=0.5, seed=55)
    starts = []

    def solve(problem, x0, cfg=None):
        starts.append(problem.residual(x0))
        return levenberg_marquardt(problem, x0, cfg)

    # The package's ``calibrate`` attribute is the function, not the module.
    monkeypatch.setattr(importlib.import_module("camkit.calibrate"),
                        "levenberg_marquardt", solve)
    final = calibrate(dataset)
    (start,) = starts
    init_mean = np.linalg.norm(start.reshape(-1, 2), axis=1).mean()
    final_stats = reprojection_stats(final, dataset)
    assert final_stats.overall_mean <= init_mean


def test_calibration_returns_its_refinement_report(board_spec, ref_intrinsics,
                                                   ref_distortion, board_poses):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses, noise=0.5, seed=55)
    result = calibrate(dataset)
    report = result.lm_report
    # The free globals lead the parameter vector in canonical order.
    free = list(result.intrinsic_stderr) + list(result.distortion_stderr)
    assert free == ["fx", "fy", "cx", "cy", "k1", "k2"]
    camera = {n: getattr(result.intrinsics, n) for n in result.intrinsic_stderr}
    camera |= {n: getattr(result.distortion, n) for n in result.distortion_stderr}
    assert dict(zip(free, report.params.tolist())) == camera
    per_view = np.linalg.norm(report.residual.reshape(len(dataset.views), -1, 2),
                              axis=2).mean(axis=1)
    assert np.array_equal(per_view, result.per_view_errors)
    assert report.cost_history[0] == report.initial_cost
    assert report.cost_history[-1] == report.final_cost < report.initial_cost
    assert np.all(np.diff(report.cost_history) <= 0)


def test_calibration_invariant_to_view_order(board_spec, ref_intrinsics,
                                             ref_distortion, board_poses):
    # Noiseless data has an exact zero-cost minimizer, so a tightly converged
    # solve pins the parameters themselves (with noise, 1e-11-level cost
    # agreement still leaves ~1e-6 slack along the flat directions).
    tight = LmConfig(cost_tol=1e-15, step_tol=1e-14, max_iters=200)
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses[:8])
    result = calibrate(dataset, lm_config=tight)
    perm = np.random.default_rng(1).permutation(8)
    shuffled = CalibrationDataset(
        spec=board_spec, views=tuple(dataset.views[i] for i in perm),
        image_width=IMAGE_WIDTH, image_height=IMAGE_HEIGHT)
    other = calibrate(shuffled, lm_config=tight)
    for name in ("fx", "fy", "cx", "cy"):
        assert abs(getattr(result.intrinsics, name)
                   - getattr(other.intrinsics, name)) < 1e-9
    assert np.max(np.abs(result.per_view_errors[perm] - other.per_view_errors)) < 1e-9


def test_error_aggregation_identity(board_spec, ref_intrinsics, ref_distortion,
                                    board_poses):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses[:5], noise=0.4, seed=2)
    result = calibrate(dataset)
    weighted = result.per_view_errors.mean()  # equal corner counts per view
    assert abs(result.overall_error - weighted) < 1e-12
    stats = reprojection_stats(result, dataset)
    assert abs(stats.overall_mean - result.overall_error) < 1e-12
    assert np.max(np.abs(stats.per_view_means - result.per_view_errors)) < 1e-12


def test_reprojection_stats_zero_and_constructed(board_spec, ref_intrinsics,
                                                 ref_distortion, board_poses):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses[:4])
    result = calibrate(dataset)
    stats = reprojection_stats(result, dataset)
    assert stats.overall_mean < 1e-6
    assert np.all(stats.per_view_means < 1e-6)

    # Displace alternate corners of view 0 by 3 and 4 px: its mean is 3.5.
    corners = dataset.views[0].corners.copy()
    shift = np.tile([[3.0], [4.0]], (len(corners) // 2, 1))
    corners[:, 0] += shift.ravel()
    views = (CornerGrid(corners=corners, view_id="shifted"),) + dataset.views[1:]
    moved = CalibrationDataset(spec=board_spec, views=views,
                               image_width=IMAGE_WIDTH, image_height=IMAGE_HEIGHT)
    stats2 = reprojection_stats(result, moved)
    assert stats2.per_view_means[0] == pytest.approx(3.5, abs=1e-6)


def test_reprojection_stats_shape_mismatch(board_spec, ref_intrinsics,
                                           ref_distortion, board_poses):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses[:4])
    result = calibrate(dataset)
    smaller = CalibrationDataset(spec=board_spec, views=dataset.views[:3],
                                 image_width=IMAGE_WIDTH, image_height=IMAGE_HEIGHT)
    with pytest.raises(ShapeMismatch):
        reprojection_stats(result, smaller)


def test_stderr_schema(board_spec, ref_intrinsics, ref_distortion, board_poses):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses[:6], noise=0.5, seed=9)
    result = calibrate(dataset)
    assert set(result.intrinsic_stderr) == {"fx", "fy", "cx", "cy"}
    assert set(result.distortion_stderr) == {"k1", "k2"}
    assert result.pose_stderr.shape == (6, 6)
    assert all(v > 0 for v in result.intrinsic_stderr.values())


@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("k3", [False, True])
@pytest.mark.parametrize("tangential", [False, True])
def test_stderr_names_the_estimated_parameters(board_spec, ref_intrinsics,
                                               ref_distortion, board_poses,
                                               skew, k3, tangential):
    dataset = make_dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses[:8], noise=0.3, seed=4)
    result = calibrate(dataset, estimate_skew=skew, estimate_k3=k3,
                       estimate_tangential=tangential)
    intrinsic = ["fx", "fy", "cx", "cy"] + ["skew"] * skew
    distortion = ["k1", "k2"] + ["k3"] * k3 + ["p1", "p2"] * tangential
    assert list(result.intrinsic_stderr) == intrinsic
    assert list(result.distortion_stderr) == distortion
    assert all(type(name) is str
               for name in [*result.intrinsic_stderr, *result.distortion_stderr])
    assert result.pose_stderr.shape == (8, 6)
    assert np.all(np.isfinite(result.pose_stderr))


def test_undistort_identity_with_zero_coefficients(board_spec, ref_intrinsics,
                                                   rendered_views):
    image = rendered_views[0][0]
    out = undistort_image(image, ref_intrinsics, DistortionCoeffs())
    assert np.max(np.abs(out.astype(int) - image.astype(int))) <= 1
    again = undistort_image(out, ref_intrinsics, DistortionCoeffs())
    assert np.max(np.abs(again.astype(int) - out.astype(int))) <= 1


def line_deviation(points):
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered)
    return np.abs(centered @ vt[1])


def test_undistort_straightens_board_rows(board_spec, ref_intrinsics,
                                          ref_distortion):
    # Amplified coefficients plus a frame-filling board so the outer corner
    # rows reach the image regions where the radial terms actually bend lines.
    strong = DistortionCoeffs(k1=5 * ref_distortion.k1, k2=5 * ref_distortion.k2)
    pose = frontoparallel_pose(board_spec, ref_intrinsics, 74.0)
    img = render_board(board_spec, ref_intrinsics, strong, pose, 640, 480)
    grid = detect_corners(img, board_spec)
    rows = grid.corners.reshape(board_spec.corners_y, board_spec.corners_x, 2)
    bent = max(line_deviation(row).max() for row in rows)
    assert bent >= 2.0

    flat_img = undistort_image(img, ref_intrinsics, strong)
    flat_grid = detect_corners(flat_img, board_spec)
    flat_rows = flat_grid.corners.reshape(board_spec.corners_y,
                                          board_spec.corners_x, 2)
    straight = max(line_deviation(row).max() for row in flat_rows)
    assert straight < 0.5


def test_calibrate_validates_corner_count(board_spec, ref_intrinsics,
                                          ref_distortion, board_poses):
    grids = synthesize_corner_views(board_spec, ref_intrinsics, ref_distortion,
                                    board_poses[:3])
    broken = CornerGrid(corners=grids[0].corners[:-1], view_id="short")
    dataset = CalibrationDataset(spec=board_spec,
                                 views=(broken,) + tuple(grids[1:]),
                                 image_width=IMAGE_WIDTH,
                                 image_height=IMAGE_HEIGHT)
    with pytest.raises(ShapeMismatch):
        calibrate(dataset)
