"""Acceptance gate: one test per shipping criterion, each at its required
tolerance. A one-line PASS/FAIL summary per criterion is printed at the end
of the run (hook in conftest.py)."""

import time

import numpy as np
import pytest
import scipy.optimize

from camkit import (
    CalibrationDataset,
    CameraIntrinsics,
    LeastSquaresProblem,
    PointCloud,
    calibrate,
    detect_corners,
    eight_point,
    essential_ransac,
    estimate_board_pose,
    levenberg_marquardt,
    numeric_jacobian,
    reconstruct,
)
from camkit.fileio import format_ply, read_calibration, read_image, write_calibration, write_image
from camkit.epipolar import _homogeneous
from camkit.sfm import _build_ba_problem
from camkit.synthetic import cloud_error, pose_error, sample_board_poses, synthesize_corner_views

from conftest import (
    CUBE_EDGE,
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    REF_CX,
    REF_CY,
    REF_FX,
    REF_FY,
    REF_K1,
    REF_K2,
)
from test_epipolar import synthetic_pair
from test_sfm import build_scene


def _dataset(board_spec, intrinsics, dist, poses, noise=0.0, seed=None):
    rng = np.random.default_rng(seed) if noise else None
    grids = synthesize_corner_views(board_spec, intrinsics, dist, poses,
                                    noise_sigma=noise, rng=rng)
    return CalibrationDataset(spec=board_spec, views=tuple(grids),
                              image_width=IMAGE_WIDTH, image_height=IMAGE_HEIGHT)


def test_criterion_calibration_recovery(board_spec, ref_intrinsics,
                                        ref_distortion, board_poses):
    start = time.monotonic()
    dataset = _dataset(board_spec, ref_intrinsics, ref_distortion, board_poses)
    result = calibrate(dataset)
    elapsed = time.monotonic() - start
    assert abs(result.intrinsics.fx - REF_FX) / REF_FX < 1e-3
    assert abs(result.intrinsics.fy - REF_FY) / REF_FY < 1e-3
    assert abs(result.intrinsics.cx - REF_CX) < 0.5
    assert abs(result.intrinsics.cy - REF_CY) < 0.5
    assert abs(result.distortion.k1 - REF_K1) < 1e-3
    assert abs(result.distortion.k2 - REF_K2) < 1e-3
    assert result.overall_error < 1e-3
    assert elapsed < 60.0


def test_criterion_noise_threshold(board_spec, ref_intrinsics, ref_distortion,
                                   board_poses):
    for seed in range(10):
        dataset = _dataset(board_spec, ref_intrinsics, ref_distortion,
                           board_poses, noise=0.5, seed=1000 + seed)
        result = calibrate(dataset)
        assert result.overall_error < 1.0
        assert 0.3 < result.overall_error < 0.7


def test_criterion_corner_detection(board_spec, rendered_views):
    all_errors = []
    for image, truth in zip(*rendered_views):
        grid = detect_corners(image, board_spec)
        assert len(grid) == 54
        errs = np.linalg.norm(grid.corners - truth, axis=1)
        assert errs.mean() < 0.1
        all_errors.append(errs)
    assert np.concatenate(all_errors).mean() < 0.1


def test_criterion_pose_estimation(board_spec, ref_intrinsics, ref_distortion):
    rng = np.random.default_rng(1234)
    target = sample_board_poses(board_spec, ref_intrinsics, ref_distortion,
                                IMAGE_WIDTH, IMAGE_HEIGHT, 1, rng)[0]
    # place the board at the 500 mm working range
    scale = 500.0 / np.linalg.norm(target.translation)
    target = type(target)(target.rotation, target.translation * scale)
    grid = synthesize_corner_views(board_spec, ref_intrinsics, ref_distortion,
                                   [target])[0]
    start = time.monotonic()
    pose, _ = estimate_board_pose(ref_intrinsics, ref_distortion, grid,
                                  board_spec)
    elapsed = time.monotonic() - start
    err = pose_error(pose, target)
    assert err.rotation_deg < 0.01
    assert err.translation_mm < 0.1
    assert elapsed < 1.0


def test_criterion_two_view_geometry():
    rng = np.random.default_rng(77)
    x1, x2, _, _ = synthetic_pair(rng, 60)
    e = eight_point(x1, x2)
    residual = np.abs(np.sum(_homogeneous(x2) * (_homogeneous(x1) @ e.T),
                             axis=1))
    assert residual.max() < 1e-10

    x1, x2, _, inliers = synthetic_pair(rng, 200, outliers=60)
    e1, mask1 = essential_ransac(x1, x2, seed=5)
    assert np.sum(mask1 & inliers) / inliers.sum() >= 0.99
    e2, mask2 = essential_ransac(x1, x2, seed=5)
    assert np.array_equal(e1, e2) and np.array_equal(mask1, mask2)


def test_criterion_sfm_end_to_end(cube_capture, ref_intrinsics):
    scene3d, poses, images, dist = cube_capture
    start = time.monotonic()
    scene = reconstruct(images, ref_intrinsics, dist, seed=0)
    elapsed = time.monotonic() - start
    assert sorted(scene.poses) == list(range(5))
    assert scene.mean_reprojection_error < 0.5
    assert elapsed < 300.0

    err = cloud_error(scene, scene3d, poses)
    assert err.rms < 0.01 * CUBE_EDGE
    assert np.mean(err.surface_distance < 0.02 * CUBE_EDGE) >= 0.9


def test_criterion_optimizer_suite(ref_intrinsics):
    linear = levenberg_marquardt(
        LeastSquaresProblem(lambda x: x - np.array([1.0, 2.0])), np.zeros(2))
    assert linear.final_cost < 1e-18

    def rosenbrock(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    rosen = levenberg_marquardt(LeastSquaresProblem(rosenbrock),
                                np.array([-1.2, 1.0]))
    assert rosen.params == pytest.approx([1.0, 1.0], abs=1e-6)
    reference = scipy.optimize.least_squares(rosenbrock, [-1.2, 1.0],
                                             method="lm")
    assert rosen.params == pytest.approx(reference.x.tolist(), abs=1e-6)

    for report in (linear, rosen):
        assert np.all(np.diff(report.cost_history) <= 0)

    # Caller-supplied Jacobians (used by calibration and bundle adjustment)
    # must agree with plain central differences at random feasible points.
    scene, _ = build_scene(ref_intrinsics, n_points=10, n_views=3, seed=2)
    problem, x0, *_ = _build_ba_problem(scene)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = x0 + rng.normal(0, 1e-3, x0.shape) * np.maximum(1, np.abs(x0))
        supplied = problem.jacobian(x)
        dense = numeric_jacobian(LeastSquaresProblem(problem.residual), x)
        denom = np.maximum(np.abs(dense), 1.0)
        assert np.max(np.abs(supplied - dense) / denom) < 1e-5


def test_criterion_format_goldens(tmp_path, board_spec, ref_intrinsics,
                                  ref_distortion, board_poses):
    img = np.array([[0, 128], [255, 7]], dtype=np.uint8)
    write_image(img, tmp_path / "g.pgm")
    assert np.array_equal(read_image(tmp_path / "g.pgm"), img)

    cloud = PointCloud(positions=np.array([[1.0, 2.0, 3.0]]),
                       intensity=np.array([150.0]))
    assert format_ply(cloud).splitlines()[-1] == "1.00000 2.00000 3.00000 150"

    dataset = _dataset(board_spec, ref_intrinsics, ref_distortion,
                       board_poses[:4], noise=0.2, seed=3)
    result = calibrate(dataset)
    from dataclasses import replace
    result = replace(result, intrinsics=CameraIntrinsics(
        fx=839.345758, fy=839.557331, cx=332.366095, cy=259.509924))
    path = tmp_path / "calib.json"
    write_calibration(result, path)
    loaded = read_calibration(path)
    for name in ("fx", "fy", "cx", "cy", "skew"):
        assert abs(getattr(result.intrinsics, name)
                   - getattr(loaded.intrinsics, name)) <= 1e-12
    assert abs(result.overall_error - loaded.overall_error) <= 1e-12
    for pa, pb in zip(result.poses, loaded.poses):
        assert np.max(np.abs(pa.rotation - pb.rotation)) <= 1e-12
        assert np.max(np.abs(pa.translation - pb.translation)) <= 1e-12

    import json
    transposed = json.loads(path.read_text())["intrinsics"]["matrix_transposed"]
    assert transposed[2] == [332.366095, 259.509924, 1.0]
