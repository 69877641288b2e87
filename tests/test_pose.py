import numpy as np
import pytest

from camkit import (
    CameraPose,
    CalibrationDataset,
    DistortionCoeffs,
    board_outline,
    board_world_points,
    calibrate,
    estimate_board_pose,
    export_extrinsics_scene,
    project,
    refine_pose,
)
from camkit.errors import SingularNormalEquations
from camkit.synthetic import pose_error, sample_board_poses, synthesize_corner_views

from conftest import IMAGE_HEIGHT, IMAGE_WIDTH


def test_pose_recovery_noiseless(board_spec, ref_intrinsics, ref_distortion):
    rng = np.random.default_rng(31)
    poses = sample_board_poses(board_spec, ref_intrinsics, ref_distortion,
                               IMAGE_WIDTH, IMAGE_HEIGHT, 5, rng)
    grids = synthesize_corner_views(board_spec, ref_intrinsics, ref_distortion,
                                    poses)
    for truth, grid in zip(poses, grids):
        pose, err = estimate_board_pose(ref_intrinsics, ref_distortion,
                                        grid, board_spec)
        assert pose_error(pose, truth).rotation_deg < 0.01
        assert pose_error(pose, truth).translation_mm < 0.1
        assert err < 1e-6


def test_pose_head_on_depth(board_spec, ref_intrinsics, ref_distortion):
    truth = CameraPose(np.eye(3), np.array([0.0, 0.0, 500.0]))
    grid = synthesize_corner_views(board_spec, ref_intrinsics, ref_distortion,
                                   [truth])[0]
    pose, _ = estimate_board_pose(ref_intrinsics, ref_distortion, grid, board_spec)
    assert abs(pose.translation[2] - 500.0) < 0.1
    assert np.max(np.abs(pose.translation[:2])) < 0.1


def test_pose_noise_stays_under_a_pixel(board_spec, ref_intrinsics, ref_distortion):
    rng = np.random.default_rng(8)
    truth = sample_board_poses(board_spec, ref_intrinsics, ref_distortion,
                               IMAGE_WIDTH, IMAGE_HEIGHT, 1, rng)[0]
    grid = synthesize_corner_views(board_spec, ref_intrinsics, ref_distortion,
                                   [truth], noise_sigma=0.5, rng=rng)[0]
    _, err = estimate_board_pose(ref_intrinsics, ref_distortion, grid, board_spec)
    assert err < 1.0


def test_refinement_does_not_worsen_initial_pose(board_spec, ref_intrinsics,
                                                 ref_distortion):
    rng = np.random.default_rng(14)
    truth = sample_board_poses(board_spec, ref_intrinsics, ref_distortion,
                               IMAGE_WIDTH, IMAGE_HEIGHT, 1, rng)[0]
    world = board_world_points(board_spec)
    observed = project(world, truth, ref_intrinsics, ref_distortion)
    observed = observed + rng.normal(0, 0.5, observed.shape)
    # Perturbed starting point.
    start = CameraPose(truth.rotation, truth.translation + [4.0, -3.0, 12.0])
    start_err = np.linalg.norm(
        project(world, start, ref_intrinsics, ref_distortion) - observed,
        axis=1).mean()
    _, refined_err = refine_pose(world, observed, ref_intrinsics,
                                 ref_distortion, start)
    assert refined_err <= start_err


@pytest.mark.parametrize("take", [slice(0, 1), slice(0, 53), 0])
def test_refine_pose_rejects_a_pixel_count_that_is_not_the_point_count(
        take, board_spec, ref_intrinsics, ref_distortion):
    world = board_world_points(board_spec)
    pose = CameraPose.from_axis_angle([0.1, -0.1, 0.05], [-100.0, -70.0, 600.0])
    px = project(world, pose, ref_intrinsics, ref_distortion)
    with pytest.raises(ValueError, match="one pose, point and pixel"):
        refine_pose(world, px[take], ref_intrinsics, ref_distortion, pose)


def test_refine_pose_without_points_raises_a_camkit_error(ref_intrinsics):
    # No residual fixes any pose entry, so every damped system is singular.
    pose = CameraPose.from_axis_angle([0.1, -0.1, 0.05], [-100.0, -70.0, 600.0])
    with pytest.raises(SingularNormalEquations):
        refine_pose(np.empty((0, 3)), np.empty((0, 2)), ref_intrinsics,
                    DistortionCoeffs(), pose)


@pytest.fixture(scope="module")
def small_calibration(board_spec, ref_intrinsics, ref_distortion):
    rng = np.random.default_rng(77)
    poses = sample_board_poses(board_spec, ref_intrinsics, ref_distortion,
                               IMAGE_WIDTH, IMAGE_HEIGHT, 20, rng)
    grids = synthesize_corner_views(board_spec, ref_intrinsics, ref_distortion,
                                    poses)
    dataset = CalibrationDataset(spec=board_spec, views=tuple(grids),
                                 image_width=IMAGE_WIDTH,
                                 image_height=IMAGE_HEIGHT)
    return calibrate(dataset), poses


def test_pattern_scene_camera_centers(small_calibration, board_spec):
    result, truth_poses = small_calibration
    scene = export_extrinsics_scene(result, board_spec, "pattern")
    assert scene.mode == "pattern"
    assert len(scene.poses) == len(scene.outlines) == len(result.poses)
    for cam_to_board, base, pose in zip(scene.poses, scene.outlines, result.poses):
        expected = -pose.rotation.T @ pose.translation
        assert np.max(np.abs(cam_to_board.translation - expected)) == 0.0
        assert base.shape == (4, 3)

    gt_dist = [np.linalg.norm(p.center) for p in truth_poses]
    centers = [np.linalg.norm(p.translation) for p in scene.poses]
    assert min(centers) >= min(gt_dist) - 1.0
    assert max(centers) <= max(gt_dist) + 1.0


def test_camera_scene_board_placement(board_spec, ref_intrinsics, ref_distortion):
    truth = CameraPose(np.eye(3), np.array([0.0, 0.0, 500.0]))
    grids = synthesize_corner_views(board_spec, ref_intrinsics, ref_distortion,
                                    [truth] * 3)
    from camkit.calibrate import CalibrationResult
    result = CalibrationResult(
        intrinsics=ref_intrinsics, distortion=ref_distortion,
        poses=(truth,) * 3, per_view_errors=np.zeros(3), overall_error=0.0,
        intrinsic_stderr={}, distortion_stderr={},
        pose_stderr=np.zeros((3, 6)), image_size=(IMAGE_WIDTH, IMAGE_HEIGHT))
    scene = export_extrinsics_scene(result, board_spec, "camera")
    assert len(scene.poses) == len(scene.outlines) == 3
    origin_corner = scene.poses[0].transform(np.zeros(3))
    assert origin_corner == pytest.approx([0.0, 0.0, 500.0], abs=1e-12)
    assert scene.outlines[0] == pytest.approx(
        truth.transform(board_outline(board_spec)), abs=0.0)


def test_modes_are_rigid_inverses(small_calibration, board_spec):
    result, _ = small_calibration
    pattern = export_extrinsics_scene(result, board_spec, "pattern")
    camera = export_extrinsics_scene(result, board_spec, "camera")
    for cam_to_board, board_to_cam in zip(pattern.poses, camera.poses):
        composed = board_to_cam.compose(cam_to_board)
        assert np.max(np.abs(composed.rotation - np.eye(3))) < 1e-9
        assert np.max(np.abs(composed.translation)) < 1e-9


def test_export_rejects_unknown_mode(small_calibration, board_spec):
    result, _ = small_calibration
    with pytest.raises(ValueError):
        export_extrinsics_scene(result, board_spec, "sideways")
