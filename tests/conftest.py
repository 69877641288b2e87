"""Shared fixtures: a reference webcam model, pre-rendered board views, and a
synthetic cube capture. Also prints one line per acceptance criterion at the
end of a run."""

import numpy as np
import pytest

from camkit import (
    CameraIntrinsics,
    CheckerboardSpec,
    DistortionCoeffs,
    board_world_points,
    detect_features,
    project,
    render_board,
)
from camkit.sfm import MAX_FEATURES
from camkit.synthetic import (
    CubeScene,
    render_cube_view,
    sample_board_poses,
    sample_ring_poses,
)

CUBE_EDGE = 200.0

# Reference consumer-webcam model used throughout the suite.
REF_FX = 839.3458
REF_FY = 839.5573
REF_CX = 332.3661
REF_CY = 259.5099
REF_K1 = 0.0101
REF_K2 = -0.1883
IMAGE_WIDTH = 640
IMAGE_HEIGHT = 480


@pytest.fixture(scope="session")
def ref_intrinsics():
    return CameraIntrinsics(fx=REF_FX, fy=REF_FY, cx=REF_CX, cy=REF_CY)


@pytest.fixture(scope="session")
def ref_distortion():
    return DistortionCoeffs(k1=REF_K1, k2=REF_K2)


@pytest.fixture(scope="session")
def board_spec():
    return CheckerboardSpec(squares_x=10, squares_y=7, square_size=23.0)


@pytest.fixture(scope="session")
def board_poses(board_spec, ref_intrinsics, ref_distortion):
    rng = np.random.default_rng(42)
    return sample_board_poses(board_spec, ref_intrinsics, ref_distortion,
                              IMAGE_WIDTH, IMAGE_HEIGHT, 20, rng)


@pytest.fixture(scope="session")
def rendered_views(board_spec, ref_intrinsics, ref_distortion, board_poses):
    """20 rendered views plus ground-truth corner projections per view."""
    world = board_world_points(board_spec)
    images = []
    truths = []
    for pose in board_poses:
        images.append(render_board(board_spec, ref_intrinsics, ref_distortion,
                                   pose, IMAGE_WIDTH, IMAGE_HEIGHT))
        truths.append(project(world, pose, ref_intrinsics, ref_distortion))
    return images, truths


@pytest.fixture(scope="session")
def cube_capture(ref_intrinsics):
    """Five corner-on views of the textured cube plus ground-truth poses."""
    scene3d = CubeScene(edge=CUBE_EDGE, texture_seed=7)
    poses = sample_ring_poses(5, radius=450.0, elevation_deg=30.0,
                              sweep_deg=48.0, start_deg=21.0)
    dist = DistortionCoeffs()
    images = [render_cube_view(scene3d, ref_intrinsics, dist, p, 640, 480)
              for p in poses]
    return scene3d, poses, images, dist


@pytest.fixture(scope="session")
def cube_features(cube_capture):
    """The features ``reconstruct`` detects in each cube view."""
    return [detect_features(img, MAX_FEATURES) for img in cube_capture[2]]


def padded_grid_rays(grid):
    """Every ray of a :class:`~camkit.geometry.RayGrid`, asked tile by tile
    and laid out as the padded image, ``(tile rows * side, tile columns *
    side, 2)``."""
    n_ty, n_tx = grid.tile_min.shape[:2]
    rays = grid.rays(np.arange(n_ty * n_tx))
    side = rays.shape[1]
    return rays.reshape(n_ty, n_tx, side, side, 2).transpose(0, 2, 1, 3, 4).reshape(
        n_ty * side, n_tx * side, 2)


_acceptance_outcomes = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_outcomes.append((report.nodeid.split("::")[-1],
                                     report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, ok in _acceptance_outcomes:
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] {name}")
