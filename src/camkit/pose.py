"""Single-view pose estimation against a calibrated board, plus scene export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .board import CheckerboardSpec, CornerGrid, board_outline, board_world_points
from .calibrate import CalibrationResult, extrinsics_from_homography
from .errors import BehindCamera
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    camera_depths,
    normalized_to_pixel,
    pixel_to_normalized,
    reprojection_problem,
    undistort_normalized,
)
from .homography import estimate_homography
from .optimize import levenberg_marquardt


def refine_pose(world_points: np.ndarray, observed_px: np.ndarray,
                intrinsics: CameraIntrinsics, dist: DistortionCoeffs,
                initial: CameraPose) -> tuple[CameraPose, float]:
    """Levenberg-Marquardt refinement of one 6-DoF pose.

    Minimizes pixel reprojection error of ``world_points`` against
    ``observed_px`` with only the pose free. Returns the refined pose and its
    mean Euclidean reprojection error.
    """
    n = len(world_points)
    problem, x0, unpack = reprojection_problem(
        world_points, [initial], intrinsics, dist, np.zeros(n, dtype=np.int64),
        np.arange(n), observed_px, free_poses=True)
    report = levenberg_marquardt(problem, x0)
    _, _, (pose,), _ = unpack(report.params)
    mean_err = float(np.linalg.norm(report.residual.reshape(-1, 2), axis=1).mean())
    return pose, mean_err


def estimate_board_pose(intrinsics: CameraIntrinsics, dist: DistortionCoeffs,
                        corners: CornerGrid,
                        spec: CheckerboardSpec) -> tuple[CameraPose, float]:
    """Estimate the board pose behind one detected corner grid.

    Corners are undistorted, a plane homography is fitted and decomposed for
    the initial pose, and the pose is then refined against the raw
    observations under the full lens model. Raises BehindCamera when the
    result leaves board corners at non-positive depth.
    """
    world = board_world_points(spec)
    ideal = normalized_to_pixel(
        undistort_normalized(pixel_to_normalized(corners.corners, intrinsics), dist),
        intrinsics,
    )
    h = estimate_homography(world[:, :2], ideal)
    initial = extrinsics_from_homography(intrinsics, h)
    pose, mean_err = refine_pose(world, corners.corners, intrinsics, dist, initial)
    if np.any(camera_depths(world, pose) <= 0):
        raise BehindCamera("estimated pose places board corners behind the camera")
    return pose, mean_err


@dataclass(frozen=True)
class ExtrinsicsScene:
    """Geometry for the two extrinsics visualizations, in millimeters.

    Pattern-centric mode fixes the board at the origin and draws one camera
    frustum per view: ``poses`` map each camera into the board frame (the
    inverse view poses, whose translations are the camera centers) and
    ``outlines`` hold the frustum bases there. Camera-centric mode fixes the
    camera and draws one board per view: ``poses`` are the view poses and
    ``outlines`` the board outlines in the camera frame.
    """

    mode: str  # "pattern" | "camera"
    poses: tuple[CameraPose, ...]
    outlines: tuple[np.ndarray, ...]  # (4, 3) per view, fixed frame


def export_extrinsics_scene(result: CalibrationResult, spec: CheckerboardSpec,
                            mode: str) -> ExtrinsicsScene:
    """Build the visualization geometry for a calibration result.

    Frustum depth is half the median camera-to-board distance across views.
    """
    if mode not in ("pattern", "camera"):
        raise ValueError(f"mode must be 'pattern' or 'camera', got {mode!r}")
    if mode == "camera":
        poses, outline = tuple(result.poses), board_outline(spec)
    else:
        distances = [float(np.linalg.norm(pose.translation)) for pose in result.poses]
        depth = 0.5 * float(np.median(distances))
        w, h = result.image_size
        image_corners = np.array([[0.0, 0.0], [w - 1.0, 0.0],
                                  [w - 1.0, h - 1.0], [0.0, h - 1.0]])
        rays = pixel_to_normalized(image_corners, result.intrinsics)
        outline = np.column_stack([rays * depth, np.full(4, depth)])
        poses = tuple(pose.inverse() for pose in result.poses)
    return ExtrinsicsScene(mode, poses, tuple(pose.transform(outline) for pose in poses))
