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
    project_points,
    rotation_to_axis_angle,
    undistort_normalized,
)
from .homography import estimate_homography
from .optimize import LeastSquaresProblem, LmConfig, levenberg_marquardt


def refine_pose(world_points: np.ndarray, observed_px: np.ndarray,
                intrinsics: CameraIntrinsics, dist: DistortionCoeffs,
                initial: CameraPose,
                lm_config: LmConfig | None = None) -> tuple[CameraPose, float]:
    """Levenberg-Marquardt refinement of one 6-DoF pose.

    Minimizes pixel reprojection error of ``world_points`` against
    ``observed_px``. Returns the refined pose and its mean Euclidean
    reprojection error.
    """
    world = np.asarray(world_points, dtype=np.float64)
    obs = np.asarray(observed_px, dtype=np.float64)

    def residual(x):
        return (project_points(world, x[:3], x[3:], intrinsics, dist) - obs).ravel()

    def jacobian(x):
        _, d_pose, *_ = project_points(world, x[:3], x[3:], intrinsics, dist,
                                       jacobians=True)
        return d_pose.reshape(-1, 6)

    x0 = np.concatenate([rotation_to_axis_angle(initial.rotation),
                         initial.translation])
    report = levenberg_marquardt(LeastSquaresProblem(residual, jacobian), x0,
                                 lm_config or LmConfig())
    pose = CameraPose.from_axis_angle(report.params[:3], report.params[3:])
    res = residual(report.params).reshape(-1, 2)
    mean_err = float(np.linalg.norm(res, axis=1).mean())
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
class CameraFrustum:
    """One camera drawn in board coordinates (pattern-centric mode)."""

    pose: CameraPose  # camera-to-world: inverse of the view pose
    apex: np.ndarray  # camera center, world frame
    base: np.ndarray  # (4, 3) frustum base rectangle, world frame


@dataclass(frozen=True)
class BoardRectangle:
    """One board drawn in camera coordinates (camera-centric mode)."""

    pose: CameraPose  # the view pose itself (world/board -> camera)
    corners: np.ndarray  # (4, 3) board outline, camera frame


@dataclass(frozen=True)
class ExtrinsicsScene:
    """Geometry for the two extrinsics visualizations.

    Pattern-centric mode fixes the board at the origin and draws one camera
    frustum per view; camera-centric mode fixes the camera and draws one
    board rectangle per view. Units are millimeters throughout.
    """

    mode: str  # "pattern" | "camera"
    units: str = "mm"
    frusta: tuple[CameraFrustum, ...] = ()
    boards: tuple[BoardRectangle, ...] = ()


def export_extrinsics_scene(result: CalibrationResult, spec: CheckerboardSpec,
                            mode: str) -> ExtrinsicsScene:
    """Build the visualization geometry for a calibration result.

    Frustum depth is half the median camera-to-board distance across views.
    """
    if mode not in ("pattern", "camera"):
        raise ValueError(f"mode must be 'pattern' or 'camera', got {mode!r}")
    outline = board_outline(spec)
    if mode == "camera":
        boards = tuple(
            BoardRectangle(pose=pose, corners=pose.transform(outline))
            for pose in result.poses
        )
        return ExtrinsicsScene(mode=mode, boards=boards)

    distances = [float(np.linalg.norm(pose.translation)) for pose in result.poses]
    depth = 0.5 * float(np.median(distances))
    w, h = result.image_size
    image_corners = np.array([[0.0, 0.0], [w - 1.0, 0.0],
                              [w - 1.0, h - 1.0], [0.0, h - 1.0]])
    rays = pixel_to_normalized(image_corners, result.intrinsics)
    base_cam = np.column_stack([rays * depth, np.full(4, depth)])
    frusta = []
    for pose in result.poses:
        cam_to_world = pose.inverse()
        frusta.append(CameraFrustum(
            pose=cam_to_world,
            apex=cam_to_world.translation.copy(),
            base=cam_to_world.transform(base_cam),
        ))
    return ExtrinsicsScene(mode=mode, frusta=tuple(frusta))
