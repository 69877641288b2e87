"""Checkerboard camera calibration, pose estimation, and sparse
structure-from-motion, verifiable end to end against built-in synthetic
renders."""

from .board import (
    CheckerboardSpec,
    CornerGrid,
    board_outline,
    board_world_points,
    render_board,
)
from .calibrate import (
    CalibrationDataset,
    CalibrationResult,
    ReprojectionStats,
    calibrate,
    extrinsics_from_homography,
    init_intrinsics,
    reprojection_stats,
    undistort_image,
)
from .corners import detect_corners
from .epipolar import (
    eight_point,
    essential_ransac,
    recover_relative_pose,
    sampson_distance,
    triangulate_points,
)
from .features import Features, detect_features, match_features
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    axis_angle_to_rotation,
    distort_normalized,
    normalized_to_pixel,
    pixel_to_normalized,
    project,
    rotation_to_axis_angle,
    undistort_normalized,
)
from .homography import apply_homography, estimate_homography
from .optimize import (
    LeastSquaresProblem,
    LmConfig,
    LmReport,
    levenberg_marquardt,
    numeric_jacobian,
)
from .pose import (
    ExtrinsicsScene,
    estimate_board_pose,
    export_extrinsics_scene,
    refine_pose,
)
from .sfm import (
    PointCloud,
    SfmScene,
    bundle_adjust,
    export_point_cloud,
    reconstruct,
    similarity_align,
)
from .tracks import Track, build_tracks

__version__ = "0.1.0"
