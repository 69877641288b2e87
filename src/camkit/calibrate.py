"""Planar-target camera calibration.

Pipeline: per-view homographies (DLT), closed-form intrinsics from the
image-of-the-absolute-conic constraints, homography decomposition for the
per-view extrinsics, then one joint Levenberg-Marquardt refinement, from zero
distortion, of intrinsics, distortion and all view poses against every corner
observation, which eliminates each view's pose block. Uncertainties are the
first-order standard errors of the same elimination at the final parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .board import CheckerboardSpec, CornerGrid, board_world_points
from .errors import (
    BehindCamera,
    DegenerateMotion,
    InsufficientViews,
    ShapeMismatch,
    SingularIntrinsics,
)
from .geometry import (
    DISTORTION_NAMES,
    INTRINSIC_NAMES,
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    camera_depths,
    distort_normalized,
    nearest_rotation,
    normalized_to_pixel,
    pixel_to_normalized,
    reprojection_problem,
)
from .homography import estimate_homography
from .imageops import bilinear_sample, to_float
from .optimize import LmConfig, LmReport, levenberg_marquardt, standard_errors

MIN_VIEWS = 3


@dataclass(frozen=True)
class CalibrationDataset:
    """Detected corner grids of one board observed from several viewpoints."""

    spec: CheckerboardSpec
    views: tuple[CornerGrid, ...]
    image_width: int
    image_height: int

    def __post_init__(self):
        object.__setattr__(self, "views", tuple(self.views))


@dataclass(frozen=True)
class CalibrationResult:
    """Estimated camera parameters with reprojection statistics.

    ``overall_error`` is the corner-count-weighted mean of the per-view mean
    Euclidean reprojection errors (metric recorded in ``error_metric``).
    Standard errors mirror the estimated parameters; entries for parameters
    that were not estimated are absent. ``lm_report`` is the refinement's
    report, None for a result read from a file, which holds no solve.
    """

    intrinsics: CameraIntrinsics
    distortion: DistortionCoeffs
    poses: tuple[CameraPose, ...]
    per_view_errors: np.ndarray
    overall_error: float
    intrinsic_stderr: dict[str, float]
    distortion_stderr: dict[str, float]
    pose_stderr: np.ndarray  # (n_views, 6): axis-angle then translation
    image_size: tuple[int, int]  # (width, height)
    error_metric: str = "mean_euclidean"
    lm_report: LmReport | None = None


@dataclass(frozen=True)
class ReprojectionStats:
    """Per-corner residuals and their per-view / overall aggregation."""

    residual_vectors: np.ndarray  # (n_views, n_corners, 2)
    per_corner_errors: np.ndarray  # (n_views, n_corners)
    per_view_means: np.ndarray  # (n_views,)
    overall_mean: float


def init_intrinsics(homographies, estimate_skew: bool = False) -> CameraIntrinsics:
    """Closed-form intrinsics from >= 3 board homographies (2 if skew is 0).

    Solves the orthonormality constraints on the homography columns for the
    symmetric matrix ``B ~ K^-T K^-1`` and reads K off its Cholesky factor.
    Raises DegenerateMotion when the board orientations leave B
    underdetermined or not positive definite.
    """
    h = np.array(list(homographies))
    needed = 3 if estimate_skew else 2
    if len(h) < needed:
        raise DegenerateMotion(f"need at least {needed} views, got {len(h)}")

    # v_ij, the coefficients of h_i^T B h_j, for (i, j) = (0, 1), (0, 0), (1, 1).
    hi, hj = h[:, :, [0, 0, 1]], h[:, :, [1, 0, 1]]
    v = np.stack([
        hi[:, 0] * hj[:, 0],
        hi[:, 0] * hj[:, 1] + hi[:, 1] * hj[:, 0],
        hi[:, 1] * hj[:, 1],
        hi[:, 2] * hj[:, 0] + hi[:, 0] * hj[:, 2],
        hi[:, 2] * hj[:, 1] + hi[:, 1] * hj[:, 2],
        hi[:, 2] * hj[:, 2],
    ], axis=-1)
    a = np.stack([v[:, 0], v[:, 1] - v[:, 2]], axis=1).reshape(-1, 6)
    if not estimate_skew:
        a = np.vstack([a, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]])

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
    # B ~ K^-T K^-1, so its Cholesky factor is K^-T up to a positive scale.
    k = np.linalg.inv(lower.T)
    k /= k[2, 2]
    return CameraIntrinsics(fx=k[0, 0], fy=k[1, 1], cx=k[0, 2], cy=k[1, 2],
                            skew=k[0, 1] if estimate_skew else 0.0)


def extrinsics_from_homography(intrinsics: CameraIntrinsics,
                               h: np.ndarray) -> CameraPose:
    """Decompose a board homography into the view pose.

    The rotation is re-orthonormalized by SVD projection and the overall sign
    chosen so the board sits in front of the camera (t_z > 0).
    """
    k = intrinsics.matrix()
    det = np.linalg.det(k)
    if abs(det) < 1e-12:
        raise SingularIntrinsics("intrinsic matrix is not invertible")
    a = np.linalg.solve(k, np.asarray(h, dtype=np.float64))
    norm1 = np.linalg.norm(a[:, 0])
    if norm1 < 1e-15:
        raise SingularIntrinsics("homography column collapses under K^-1")
    lam = 1.0 / norm1
    if lam * a[2, 2] < 0:
        lam = -lam
    r1 = lam * a[:, 0]
    r2 = lam * a[:, 1]
    r3 = np.cross(r1, r2)
    rot = nearest_rotation(np.column_stack([r1, r2, r3]))
    t = lam * a[:, 2]
    return CameraPose(rot, t)


def calibrate(dataset: CalibrationDataset, *, estimate_skew: bool = False,
              estimate_k3: bool = False, estimate_tangential: bool = False,
              lm_config: LmConfig | None = None) -> CalibrationResult:
    """Run the full calibration pipeline on a corner dataset.

    One Levenberg-Marquardt solve refines the closed-form start and zero
    distortion on one :func:`camkit.geometry.reprojection_problem` over
    every corner, with the estimated intrinsics and distortion and every
    view pose free. Standard errors, from
    :func:`camkit.optimize.standard_errors`, are NaN when the data do not fix
    every estimated parameter. Deterministic. Raises InsufficientViews for
    fewer than three views and propagates degeneracy errors from the
    individual stages.
    """
    spec = dataset.spec
    views = dataset.views
    if len(views) < MIN_VIEWS:
        raise InsufficientViews(f"need >= {MIN_VIEWS} views, got {len(views)}")
    _check_corner_counts(spec, views)

    world = board_world_points(spec)
    homs = [estimate_homography(world[:, :2], g.corners) for g in views]
    k0 = init_intrinsics(homs, estimate_skew=estimate_skew)
    poses0 = [extrinsics_from_homography(k0, h) for h in homs]

    # The estimated globals, in the canonical order of their columns.
    optional = {"skew": estimate_skew, "k3": estimate_k3,
                "p1": estimate_tangential, "p2": estimate_tangential}
    free = tuple(n for n in INTRINSIC_NAMES + DISTORTION_NAMES if optional.get(n, True))
    problem, x0, unpack = _corner_problem(world, views, k0, DistortionCoeffs(), poses0,
                                          free_globals=free, free_poses=True)
    report = levenberg_marquardt(problem, x0, lm_config or LmConfig())

    intrinsics, dist, poses, _ = unpack(report.params)
    if any(np.any(camera_depths(world, pose) <= 0) for pose in poses):
        raise BehindCamera("refined pose places the board behind the camera")

    stats = _stats(report.residual.reshape(len(views), len(world), 2))
    stderr = standard_errors(problem.jacobian(report.params), report.residual)

    return CalibrationResult(
        intrinsics=intrinsics,
        distortion=dist,
        poses=poses,
        per_view_errors=stats.per_view_means,
        overall_error=stats.overall_mean,
        intrinsic_stderr={n: s for n, s in zip(free, stderr) if n in INTRINSIC_NAMES},
        distortion_stderr={n: s for n, s in zip(free, stderr) if n in DISTORTION_NAMES},
        pose_stderr=stderr[len(free):].reshape(-1, 6),
        image_size=(dataset.image_width, dataset.image_height),
        lm_report=report,
    )


def _check_corner_counts(spec: CheckerboardSpec, views) -> None:
    for grid in views:
        if len(grid) != spec.corner_count:
            raise ShapeMismatch(
                f"view {grid.view_id!r} has {len(grid)} corners, "
                f"expected {spec.corner_count}"
            )


def _corner_problem(world, views, intrinsics, dist, poses, **free):
    """The reprojection problem of every corner of ``views`` (view-major)
    under ``poses``, with what ``free`` names free (the board is frozen)."""
    n_views, n_corners = len(views), len(world)
    return reprojection_problem(world, poses, intrinsics, dist,
                                np.repeat(np.arange(n_views), n_corners),
                                np.tile(np.arange(n_corners), n_views),
                                np.concatenate([g.corners for g in views]), **free)


def reprojection_stats(result: CalibrationResult,
                       dataset: CalibrationDataset) -> ReprojectionStats:
    """Recompute residuals of ``result`` against ``dataset``.

    Per-corner error is the Euclidean pixel distance, per-view means are
    arithmetic means over the view's corners, and the overall mean is
    corner-count weighted. Raises ShapeMismatch when shapes disagree.
    """
    if len(result.poses) != len(dataset.views):
        raise ShapeMismatch(
            f"result has {len(result.poses)} poses, dataset {len(dataset.views)} views"
        )
    _check_corner_counts(dataset.spec, dataset.views)
    world = board_world_points(dataset.spec)
    problem, x0, _ = _corner_problem(world, dataset.views, result.intrinsics,
                                     result.distortion, result.poses)
    return _stats(problem.residual(x0).reshape(len(dataset.views), len(world), 2))


def _stats(vectors: np.ndarray) -> ReprojectionStats:
    per_corner = np.linalg.norm(vectors, axis=2)
    return ReprojectionStats(vectors, per_corner, per_corner.mean(axis=1),
                             float(per_corner.mean()))


def undistort_image(image: np.ndarray, intrinsics: CameraIntrinsics,
                    dist: DistortionCoeffs) -> np.ndarray:
    """Resample an image so the pinhole model holds exactly.

    Each output pixel looks up its distorted source position (forward
    distortion of its normalized coordinates) and samples the input
    bilinearly; samples outside the source are set to 0.
    """
    img = to_float(image)
    h, w = img.shape
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    px = np.column_stack([uu.ravel(), vv.ravel()])
    n = pixel_to_normalized(px, intrinsics)
    nd = distort_normalized(n, dist)
    src = normalized_to_pixel(nd, intrinsics)
    values = bilinear_sample(img, *src.T, fill=0.0)
    out = np.clip(np.rint(values.reshape(h, w) * 255.0), 0, 255)
    return out.astype(np.uint8)
