"""Planar-target camera calibration.

Pipeline: per-view homographies (DLT), closed-form intrinsics from the
image-of-the-absolute-conic constraints, homography decomposition for the
per-view extrinsics, a linear bootstrap of the radial coefficients, then a
joint Levenberg-Marquardt refinement of intrinsics, distortion, and all view
poses against every corner observation. Reported uncertainties are
first-order standard errors from the final Jacobian.
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
    project_points,
    rotation_to_axis_angle,
)
from .homography import estimate_homography
from .imageops import bilinear_sample, to_float
from .optimize import LeastSquaresProblem, LmConfig, levenberg_marquardt

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
    that were not estimated are absent.
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


@dataclass(frozen=True)
class ReprojectionStats:
    """Per-corner residuals and their per-view / overall aggregation."""

    residual_vectors: np.ndarray  # (n_views, n_corners, 2)
    per_corner_errors: np.ndarray  # (n_views, n_corners)
    per_view_means: np.ndarray  # (n_views,)
    overall_mean: float


def _homography_constraint_row(h: np.ndarray, i: int, j: int) -> np.ndarray:
    hi, hj = h[:, i], h[:, j]
    return np.array([
        hi[0] * hj[0],
        hi[0] * hj[1] + hi[1] * hj[0],
        hi[1] * hj[1],
        hi[2] * hj[0] + hi[0] * hj[2],
        hi[2] * hj[1] + hi[1] * hj[2],
        hi[2] * hj[2],
    ])


def init_intrinsics(homographies, estimate_skew: bool = False) -> CameraIntrinsics:
    """Closed-form intrinsics from >= 3 board homographies (2 if skew is 0).

    Solves the orthonormality constraints on the homography columns for the
    symmetric matrix ``B ~ K^-T K^-1`` and factors it. Raises DegenerateMotion
    when the board orientations leave B underdetermined or not positive
    definite.
    """
    hs = list(homographies)
    needed = 3 if estimate_skew else 2
    if len(hs) < needed:
        raise DegenerateMotion(f"need at least {needed} views, got {len(hs)}")

    rows = []
    for h in hs:
        rows.append(_homography_constraint_row(h, 0, 1))
        rows.append(_homography_constraint_row(h, 0, 0)
                    - _homography_constraint_row(h, 1, 1))
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
        np.linalg.cholesky(bmat)
    except np.linalg.LinAlgError:
        raise DegenerateMotion("conic estimate is not positive definite") from None

    denom = b11 * b22 - b12 * b12
    with np.errstate(invalid="raise", divide="raise"):
        try:
            v0 = (b12 * b13 - b11 * b23) / denom
            lam = b33 - (b13 * b13 + v0 * (b12 * b13 - b11 * b23)) / b11
            alpha = np.sqrt(lam / b11)
            beta = np.sqrt(lam * b11 / denom)
            gamma = -b12 * alpha * alpha * beta / lam
            u0 = gamma * v0 / beta - b13 * alpha * alpha / lam
        except FloatingPointError:
            raise DegenerateMotion("conic estimate does not factor") from None
    if not estimate_skew:
        gamma = 0.0
    return CameraIntrinsics(fx=alpha, fy=beta, cx=u0, cy=v0, skew=gamma)


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


def _init_radial(intrinsics: CameraIntrinsics, poses, world: np.ndarray,
                 views, n_radial: int) -> np.ndarray:
    """Linear least-squares bootstrap of the radial coefficients.

    Pixels are linear in the distortion coefficients, so the kernel's
    distortion block at zero distortion is the design matrix.
    """
    lhs = []
    rhs = []
    for pose, grid in zip(poses, views):
        ideal, *_, d_dist = project_points(world, pose.axis_angle(), pose.translation,
                                           intrinsics, None, jacobians=True)
        lhs.append(d_dist[:, :, :n_radial].reshape(-1, n_radial))
        rhs.append((grid.corners - ideal).ravel())
    coeffs, *_ = np.linalg.lstsq(np.vstack(lhs), np.concatenate(rhs), rcond=None)
    return coeffs


@dataclass
class _ParamLayout:
    """Index bookkeeping for the joint refinement parameter vector: the
    estimated entries of ``INTRINSIC_NAMES + DISTORTION_NAMES``, then six
    pose parameters (axis-angle, translation) per view."""

    estimate_skew: bool
    estimate_k3: bool
    estimate_tangential: bool
    n_views: int

    @property
    def free(self) -> np.ndarray:
        """Mask of the estimated entries of INTRINSIC_NAMES + DISTORTION_NAMES."""
        return np.array([True] * 4 + [self.estimate_skew, True, True, self.estimate_k3]
                        + [self.estimate_tangential] * 2)

    @property
    def global_names(self) -> list[str]:
        return [n for n, free in zip(INTRINSIC_NAMES + DISTORTION_NAMES, self.free)
                if free]

    @property
    def n_global(self) -> int:
        return int(self.free.sum())

    @property
    def n_params(self) -> int:
        return self.n_global + 6 * self.n_views

    def pose_slice(self, view: int) -> slice:
        start = self.n_global + 6 * view
        return slice(start, start + 6)

    def pack(self, intrinsics: CameraIntrinsics, dist: DistortionCoeffs,
             poses) -> np.ndarray:
        k = [getattr(intrinsics, n) for n in INTRINSIC_NAMES]
        x = [np.concatenate([k, dist.as_array()])[self.free]]
        x += [np.concatenate([rotation_to_axis_angle(p.rotation), p.translation])
              for p in poses]
        return np.concatenate(x)

    def unpack(self, x: np.ndarray):
        values = np.zeros(len(INTRINSIC_NAMES) + len(DISTORTION_NAMES))
        values[self.free] = x[:self.n_global]
        poses = [(x[s][:3], x[s][3:])
                 for s in map(self.pose_slice, range(self.n_views))]
        return (CameraIntrinsics(*values[:len(INTRINSIC_NAMES)]),
                DistortionCoeffs(*values[len(INTRINSIC_NAMES):]), poses)


def calibrate(dataset: CalibrationDataset, *, estimate_skew: bool = False,
              estimate_k3: bool = False, estimate_tangential: bool = False,
              lm_config: LmConfig | None = None) -> CalibrationResult:
    """Run the full calibration pipeline on a corner dataset.

    Deterministic. Raises InsufficientViews for fewer than three views and
    propagates degeneracy errors from the individual stages.
    """
    spec = dataset.spec
    views = dataset.views
    if len(views) < MIN_VIEWS:
        raise InsufficientViews(f"need >= {MIN_VIEWS} views, got {len(views)}")
    for grid in views:
        if len(grid) != spec.corner_count:
            raise ShapeMismatch(
                f"view {grid.view_id!r} has {len(grid)} corners, "
                f"expected {spec.corner_count}"
            )

    world = board_world_points(spec)
    world_xy = world[:, :2]
    homs = [estimate_homography(world_xy, g.corners) for g in views]
    k0 = init_intrinsics(homs, estimate_skew=estimate_skew)
    poses0 = [extrinsics_from_homography(k0, h) for h in homs]

    n_radial = 3 if estimate_k3 else 2
    radial = _init_radial(k0, poses0, world, views, n_radial)
    d0 = DistortionCoeffs(k1=radial[0], k2=radial[1],
                          k3=radial[2] if estimate_k3 else 0.0)

    layout = _ParamLayout(estimate_skew, estimate_k3, estimate_tangential,
                          len(views))
    observed = np.stack([g.corners for g in views])
    x0 = layout.pack(k0, d0, poses0)

    rows = 2 * len(world)

    def residual(x):
        intrinsics, dist, pose_params = layout.unpack(x)
        proj = np.stack([project_points(world, rvec, t, intrinsics, dist)
                         for rvec, t in pose_params])
        return (proj - observed).ravel()

    def jacobian(x):
        intrinsics, dist, pose_params = layout.unpack(x)
        jac = np.zeros((rows * len(views), layout.n_params))
        for v, (rvec, t) in enumerate(pose_params):
            _, d_pose, _, d_k, d_dist = project_points(world, rvec, t, intrinsics,
                                                       dist, jacobians=True)
            block = jac[v * rows:(v + 1) * rows]
            d_global = np.concatenate([d_k, d_dist], axis=2)[:, :, layout.free]
            block[:, :layout.n_global] = d_global.reshape(rows, -1)
            block[:, layout.pose_slice(v)] = d_pose.reshape(rows, 6)
        return jac

    problem = LeastSquaresProblem(residual=residual, jacobian=jacobian)
    report = levenberg_marquardt(problem, x0, lm_config or LmConfig())

    intrinsics, dist, pose_params = layout.unpack(report.params)
    poses = [CameraPose.from_axis_angle(rvec, t) for rvec, t in pose_params]
    if any(np.any(camera_depths(world, pose) <= 0) for pose in poses):
        raise BehindCamera("refined pose places the board behind the camera")

    per_corner = np.linalg.norm(residual(report.params).reshape(observed.shape), axis=2)
    per_view = per_corner.mean(axis=1)
    overall = float(per_corner.mean())

    stderr = _standard_errors(report, jacobian)
    named = list(zip(layout.global_names, stderr))
    intr_err = {n: e for n, e in named if n in INTRINSIC_NAMES}
    dist_err = {n: e for n, e in named if n in DISTORTION_NAMES}
    pose_err = stderr[layout.n_global:].reshape(len(views), 6)

    return CalibrationResult(
        intrinsics=intrinsics,
        distortion=dist,
        poses=tuple(poses),
        per_view_errors=per_view,
        overall_error=overall,
        intrinsic_stderr=intr_err,
        distortion_stderr=dist_err,
        pose_stderr=pose_err,
        image_size=(dataset.image_width, dataset.image_height),
    )


def _standard_errors(report, jacobian) -> np.ndarray:
    jac = jacobian(report.params)
    m, n = jac.shape
    if m <= n:
        return np.full(n, np.nan)
    sigma2 = 2.0 * report.final_cost / (m - n)
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    return np.sqrt(np.maximum(sigma2 * np.diag(cov), 0.0))


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
    world = board_world_points(dataset.spec)
    expected = dataset.spec.corner_count
    vectors = []
    for pose, grid in zip(result.poses, dataset.views):
        if len(grid) != expected:
            raise ShapeMismatch(
                f"view {grid.view_id!r} has {len(grid)} corners, expected {expected}"
            )
        proj = project_points(world, pose.axis_angle(), pose.translation,
                              result.intrinsics, result.distortion)
        vectors.append(proj - grid.corners)
    vectors = np.stack(vectors)
    per_corner = np.linalg.norm(vectors, axis=2)
    per_view = per_corner.mean(axis=1)
    return ReprojectionStats(
        residual_vectors=vectors,
        per_corner_errors=per_corner,
        per_view_means=per_view,
        overall_mean=float(per_corner.mean()),
    )


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
    values = bilinear_sample(img, src, fill=0.0)
    out = np.clip(np.rint(values.reshape(h, w) * 255.0), 0, 255)
    return out.astype(np.uint8)
