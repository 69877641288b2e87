"""Pinhole camera model: projection, lens distortion, rotation parameterizations.

Conventions
-----------
Column-vector convention throughout: a world point ``X`` maps to the image as
``w [u, v, 1]^T = K [R | t] [X, 1]^T`` where ``w`` is the (positive) depth in
the camera frame. Pixel ``u`` runs along the image column axis, ``v`` along
the row axis. Lens distortion acts on normalized coordinates (camera-frame
coordinates divided by depth), after the perspective divide and before the
intrinsic map.

Point arguments are numpy arrays, either a single ``(d,)`` vector or an
``(n, d)`` batch; outputs match the input shape. All functions are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRotation, NoConvergence, NonPositiveDepth

_ORTHONORMALITY_TOL = 1e-9
# Column order of the intrinsics and distortion Jacobian blocks.
INTRINSIC_NAMES = ("fx", "fy", "cx", "cy", "skew")
DISTORTION_NAMES = ("k1", "k2", "k3", "p1", "p2")


def _as_batch(points, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce a point or point batch to float64 (n, dim); report if single."""
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts, single


@dataclass(frozen=True)
class CameraIntrinsics:
    """Intrinsic parameters mapping normalized coordinates to pixels.

    Attributes:
        fx, fy: Focal lengths in pixels (must be positive).
        cx, cy: Principal point in pixels.
        skew: Axis skew in pixels, zero for square sensor grids.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy", "skew"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(np.isfinite([self.fx, self.fy, self.cx, self.cy, self.skew])):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        """Return the 3x3 intrinsic matrix K."""
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class DistortionCoeffs:
    """Radial (k1, k2, k3) and tangential (p1, p2) lens distortion.

    Coefficients left at zero behave as if the term were absent.
    """

    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "p1", "p2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(np.isfinite(self.as_array())):
            raise ValueError("distortion coefficients must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.k1, self.k2, self.k3, self.p1, self.p2])

    @property
    def is_zero(self) -> bool:
        return not np.any(self.as_array())


@dataclass(frozen=True)
class CameraPose:
    """Rigid world-to-camera transform: ``x_cam = R @ x_world + t``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64).reshape(-1)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation length 3")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        _check_rotation(r)
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "CameraPose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_axis_angle(cls, rvec, translation) -> "CameraPose":
        return cls(axis_angle_to_rotation(rvec), translation)

    def axis_angle(self) -> np.ndarray:
        return rotation_to_axis_angle(self.rotation)

    def transform(self, points):
        """Map world points into the camera frame."""
        pts, single = _as_batch(points, 3)
        out = pts @ self.rotation.T + self.translation
        return out[0] if single else out

    def inverse(self) -> "CameraPose":
        rt = self.rotation.T
        return CameraPose(rt, -rt @ self.translation)

    def compose(self, other: "CameraPose") -> "CameraPose":
        """Return the pose applying ``other`` first, then ``self``."""
        return CameraPose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates (``-R^T t``)."""
        return -self.rotation.T @ self.translation


def _check_rotation(r: np.ndarray) -> None:
    if not np.isfinite(r).all():
        raise InvalidRotation("not a rotation matrix: non-finite entries")
    err = np.max(np.abs(r.T @ r - np.eye(3)))
    det = np.linalg.det(r)
    if not (err < _ORTHONORMALITY_TOL and abs(det - 1.0) < _ORTHONORMALITY_TOL):
        raise InvalidRotation(
            f"not a rotation matrix: |R^T R - I|_max={err:.3e}, det={det:.12f}"
        )


def normalized_to_pixel(normalized, intrinsics: CameraIntrinsics):
    """Apply the intrinsic map: ``u = fx x + skew y + cx``, ``v = fy y + cy``."""
    pts, single = _as_batch(normalized, 2)
    u = intrinsics.fx * pts[:, 0] + intrinsics.skew * pts[:, 1] + intrinsics.cx
    v = intrinsics.fy * pts[:, 1] + intrinsics.cy
    out = np.column_stack([u, v])
    return out[0] if single else out


def pixel_to_normalized(pixels, intrinsics: CameraIntrinsics):
    """Invert the intrinsic map exactly, including skew."""
    pts, single = _as_batch(pixels, 2)
    y = (pts[:, 1] - intrinsics.cy) / intrinsics.fy
    x = (pts[:, 0] - intrinsics.cx - intrinsics.skew * y) / intrinsics.fx
    out = np.column_stack([x, y])
    return out[0] if single else out


def distort_normalized(normalized, dist: DistortionCoeffs):
    """Apply radial and tangential distortion in normalized coordinates.

    ``x_d = x (1 + k1 r^2 + k2 r^4 + k3 r^6) + 2 p1 x y + p2 (r^2 + 2 x^2)``
    and symmetrically for ``y_d``, with ``r^2 = x^2 + y^2``.
    """
    pts, single = _as_batch(normalized, 2)
    if dist.is_zero:
        out = pts.copy()
        return out[0] if single else out
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    radial = 1.0 + r2 * (dist.k1 + r2 * (dist.k2 + r2 * dist.k3))
    xd = x * radial + 2.0 * dist.p1 * x * y + dist.p2 * (r2 + 2.0 * x * x)
    yd = y * radial + dist.p1 * (r2 + 2.0 * y * y) + 2.0 * dist.p2 * x * y
    out = np.column_stack([xd, yd])
    return out[0] if single else out


def undistort_normalized(normalized, dist: DistortionCoeffs, *,
                         tol: float = 1e-12, max_iters: int = 50):
    """Invert :func:`distort_normalized` by fixed-point iteration.

    Starting from the distorted point, each step removes the tangential shift
    and divides out the radial factor evaluated at the current estimate.
    Raises NoConvergence if the step size stays above ``tol`` after
    ``max_iters`` iterations (out-of-domain input or extreme coefficients).
    """
    pts, single = _as_batch(normalized, 2)
    if dist.is_zero:
        out = pts.copy()
        return out[0] if single else out
    xd, yd = pts[:, 0], pts[:, 1]
    x, y = xd.copy(), yd.copy()
    active = np.arange(len(x))  # points whose last step was still >= tol
    for _ in range(max_iters):
        xa, ya = x[active], y[active]
        r2 = xa * xa + ya * ya
        radial = 1.0 + r2 * (dist.k1 + r2 * (dist.k2 + r2 * dist.k3))
        tx = 2.0 * dist.p1 * xa * ya + dist.p2 * (r2 + 2.0 * xa * xa)
        ty = dist.p1 * (r2 + 2.0 * ya * ya) + 2.0 * dist.p2 * xa * ya
        x_new = (xd[active] - tx) / radial
        y_new = (yd[active] - ty) / radial
        moved = np.hypot(x_new - xa, y_new - ya) >= tol
        x[active] = x_new
        y[active] = y_new
        active = active[moved]
        if active.size == 0:
            break
    else:
        raise NoConvergence(
            f"undistortion did not converge in {max_iters} iterations"
        )
    out = np.column_stack([x, y])
    return out[0] if single else out


@functools.lru_cache(maxsize=1)
def subpixel_ray_grid(intrinsics: CameraIntrinsics, dist: DistortionCoeffs,
                      width: int, height: int, supersample: int,
                      tol: float = 1e-12) -> np.ndarray:
    """Unit-depth camera rays through every sub-pixel sample of an image.

    Each pixel is sampled on a ``supersample`` x ``supersample`` grid centred
    on it. Returns a read-only ``(height * ss * width * ss, 3)`` array of
    undistorted ``(x, y, 1)`` rays in row-major sub-pixel order (sub-rows,
    then sub-columns), undistorted to ``tol`` by :func:`undistort_normalized`.
    The rays depend on nothing but the arguments, so the most recent grid is
    cached and shared by every caller (118 MB at 640x480 with 4x4 samples).
    """
    ss = supersample
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    u = (np.arange(width)[:, None] + sub[None, :]).ravel()
    v = (np.arange(height)[:, None] + sub[None, :]).ravel()
    grid = np.empty((v.size * u.size, 3))
    grid[:, 2] = 1.0
    # In chunks of sub-rows: the lens model's temporaries for a whole grid
    # would outweigh the grid itself.
    chunk = max(1, 2 ** 20 // u.size) * u.size
    for start in range(0, len(grid), chunk):
        uu, vv = np.meshgrid(u, v[start // u.size:(start + chunk) // u.size])
        px = np.column_stack([uu.ravel(), vv.ravel()])
        grid[start:start + chunk, :2] = undistort_normalized(
            pixel_to_normalized(px, intrinsics), dist, tol=tol)
    grid.setflags(write=False)
    return grid


def render_ray_grid(rays: np.ndarray, width: int, height: int, supersample: int,
                    shade, gain: float) -> np.ndarray:
    """Average shaded sub-pixel rays into a ``(height, width)`` uint8 image.

    ``rays`` is a :func:`subpixel_ray_grid`. ``shade`` maps an ``(n, 3)``
    block of whole sub-pixel rows to ``n`` values; blocks hold about 2^16
    rays so that the shading temporaries stay in cache. Each pixel is
    ``gain`` times the mean of its ``supersample``² values, rounded half to
    even and clipped to 0..255.
    """
    ss = supersample
    rays_per_row = ss * width * ss
    rows_per_chunk = max(1, 2 ** 16 // rays_per_row)
    image = np.empty((height, width), dtype=np.uint8)
    for row0 in range(0, height, rows_per_chunk):
        row1 = min(row0 + rows_per_chunk, height)
        values = shade(rays[row0 * rays_per_row:row1 * rays_per_row])
        block = values.reshape(row1 - row0, ss, width, ss).mean(axis=(1, 3))
        image[row0:row1] = np.clip(np.rint(block * gain), 0, 255)
    return image


def project(points, pose: CameraPose, intrinsics: CameraIntrinsics,
            dist: DistortionCoeffs | None = None):
    """Project world points to pixel coordinates.

    World -> camera (pose), perspective divide, distortion in normalized
    coordinates, then the intrinsic map. Raises NonPositiveDepth if any
    point has camera-frame depth <= 1e-12.
    """
    pts, single = _as_batch(points, 3)
    cam = pts @ pose.rotation.T + pose.translation
    z = cam[:, 2]
    if np.any(z <= 1e-12):
        raise NonPositiveDepth(
            f"{int(np.sum(z <= 1e-12))} point(s) at or behind the camera plane"
        )
    out = _pinhole(cam, intrinsics, dist)
    return out[0] if single else out


def project_points(points, rvec, translation, intrinsics: CameraIntrinsics,
                   dist: DistortionCoeffs | None, jacobians: bool = False):
    """Project world points under an axis-angle pose; the solvers' kernel.

    Depths are clamped to 1e-9 instead of rejected, so trial steps that push
    points behind the camera give large finite residuals. Returns (n, 2)
    pixels or, with ``jacobians``, ``(pixels, d_pose, d_point, d_intrinsics,
    d_distortion)``: per-point blocks (n, 2, k) with respect to (rvec, t),
    the point, :data:`INTRINSIC_NAMES` and :data:`DISTORTION_NAMES`
    (Hartley & Zisserman, *Multiple View Geometry*, App. 6).
    """
    pts, _ = _as_batch(points, 3)
    rot = axis_angle_to_rotation(rvec)
    rotated = pts @ rot.T
    cam = rotated + translation
    in_front = cam[:, 2] > 1e-9
    cam[:, 2] = np.maximum(cam[:, 2], 1e-9)
    if not jacobians:
        return _pinhole(cam, intrinsics, dist)
    pixels, d_cam, d_intrinsics, d_dist = _pinhole(cam, intrinsics, dist,
                                                   jacobians=True)
    d_cam[:, :, 2] *= in_front[:, None]
    # d(R X)/d rvec = -[R X]x R J_r(rvec), J_r the right Jacobian of SO(3).
    rj = rot @ _rotation_right_jacobian(rvec)
    d_rotated = -np.cross(rotated[:, None, :], rj.T).transpose(0, 2, 1)
    d_pose = np.concatenate([d_cam @ d_rotated, d_cam], axis=2)
    return pixels, d_pose, d_cam @ rot, d_intrinsics, d_dist


def _pinhole(cam: np.ndarray, intrinsics: CameraIntrinsics,
             dist: DistortionCoeffs | None, jacobians: bool = False):
    """Perspective divide, distortion and intrinsic map of camera-frame
    points at positive depth; with ``jacobians`` also the derivatives of the
    pixels with respect to the camera-frame point, the intrinsics and the
    distortion, as ``(pixels, d_cam, d_intrinsics, d_distortion)``."""
    z = cam[:, 2]
    normalized = cam[:, :2] / z[:, None]
    distorted = normalized
    if dist is not None and not dist.is_zero:
        distorted = distort_normalized(normalized, dist)
    pixels = normalized_to_pixel(distorted, intrinsics)
    if not jacobians:
        return pixels

    x, y = normalized[:, 0], normalized[:, 1]
    xd, yd = distorted[:, 0], distorted[:, 1]
    k1, k2, k3, p1, p2 = (dist or DistortionCoeffs()).as_array()
    r2 = x * x + y * y
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    d_radial = k1 + r2 * (2.0 * k2 + 3.0 * k3 * r2)
    mixed = 2.0 * x * y * d_radial + 2.0 * p1 * x + 2.0 * p2 * y
    d_distorted = _blocks(  # d(xd, yd)/d(x, y)
        (radial + 2.0 * x * x * d_radial + 2.0 * p1 * y + 6.0 * p2 * x, mixed),
        (mixed, radial + 2.0 * y * y * d_radial + 6.0 * p1 * y + 2.0 * p2 * x))
    k_map = np.array([[intrinsics.fx, intrinsics.skew], [0.0, intrinsics.fy]])
    # d(x, y)/d(camera point) = [I | -(x, y)] / z
    scaled = k_map @ d_distorted / z[:, None, None]
    d_cam = np.concatenate([scaled, -scaled @ normalized[:, :, None]], axis=2)
    d_intrinsics = _blocks((xd, 0.0, 1.0, 0.0, yd), (0.0, yd, 0.0, 1.0, 0.0))
    d_dist = _blocks((x * r2, x * r2 ** 2, x * r2 ** 3, 2.0 * x * y, r2 + 2.0 * x * x),
                     (y * r2, y * r2 ** 2, y * r2 ** 3, r2 + 2.0 * y * y, 2.0 * x * y))
    return pixels, d_cam, d_intrinsics, k_map @ d_dist


def _blocks(*rows) -> np.ndarray:
    """Per-point matrices (n, len(rows), len(row)) from rows of (n,) arrays
    and scalars."""
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows],
                    axis=1)


def camera_depths(points, pose: CameraPose) -> np.ndarray:
    """Camera-frame depth (z) of world points under ``pose``."""
    pts, _ = _as_batch(points, 3)
    return pts @ pose.rotation[2] + pose.translation[2]


def _skew_matrix(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def axis_angle_to_rotation(rvec) -> np.ndarray:
    """Rodrigues formula: axis-angle 3-vector to rotation matrix."""
    r = np.asarray(rvec, dtype=np.float64).reshape(3)
    theta = np.linalg.norm(r)
    if theta < 1e-12:
        k = _skew_matrix(r)
        return np.eye(3) + k + 0.5 * (k @ k)
    axis = r / theta
    k = _skew_matrix(axis)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def _rotation_right_jacobian(rvec: np.ndarray) -> np.ndarray:
    """``J_r`` with ``R(rvec + d) ~ R(rvec) R(J_r d)`` for small ``d``."""
    theta = np.linalg.norm(rvec)
    k = _skew_matrix(rvec)
    a = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2  # (1 - cos t) / t^2
    # (t - sin t) / t^3, from its series where the closed form cancels.
    b = (theta - np.sin(theta)) / theta ** 3 if theta > 1e-2 else 1 / 6 - theta**2 / 120
    return np.eye(3) - a * k + b * (k @ k)


def rotation_to_axis_angle(rotation) -> np.ndarray:
    """Rotation matrix to axis-angle 3-vector with angle in [0, pi].

    Goes through a unit quaternion extracted with the largest-pivot rule,
    which stays accurate for every angle (the direct arcsin/arccos formulas
    lose precision near 0 and pi). Raises InvalidRotation for non-orthonormal
    input.
    """
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape != (3, 3):
        raise InvalidRotation("rotation matrix must be 3x3")
    _check_rotation(r)

    tr = r[0, 0] + r[1, 1] + r[2, 2]
    pivots = (tr, r[0, 0], r[1, 1], r[2, 2])
    case = int(np.argmax(pivots))
    if case == 0:
        s = 2.0 * np.sqrt(1.0 + tr)
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    elif case == 1:
        s = 2.0 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = np.array([(r[2, 1] - r[1, 2]) / s,
                      0.25 * s,
                      (r[0, 1] + r[1, 0]) / s,
                      (r[0, 2] + r[2, 0]) / s])
    elif case == 2:
        s = 2.0 * np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2])
        q = np.array([(r[0, 2] - r[2, 0]) / s,
                      (r[0, 1] + r[1, 0]) / s,
                      0.25 * s,
                      (r[1, 2] + r[2, 1]) / s])
    else:
        s = 2.0 * np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1])
        q = np.array([(r[1, 0] - r[0, 1]) / s,
                      (r[0, 2] + r[2, 0]) / s,
                      (r[1, 2] + r[2, 1]) / s,
                      0.25 * s])
    if q[0] < 0:
        q = -q

    vec = q[1:]
    vec_norm = np.linalg.norm(vec)
    if vec_norm < 1e-12:
        return 2.0 * vec  # theta -> 0 limit of (theta / sin(theta/2)) * vec
    theta = 2.0 * np.arctan2(vec_norm, q[0])
    return (theta / vec_norm) * vec


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Project a 3x3 matrix onto the nearest rotation (SVD, U V^T)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r
