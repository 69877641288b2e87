"""Pinhole camera model: projection, lens distortion, axis-angle rotations.

Conventions
-----------
Column-vector convention throughout: a world point ``X`` maps to the image as
``w [u, v, 1]^T = K [R | t] [X, 1]^T`` where ``w`` is the (positive) depth in
the camera frame. Pixel ``u`` runs along the image column axis, ``v`` along
the row axis. Lens distortion acts on normalized coordinates (camera-frame
coordinates divided by depth), after the perspective divide and before the
intrinsic map.

Point arguments are numpy arrays, a single ``(d,)`` point or an ``(n, d)``
batch, and outputs keep that shape; only :func:`camera_depths` and
:func:`project_points` always return batches. The lens is one Brown-Conrady
model, :class:`DistortionCoeffs`, zero by default, and rotations have one
model, Rodrigues' formula, inverted for the log map. All functions are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRotation, NoConvergence, NonPositiveDepth
from .optimize import BlockJacobian, BlockLayout, LeastSquaresProblem

_ORTHONORMALITY_TOL = 1e-9
_UNDISTORT_ITERS = 50
# Side, in pixels, of the image tiles whose ray bounds subpixel_ray_grid keeps.
RENDER_TILE = 4
# Rays per block of render_tiles. A 640x480 cube view faulted in 1,700-2,800
# fresh pages and took 0.13-0.15 s in blocks of 2^14 rays, 4,900-12,700 pages
# and 0.13-0.20 s in blocks of 2^15, and 25,000-27,000 pages and 0.17-0.21 s
# in blocks of 2^16 (after the grid, in a fresh process).
SHADE_BLOCK = 2 ** 14
# Column order of the intrinsics and distortion Jacobian blocks.
INTRINSIC_NAMES = ("fx", "fy", "cx", "cy", "skew")
DISTORTION_NAMES = ("k1", "k2", "k3", "p1", "p2")
# The Jacobian blocks project_points can form, in the order it returns them.
JACOBIAN_BLOCKS = ("pose", "point", "intrinsics", "distortion")


def _points(points, dim: int) -> np.ndarray:
    """A float64 ``(dim,)`` point or ``(n, dim)`` batch; ValueError otherwise."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim not in (1, 2) or pts.shape[-1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


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
        return _points(points, 3) @ self.rotation.T + self.translation

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
    pts = _points(normalized, 2)
    u = intrinsics.fx * pts[..., 0] + intrinsics.skew * pts[..., 1] + intrinsics.cx
    v = intrinsics.fy * pts[..., 1] + intrinsics.cy
    return np.stack([u, v], axis=-1)


def pixel_to_normalized(pixels, intrinsics: CameraIntrinsics):
    """Invert the intrinsic map exactly, including skew."""
    pts = _points(pixels, 2)
    y = (pts[..., 1] - intrinsics.cy) / intrinsics.fy
    x = (pts[..., 0] - intrinsics.cx - intrinsics.skew * y) / intrinsics.fx
    return np.stack([x, y], axis=-1)


def _lens_terms(x, y, dist: DistortionCoeffs):
    """``r^2``, the radial factor and the tangential shift ``(tx, ty)`` at
    normalized ``(x, y)``; the distorted point is ``(x, y) * radial + (tx, ty)``."""
    r2 = x * x + y * y
    radial = 1.0 + r2 * (dist.k1 + r2 * (dist.k2 + r2 * dist.k3))
    tx = 2.0 * dist.p1 * x * y + dist.p2 * (r2 + 2.0 * x * x)
    ty = dist.p1 * (r2 + 2.0 * y * y) + 2.0 * dist.p2 * x * y
    return r2, radial, (tx, ty)


def distort_normalized(normalized, dist: DistortionCoeffs):
    """Apply radial and tangential distortion in normalized coordinates.

    ``x_d = x (1 + k1 r^2 + k2 r^4 + k3 r^6) + 2 p1 x y + p2 (r^2 + 2 x^2)``
    and symmetrically for ``y_d``, with ``r^2 = x^2 + y^2``.
    """
    pts = _points(normalized, 2)
    if dist.is_zero:
        return pts.copy()
    x, y = pts[..., 0], pts[..., 1]
    _, radial, (tx, ty) = _lens_terms(x, y, dist)
    return np.stack([x * radial + tx, y * radial + ty], axis=-1)


def undistort_normalized(normalized, dist: DistortionCoeffs, *, tol: float = 1e-12):
    """Invert :func:`distort_normalized` by fixed-point iteration.

    Starting from the distorted point, each step removes the tangential shift
    and divides out the radial factor evaluated at the current estimate.
    Raises NoConvergence when steps stay above ``tol`` for ``_UNDISTORT_ITERS``
    iterations (out-of-domain input or extreme coefficients).
    """
    pts = _points(normalized, 2)
    if dist.is_zero:
        return pts.copy()
    xd, yd = pts.reshape(-1, 2).T
    x, y = xd.copy(), yd.copy()
    active = np.arange(len(x))  # points whose last step was still >= tol
    for _ in range(_UNDISTORT_ITERS):
        xa, ya = x[active], y[active]
        _, radial, (tx, ty) = _lens_terms(xa, ya, dist)
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
            f"undistortion did not converge in {_UNDISTORT_ITERS} iterations"
        )
    return np.stack([x, y], axis=-1).reshape(pts.shape)


class RayGrid:
    """The bounds of each tile's undistorted sub-pixel rays, and the rays of
    the tiles that renders have asked for.

    Tiles are ``RENDER_TILE`` pixels square from the image's top-left corner,
    numbered row-major. ``u`` (tile columns, side) and ``v`` (tile rows, side)
    are the pixel coordinates of each tile's ``side`` x ``side`` samples,
    padded past the image by repeating the last ones, undistorted to ``tol``.
    ``tile_min`` and ``tile_max``, read-only ``(tile rows, tile columns, 2)``,
    bound each tile's ray ``(x, y)``; the board and the cube decide whole
    tiles from them for :func:`render_tiles`. :meth:`rays` undistorts a
    tile's rays again on its first request and, when undistortion iterates
    (a lens with distortion), keeps them; a lens without distortion keeps
    nothing, as its rays are only the pixels' normalized coordinates.
    ``size`` is the image's (width, height) and ``side`` a tile side's samples.
    """

    def __init__(self, intrinsics: CameraIntrinsics, dist: DistortionCoeffs,
                 tol: float, u: np.ndarray, v: np.ndarray, size: tuple[int, int]):
        self._lens = (intrinsics, dist, tol)
        self._u, self._v, self.size = u, v, size
        n_tiles, side = len(u) * len(v), u.shape[1]
        self.side = side
        bounds = np.empty((2, n_tiles, 2))
        # In blocks of about 2^16 rays: the lens model's temporaries for every
        # ray at once would outweigh the bounds many times over.
        block = max(1, 2 ** 16 // side ** 2)
        for start in range(0, n_tiles, block):
            xy = self._undistort(np.arange(start, min(start + block, n_tiles)))
            # One axis at a time: numpy reduces both at once 6 times slower.
            bounds[0, start:start + block] = xy.min(axis=1).min(axis=1)
            bounds[1, start:start + block] = xy.max(axis=1).max(axis=1)
        bounds.setflags(write=False)
        self.tile_min, self.tile_max = bounds.reshape(2, len(v), len(u), 2)
        # Kept rays fill the store from its start in first-request order, so
        # only their pages are ever touched; _slot maps a tile to its place.
        self._store = None if dist.is_zero else np.empty((n_tiles, side, side, 2))
        self._slot = np.full(n_tiles, -1)
        self._kept = 0

    def _undistort(self, tiles: np.ndarray) -> np.ndarray:
        """The undistorted ``(x, y)`` of the samples of flat tile indices
        ``tiles``, shaped ``(k, side, side, 2)``. Undistortion is elementwise,
        so these are the bits that undistorting the whole image gives."""
        row, col = np.divmod(tiles, len(self._u))
        u, v = np.broadcast_arrays(self._u[col, None, :], self._v[row, :, None])
        intrinsics, dist, tol = self._lens
        xy = pixel_to_normalized(np.column_stack([u.ravel(), v.ravel()]), intrinsics)
        if not dist.is_zero:
            xy = undistort_normalized(xy, dist, tol=tol)
        return xy.reshape(u.shape + (2,))

    def tile_corners(self) -> np.ndarray:
        """The corners of each tile's ray box as unit-depth rays, shaped
        ``(4, tile rows, tile columns, 3)``."""
        box = np.stack([self.tile_min, self.tile_max])
        corners = np.ones((2, 2) + box.shape[1:3] + (3,))
        corners[..., 0] = box[None, :, ..., 0]  # corner (i, j): x from bound j
        corners[..., 1] = box[:, None, ..., 1]  # and y from bound i
        return corners.reshape((4,) + box.shape[1:3] + (3,))

    def rays(self, tiles) -> np.ndarray:
        """The undistorted ray ``(x, y)``, z = 1 implicit, of each flat tile
        index in ``tiles``, as ``(k, side, side, 2)`` in row-major sub-pixel
        order."""
        tiles = np.asarray(tiles)
        if self._store is None:
            return self._undistort(tiles)
        new = np.unique(tiles[self._slot[tiles] < 0])
        if new.size:
            end = self._kept + new.size
            self._store[self._kept:end] = self._undistort(new)
            self._slot[new] = np.arange(self._kept, end)
            self._kept = end
        return self._store[self._slot[tiles]]


@functools.lru_cache(maxsize=1)
def subpixel_ray_grid(intrinsics: CameraIntrinsics, dist: DistortionCoeffs,
                      width: int, height: int, supersample: int,
                      tol: float = 1e-12) -> RayGrid:
    """The :class:`RayGrid` of an image, each pixel sampled on a
    ``supersample`` x ``supersample`` grid centred on it. The grid depends on
    nothing but the arguments, so the most recent one is cached and shared
    by every caller, with the rays its renders kept.
    """
    ss = supersample
    side = RENDER_TILE * ss  # samples along a tile side
    n_ty, n_tx = -(-height // RENDER_TILE), -(-width // RENDER_TILE)
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    u = (np.arange(width)[:, None] + sub[None, :]).ravel()
    v = (np.arange(height)[:, None] + sub[None, :]).ravel()
    u = np.pad(u, (0, n_tx * side - u.size), mode="edge")
    v = np.pad(v, (0, n_ty * side - v.size), mode="edge")
    return RayGrid(intrinsics, dist, tol, u.reshape(n_tx, side), v.reshape(n_ty, side),
                   (width, height))


def render_tiles(grid: RayGrid, shades: np.ndarray, cases: np.ndarray, shade,
                 gain: float) -> np.ndarray:
    """The one render loop, for scenes that decide whole tiles of ``grid``.

    ``cases`` (tile rows, tile columns) is -1 where a tile takes its pixel
    value from ``shades`` whole, and else a case of the scene's, such as a
    known hit. The other tiles' rays come from :meth:`RayGrid.rays`, case
    by case, ``SHADE_BLOCK`` at a time, as ``(k, 3)`` rays with z = 1, and
    ``shade(rays, case)`` gives each an intensity. A pixel is ``gain`` times
    the mean of its rays' intensities, rounded half to even, which must lie
    in 0-255. Partial tiles are padded in the grid and cropped from the image.
    """
    n_ty, n_tx = cases.shape
    image = np.empty((n_ty, RENDER_TILE, n_tx, RENDER_TILE), dtype=np.uint8)
    image[:] = shades[:, None, :, None]
    ss, side = grid.side // RENDER_TILE, grid.side
    tiles_per_block = max(1, SHADE_BLOCK // side ** 2)
    for case in np.unique(cases[cases >= 0]):
        tiles = np.flatnonzero(cases == case)
        for start in range(0, tiles.size, tiles_per_block):
            block = tiles[start:start + tiles_per_block]
            row, col = np.divmod(block, n_tx)
            xy = grid.rays(block).reshape(-1, 2)
            values = shade(np.column_stack([xy, np.ones(len(xy))]), case)
            image[row, :, col, :] = np.rint(values.reshape(
                -1, RENDER_TILE, ss, RENDER_TILE, ss).mean(axis=(2, 4)) * gain)
    image = image.reshape(n_ty * RENDER_TILE, n_tx * RENDER_TILE)
    width, height = grid.size
    return np.ascontiguousarray(image[:height, :width])


def project(points, pose: CameraPose, intrinsics: CameraIntrinsics,
            dist: DistortionCoeffs = DistortionCoeffs()):
    """Project world points to pixel coordinates.

    World -> camera (pose), perspective divide, distortion in normalized
    coordinates, then the intrinsic map. Raises NonPositiveDepth if any
    point has camera-frame depth <= 1e-12.
    """
    cam = pose.transform(points)
    z = cam[..., 2]
    if np.any(z <= 1e-12):
        raise NonPositiveDepth(
            f"{int(np.sum(z <= 1e-12))} point(s) at or behind the camera plane"
        )
    return _pinhole(cam, intrinsics, dist)


def project_points(points, rvec, translation, intrinsics: CameraIntrinsics,
                   dist: DistortionCoeffs, jacobians=False, *, pose_of):
    """Project world points under axis-angle poses; the solvers' kernel.

    Point k is seen under pose ``pose_of[k]`` of the ``(P, 3)`` ``rvec`` and
    ``translation``; each pose's rotation and its Jacobian are evaluated once.
    Depths are clamped to 1e-9 instead of rejected, so trial steps that push
    points behind the camera give large finite residuals. Returns (n, 2)
    pixels or, with ``jacobians``, ``(pixels, d_pose, d_point, d_intrinsics,
    d_distortion)``: per-point blocks (n, 2, k) with respect to the point's
    (rvec, t), the point, :data:`INTRINSIC_NAMES` and :data:`DISTORTION_NAMES`
    (Hartley & Zisserman, *Multiple View Geometry*, App. 6). ``jacobians``
    may name a subset of :data:`JACOBIAN_BLOCKS` instead of ``True``; the
    blocks it leaves out are None and are not formed, and the rest are the
    same bits as in the full call.
    """
    pts = _points(points, 3).reshape(-1, 3)
    rot, left_jacobian = _rodrigues(_points(rvec, 3))
    rot = rot[pose_of]
    rotated = np.einsum("kij,kj->ki", rot, pts)
    cam = rotated + np.asarray(translation, dtype=np.float64)[pose_of]
    in_front = cam[:, 2] > 1e-9
    cam[:, 2] = np.maximum(cam[:, 2], 1e-9)
    if not jacobians:
        return _pinhole(cam, intrinsics, dist)
    wanted = JACOBIAN_BLOCKS if jacobians is True else jacobians
    pixels, d_cam, d_intrinsics, d_dist = _pinhole(cam, intrinsics, dist, wanted)
    d_cam[:, :, 2] *= in_front[:, None]
    d_pose = d_point = None
    if "pose" in wanted:
        # d(R X)/d rvec = -[R X]x J_l(rvec), J_l the left Jacobian of SO(3).
        d_rvec = d_cam @ _skew_matrix(-rotated) @ left_jacobian[pose_of]
        d_pose = np.concatenate([d_rvec, d_cam], axis=2)
    if "point" in wanted:
        d_point = d_cam @ rot
    return pixels, d_pose, d_point, d_intrinsics, d_dist


def _pinhole(cam: np.ndarray, intrinsics: CameraIntrinsics,
             dist: DistortionCoeffs, jacobians=()):
    """Perspective divide, distortion and intrinsic map of camera-frame
    points at positive depth. With ``jacobians``, names from
    :data:`JACOBIAN_BLOCKS` (an ``(n, 3)`` batch), also the derivatives of
    the pixels with respect to the camera-frame point and, where named, the
    intrinsics and the distortion (else None), as ``(pixels, d_cam,
    d_intrinsics, d_distortion)``."""
    normalized = cam[..., :2] / cam[..., 2:]
    distorted = distort_normalized(normalized, dist)
    pixels = normalized_to_pixel(distorted, intrinsics)
    if not jacobians:
        return pixels

    x, y = normalized[:, 0], normalized[:, 1]
    xd, yd = distorted[:, 0], distorted[:, 1]
    k1, k2, k3, p1, p2 = dist.as_array()
    r2, radial, _ = _lens_terms(x, y, dist)
    d_radial = k1 + r2 * (2.0 * k2 + 3.0 * k3 * r2)
    mixed = 2.0 * x * y * d_radial + 2.0 * p1 * x + 2.0 * p2 * y
    d_distorted = _blocks(  # d(xd, yd)/d(x, y)
        (radial + 2.0 * x * x * d_radial + 2.0 * p1 * y + 6.0 * p2 * x, mixed),
        (mixed, radial + 2.0 * y * y * d_radial + 6.0 * p1 * y + 2.0 * p2 * x))
    k_map = np.array([[intrinsics.fx, intrinsics.skew], [0.0, intrinsics.fy]])
    # d(x, y)/d(camera point) = [I | -(x, y)] / z
    scaled = k_map @ d_distorted / cam[:, 2, None, None]
    d_cam = np.concatenate([scaled, -scaled @ normalized[:, :, None]], axis=2)
    d_intrinsics = d_dist = None
    if "intrinsics" in jacobians:
        d_intrinsics = _blocks((xd, 0.0, 1.0, 0.0, yd), (0.0, yd, 0.0, 1.0, 0.0))
    if "distortion" in jacobians:
        d_dist = k_map @ _blocks(
            (x * r2, x * r2 ** 2, x * r2 ** 3, 2.0 * x * y, r2 + 2.0 * x * x),
            (y * r2, y * r2 ** 2, y * r2 ** 3, r2 + 2.0 * y * y, 2.0 * x * y))
    return pixels, d_cam, d_intrinsics, d_dist


def _blocks(*rows) -> np.ndarray:
    """Per-point matrices (n, len(rows), len(row)) from rows of (n,) arrays
    and scalars."""
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows],
                    axis=1)


def reprojection_problem(points, poses, intrinsics: CameraIntrinsics,
                         dist: DistortionCoeffs, obs_pose, obs_point, obs_px, *,
                         free_globals=(), free_poses=False, free_points=False):
    """The pixel reprojection least-squares problem of calibration, pose
    refinement and bundle adjustment, which differ only in what is free.

    Observation k is point ``obs_point[k]`` seen at pixel ``obs_px[k]`` under
    the :class:`CameraPose` ``poses[obs_pose[k]]`` (integer arrays, one entry
    per observation, else ValueError), in residual rows 2k and 2k+1. Free are
    the globals named in ``free_globals`` (from :data:`INTRINSIC_NAMES` +
    :data:`DISTORTION_NAMES`) and the entries set in the masks ``free_poses``
    and ``free_points``, which broadcast to ``(n_poses, 6)`` (axis-angle,
    translation) and ``(n_points, 3)``; else ValueError. Only this function
    knows the layout of ``x``: the free globals in that canonical order, the
    free pose entries, then the free point coordinates. Residual and
    Jacobian are each one pose-indexed :func:`project_points` call on raw
    arrays. Returns ``(problem, x0, unpack)``, ``unpack(x) -> (intrinsics,
    dist, tuple of CameraPose, (n_points, 3) points)``, which returns frozen
    entries bit for bit (a pose with a frozen rotation keeps its matrix).
    The Jacobian is a :class:`~camkit.optimize.BlockJacobian` that
    eliminates the points when any is free (row k keeps the free globals and
    its pose's 6), otherwise the poses (row k keeps only the free globals).
    Every Jacobian of the problem shares one
    :class:`~camkit.optimize.BlockLayout`, built here, and its kernel call
    forms the global and point blocks only when some of them are free.
    """
    names = INTRINSIC_NAMES + DISTORTION_NAMES
    if not set(free_globals) <= set(names):
        raise ValueError(f"free_globals {free_globals!r} names a term outside {names}")
    pose0 = np.array([[*p.axis_angle(), *p.translation] for p in poses]).reshape(-1, 6)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pose_free = np.broadcast_to(np.asarray(free_poses, dtype=bool), pose0.shape)
    point_free = np.broadcast_to(np.asarray(free_points, dtype=bool), points.shape)
    global_free = np.isin(names, free_globals)
    free = np.concatenate([global_free, pose_free.ravel(), point_free.ravel()])
    n_global, point_start = len(names), len(names) + pose0.size
    full0 = np.concatenate([[getattr(intrinsics, n) for n in INTRINSIC_NAMES],
                            dist.as_array(), pose0.ravel(), points.ravel()])
    obs_px = np.asarray(obs_px, dtype=np.float64).reshape(-1, 2)
    if not np.shape(obs_pose) == np.shape(obs_point) == (len(obs_px),):
        raise ValueError("expected one pose, point and pixel per observation, got shapes "
                         f"{np.shape(obs_pose)}, {np.shape(obs_point)}, {obs_px.shape}")

    # Column of each full entry in ``x``, -1 where frozen.
    column = np.where(free, np.cumsum(free) - 1, -1)
    kept_cols = np.broadcast_to(column[:n_global][global_free],
                                (len(obs_px), global_free.sum()))
    pose_cols = column[n_global:point_start].reshape(-1, 6)
    by_point = bool(point_free.any())
    if by_point:
        kept_cols = np.concatenate([kept_cols, pose_cols[obs_pose]], axis=1)
    block, block_cols = ((obs_point, column[point_start:].reshape(-1, 3)) if by_point
                         else (obs_pose, pose_cols))
    layout = BlockLayout(kept_cols, block, block_cols, (2 * len(obs_px), int(free.sum())))
    # Only the blocks of free parameters are formed; the poses always are,
    # as kept or eliminated columns.
    wanted = (("pose",) + ("point",) * by_point
              + ("intrinsics", "distortion") * bool(global_free.any()))

    def split(x: np.ndarray):
        full = full0.copy()
        full[free] = x
        return (CameraIntrinsics(*full[:len(INTRINSIC_NAMES)]),
                DistortionCoeffs(*full[len(INTRINSIC_NAMES):n_global]),
                full[n_global:point_start].reshape(-1, 6),
                full[point_start:].reshape(-1, 3))

    turns = pose_free[:, :3].any(axis=1)  # whether each pose's rotation is free

    def unpack(x: np.ndarray):
        k, d, params, pts = split(x)
        return k, d, tuple(CameraPose.from_axis_angle(p[:3], p[3:]) if turn
                           else CameraPose(pose.rotation, p[3:])
                           for pose, p, turn in zip(poses, params, turns)), pts

    def evaluate(x: np.ndarray, jacobians=False):
        k, d, params, pts = split(x)
        return project_points(pts[obs_point], params[:, :3], params[:, 3:],
                              k, d, jacobians, pose_of=obs_pose)

    def residual(x: np.ndarray) -> np.ndarray:
        return (evaluate(x) - obs_px).ravel()

    def jacobian(x: np.ndarray) -> BlockJacobian:
        _, d_pose, d_point, d_k, d_dist = evaluate(x, wanted)
        d_global = (np.concatenate([d_k, d_dist], axis=2)[:, :, global_free]
                    if d_k is not None else np.empty((len(obs_px), 2, 0)))
        kept, blocks = ((np.concatenate([d_global, d_pose], axis=2), d_point) if by_point
                        else (d_global, d_pose))
        return BlockJacobian(kept, blocks, layout)

    return LeastSquaresProblem(residual, jacobian), full0[free], unpack


def camera_depths(points, pose: CameraPose) -> np.ndarray:
    """Camera-frame depth (z) of world points under ``pose``."""
    return _points(points, 3).reshape(-1, 3) @ pose.rotation[2] + pose.translation[2]


# [v]x is v @ _CROSS as a 3x3 matrix, exactly: row i of _CROSS is [e_i]x.
_CROSS = np.cross(np.eye(3), np.eye(3)[:, None]).reshape(3, 9)


def _skew_matrix(v: np.ndarray) -> np.ndarray:
    """``[v]x`` of a ``(3,)`` vector, or of each row of an ``(n, 3)`` batch."""
    return (v @ _CROSS).reshape(v.shape + (3,))


def _rodrigues(r: np.ndarray):
    """Rodrigues' formula for an axis-angle ``(3,)`` vector or each row of an
    ``(n, 3)`` batch: the rotation ``R`` and its left Jacobian ``J_l = R J_r``,
    with ``R(r + d) ~ R(J_l d) R(r)`` for small ``d``. With ``t = |r|`` and
    ``h = sin(t/2) / (t/2)``, ``R = I + h cos(t/2) [r]x + (h^2 / 2) [r]x^2``
    and ``J_l = I + (h^2 / 2) [r]x + ((t - sin t) / t^3) [r]x^2``."""
    theta = np.sqrt(r[..., None, :] @ r[..., :, None])
    h = np.sinc(theta / (2.0 * np.pi))
    k = _skew_matrix(r)
    k2 = k @ k
    a = 0.5 * h ** 2  # (1 - cos t) / t^2
    # (t - sin t) / t^3, from its series where the closed form cancels.
    b = np.where(theta > 1e-2, (theta - np.sin(theta)) / np.maximum(theta, 1e-2) ** 3,
                 1 / 6 - theta ** 2 / 120)
    return np.eye(3) + h * np.cos(theta / 2.0) * k + a * k2, np.eye(3) + a * k + b * k2


def axis_angle_to_rotation(rvec) -> np.ndarray:
    """Axis-angle 3-vector to rotation matrix by Rodrigues' formula, or an
    ``(n, 3)`` batch of them to ``(n, 3, 3)`` matrices."""
    return _rodrigues(_points(rvec, 3))[0]


def rotation_to_axis_angle(rotation) -> np.ndarray:
    """Rotation matrix to axis-angle 3-vector with angle in [0, pi], by
    inverting Rodrigues' formula.

    The antisymmetric part of ``R`` is ``sin t [a]x`` for the unit axis ``a``
    and the trace is ``1 + 2 cos t``, so ``t = atan2(|sin t a|, cos t)``.
    Past 120 degrees, where ``sin t`` gets small, the axis comes from the
    symmetric part, ``(R + R^T)/2 - cos t I = (1 - cos t) a a^T``, signed by
    ``sin t a``. Raises InvalidRotation for non-orthonormal input.
    """
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape != (3, 3):
        raise InvalidRotation("rotation matrix must be 3x3")
    _check_rotation(r)
    sin_axis = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin, cos = np.linalg.norm(sin_axis), 0.5 * (r[0, 0] + r[1, 1] + r[2, 2] - 1.0)
    theta = np.arctan2(sin, cos)
    if cos > -0.5:
        return sin_axis * (theta / sin) if sin > 0 else sin_axis
    outer = 0.5 * (r + r.T) - cos * np.eye(3)
    j = np.argmax(np.diag(outer))  # the row of a a^T with the largest a_j
    axis = outer[j] / np.linalg.norm(outer[j])
    return theta * axis if sin_axis[j] >= 0 else -theta * axis


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Project a 3x3 matrix onto the nearest rotation (SVD, U V^T)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r
