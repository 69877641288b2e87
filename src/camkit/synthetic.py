"""Synthetic ground-truth scenes: board views, corner datasets, textured cubes.

Everything here is deterministic given a seed and exists so the rest of the
toolkit can be verified end-to-end without physical captures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .board import CheckerboardSpec, CornerGrid, board_outline, board_world_points
from .errors import BoardOutOfView
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    RayGrid,
    axis_angle_to_rotation,
    camera_depths,
    pixel_to_normalized,
    project,
    render_tiles,
    rotation_to_axis_angle,
    subpixel_ray_grid,
    undistort_normalized,
)
from .imageops import bilinear_sample
from .sfm import SfmScene, similarity_align

MAX_TILT_DEG = 40.0


def frontoparallel_pose(spec: CheckerboardSpec, intrinsics: CameraIntrinsics,
                        square_px: float) -> CameraPose:
    """Board facing the camera head-on with one square ~``square_px`` wide,
    centered on the principal axis."""
    depth = intrinsics.fx * spec.square_size / square_px
    center = board_world_points(spec)[-1] / 2.0  # corner 0 is the origin
    return CameraPose(np.eye(3), np.array([0.0, 0.0, depth]) - center)


def sample_board_poses(spec: CheckerboardSpec, intrinsics: CameraIntrinsics,
                       dist: DistortionCoeffs, width: int, height: int,
                       n_views: int, rng: np.random.Generator) -> list[CameraPose]:
    """Random front-facing poses keeping the whole board inside the image.

    Tilts about both board axes are drawn up to ``MAX_TILT_DEG`` and the
    in-plane angle freely, with the board center aimed near a random image
    point; candidates that clip the image border are rejected and redrawn.
    Raises BoardOutOfView when 200 draws per view do not find ``n_views``.
    """
    board_center = board_world_points(spec)[-1] / 2.0  # corner 0 is the origin
    diag_mm = np.hypot(spec.squares_x, spec.squares_y) * spec.square_size
    f = 0.5 * (intrinsics.fx + intrinsics.fy)
    base_depth = f * diag_mm / (0.55 * min(width, height))
    outline = board_outline(spec)

    poses: list[CameraPose] = []
    attempts = 0
    while len(poses) < n_views:
        attempts += 1
        if attempts > 200 * n_views:
            raise BoardOutOfView(f"{len(poses)} of {n_views} poses in {attempts - 1} "
                                 f"draws keep the board inside the "
                                 f"{width}x{height} image")
        tilt = np.deg2rad(MAX_TILT_DEG)
        ax, ay = rng.uniform(-tilt, tilt, size=2)
        az = rng.uniform(-np.pi, np.pi)
        rx, ry, rz = axis_angle_to_rotation(np.diag([ax, ay, az]))
        rot = rz @ ry @ rx
        depth = base_depth * rng.uniform(1.0, 1.6)
        target_px = np.array([
            rng.uniform(0.35, 0.65) * (width - 1),
            rng.uniform(0.35, 0.65) * (height - 1),
        ])
        aim = pixel_to_normalized(target_px, intrinsics)
        cam_center = np.array([aim[0] * depth, aim[1] * depth, depth])
        t = cam_center - rot @ board_center
        pose = CameraPose(rot, t)

        if np.any(camera_depths(outline, pose) <= 0.1 * depth):
            continue
        px = project(outline, pose, intrinsics, dist)
        margin = 0.04 * min(width, height)
        if (px[:, 0].min() < margin or px[:, 0].max() > width - 1 - margin
                or px[:, 1].min() < margin or px[:, 1].max() > height - 1 - margin):
            continue
        poses.append(pose)
    return poses


def synthesize_corner_views(spec: CheckerboardSpec, intrinsics: CameraIntrinsics,
                            dist: DistortionCoeffs, poses: list[CameraPose],
                            noise_sigma: float = 0.0,
                            rng: np.random.Generator | None = None) -> list[CornerGrid]:
    """Project the board's interior corners through each pose.

    With ``noise_sigma`` > 0, adds i.i.d. Gaussian noise per pixel coordinate
    (requires ``rng``).
    """
    world = board_world_points(spec)
    grids = []
    for idx, pose in enumerate(poses):
        px = project(world, pose, intrinsics, dist)
        if noise_sigma > 0:
            if rng is None:
                raise ValueError("noise requested but no rng given")
            px = px + rng.normal(0.0, noise_sigma, size=px.shape)
        grids.append(CornerGrid(corners=px, view_id=f"view_{idx:03d}"))
    return grids


# --- textured cube scenes for structure-from-motion ------------------------

_CUBE_BACKGROUND = 90
CUBE_SUPERSAMPLE = 2
# Face 2 * axis + 1 lies on the positive side of its axis, face 2 * axis on
# the negative side; the tiles of case 6 run the slab test.
_UNDECIDED = 6
# The axes of each face's texture coordinates (s, t), by the face's axis.
_FACE_AXES = np.array([[1, 2], [0, 2], [0, 1]])


class CubeScene:
    """An axis-aligned cube at the origin with smooth random face textures."""

    def __init__(self, edge: float = 200.0, texture_seed: int = 7):
        self.edge = float(edge)
        if not 0 < self.edge < np.inf:
            raise ValueError("cube edge must be finite and positive")
        rng = np.random.default_rng(texture_seed)
        # Three octaves of value noise per face, interpolated bilinearly.
        self._coarse = rng.uniform(0.0, 1.0, size=(6, 9, 9))
        self._mid = rng.uniform(0.0, 1.0, size=(6, 33, 33))
        self._fine = rng.uniform(0.0, 1.0, size=(6, 129, 129))

    def _noise(self, grid: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        n = grid.shape[0] - 1
        return bilinear_sample(grid.T, *(np.clip(c * n, 0, n - 1e-9) for c in (s, t)))

    def _texture(self, face: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Texture value in [0, 1] of points on ``face`` at world coordinates
        ``p``, ``q`` along its ``_FACE_AXES``."""
        half = self.edge / 2.0
        s, t = (p + half) / self.edge, (q + half) / self.edge
        val = (0.40 * self._noise(self._coarse[face], s, t)
               + 0.35 * self._noise(self._mid[face], s, t)
               + 0.25 * self._noise(self._fine[face], s, t))
        return 0.08 + 0.86 * val

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        """First cube hit per ray: returns (points, face, hit_mask). A ray
        that starts inside the cube hits where it leaves it."""
        half = self.edge / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
        t_lo = (-half - origins) * inv
        t_hi = (half - origins) * inv
        t1 = np.minimum(t_lo, t_hi)
        t2 = np.maximum(t_lo, t_hi)
        # fmax/fmin skip the NaN (0 * inf) of a ray parallel to a slab whose
        # origin lies on one of the slab's planes.
        t_near = np.fmax(np.fmax(t1[:, 0], t1[:, 1]), t1[:, 2])
        t_far = np.fmin(np.fmin(t2[:, 0], t2[:, 1]), t2[:, 2])
        t = np.where(t_near > 1e-9, t_near, t_far)
        hit = (t_near < t_far) & (t > 1e-9)
        pts = origins + dirs * t[:, None]
        # Face id: axis with |coordinate| == half, signed.
        axis = np.argmax(np.abs(pts) / half, axis=1)
        sign = np.take_along_axis(pts, axis[:, None], axis=1)[:, 0] >= 0
        face = axis * 2 + sign.astype(np.int64)
        return pts, face, hit

    def nearest_surface_point(self, points: np.ndarray) -> np.ndarray:
        """The nearest point of the cube's surface to each of ``points`` (n, 3)."""
        half = self.edge / 2.0
        closest = np.clip(points, -half, half)
        rows = np.flatnonzero(np.all(np.abs(points) < half, axis=1))
        axis = np.argmax(np.abs(points[rows]), axis=1)
        closest[rows, axis] = np.copysign(half, points[rows, axis])
        return closest

    def surface_distance(self, points: np.ndarray) -> np.ndarray:
        """The exact distance from each of ``points`` (n, 3) to the surface."""
        return np.linalg.norm(points - self.nearest_surface_point(points), axis=1)

    def shade(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        pts, face, hit = self.intersect(origins, dirs)
        out = np.full(len(dirs), _CUBE_BACKGROUND / 255.0)
        for f in range(6):
            on = hit & (face == f)
            if np.any(on):
                out[on] = self._texture(f, *pts[on][:, _FACE_AXES[f // 2]].T)
        return out

    def face_shade(self, origin: np.ndarray, dirs: np.ndarray, face: int) -> np.ndarray:
        """:meth:`shade` of rays from ``origin`` that enter the cube through
        ``face``: the slab test's term for that face alone, so the same bits."""
        half = self.edge / 2.0
        axis, positive = divmod(face, 2)
        t = ((half if positive else -half) - origin[axis]) * (1.0 / dirs[:, axis])
        return self._texture(face, *(origin[a] + dirs[:, a] * t for a in _FACE_AXES[axis]))

    def tile_cases(self, pose: CameraPose, grid: RayGrid) -> np.ndarray:
        """Each tile's case for :func:`~camkit.geometry.render_tiles`: -1
        where every ray misses the cube, the face through which every ray
        enters, else ``_UNDECIDED``. With every vertex in front of the camera
        and no face plane through it, a ray box beyond an edge of each front
        face's projected quadrilateral by 1e-9 (normalized units, far above
        the slab test's rounding) is background, and a box inside one enters
        through that face alone (Greene, Kass & Miller, SIGGRAPH 1993).
        """
        half, center = self.edge / 2.0, pose.center
        corner = np.array([[(i >> k & 1) * 2 - 1 for k in range(3)] for i in range(8)])
        cam = (corner * half) @ pose.rotation.T + pose.translation
        cases = np.full(grid.tile_min.shape[:2], _UNDECIDED)
        if np.any(cam[:, 2] <= 1e-6) or np.any(abs(np.abs(center) - half) <= 1e-6 * half):
            return cases
        rays, apart = grid.tile_corners(), True
        for face in range(6):
            axis, positive = divmod(face, 2)
            if (2 * positive - 1) * center[axis] <= half:
                continue  # a back face
            b, c = _FACE_AXES[axis]
            quad = cam[[(1 << axis) * positive + (1 << b) * sb + (1 << c) * sc
                        for sb, sc in ((0, 0), (1, 0), (1, 1), (0, 1))]]
            # Lines through the edges' images, scaled to the signed distance
            # in normalized units, positive on the face's side.
            lines = np.cross(quad, np.roll(quad, -1, axis=0))
            lines *= (np.sign(lines @ quad.mean(axis=0))
                      / np.hypot(lines[:, 0], lines[:, 1]))[:, None]
            distance = np.tensordot(lines, rays, axes=(1, 3))  # edge, box corner, tile
            cases[distance.min(axis=(0, 1)) > 1e-9] = face
            apart = apart & (distance.max(axis=1) < -1e-9).any(axis=0)
        return np.where((cases == _UNDECIDED) & apart, -1, cases)


def render_cube_view(scene: CubeScene, intrinsics: CameraIntrinsics,
                     dist: DistortionCoeffs, pose: CameraPose,
                     width: int, height: int) -> np.ndarray:
    """Ray-cast render of the cube, 2x2 supersampled.

    Tile bounds and shaded rays are cached for the most recent camera and
    image size (:func:`~camkit.geometry.subpixel_ray_grid`). The board's
    render loop, :func:`~camkit.geometry.render_tiles`, fills background
    tiles whole, shades the rays of one-face tiles on that face's plane, and
    runs the slab test only on the rays of the other tiles
    (:meth:`CubeScene.tile_cases`): the image that shading every ray gives.
    """
    grid = subpixel_ray_grid(intrinsics, dist, width, height, CUBE_SUPERSAMPLE)
    rot, origin = pose.rotation, pose.center

    def shade(rays, case):
        dirs = rays @ rot
        if case == _UNDECIDED:
            return scene.shade(np.broadcast_to(origin, dirs.shape), dirs)
        return scene.face_shade(origin, dirs, case)

    cases = scene.tile_cases(pose, grid)
    return render_tiles(grid, np.full(cases.shape, _CUBE_BACKGROUND), cases, shade,
                        255.0)


def sample_ring_poses(n_views: int, radius: float, elevation_deg: float,
                      sweep_deg: float, start_deg: float) -> list[CameraPose]:
    """Cameras on an arc around the origin, all looking at the origin."""
    poses = []
    angles = np.deg2rad(start_deg + np.linspace(0.0, sweep_deg, n_views))
    elev = np.deg2rad(elevation_deg)
    for a in angles:
        center = radius * np.array([
            np.cos(elev) * np.cos(a),
            np.cos(elev) * np.sin(a),
            np.sin(elev),
        ])
        forward = -center / np.linalg.norm(center)
        up_hint = np.array([0.0, 0.0, 1.0])
        right = np.cross(forward, up_hint)
        right /= np.linalg.norm(right)
        down = np.cross(forward, right)
        rot = np.vstack([right, down, forward])  # world -> camera rows
        poses.append(CameraPose(rot, -rot @ center))
    return poses


def cube_ray_points(scene: CubeScene, pose: CameraPose, pixels: np.ndarray,
                    intrinsics: CameraIntrinsics, dist: DistortionCoeffs):
    """Ground-truth 3D points where pixel rays from ``pose`` hit the cube."""
    rays = undistort_normalized(pixel_to_normalized(pixels, intrinsics), dist)
    dirs_cam = np.column_stack([rays, np.ones(len(rays))])
    dirs_world = dirs_cam @ pose.rotation
    origins = np.broadcast_to(pose.center, dirs_world.shape)
    pts, _, hit = scene.intersect(origins, dirs_world)
    return pts, hit


# --- scoring against the ground truth ----------------------------------------

@dataclass(frozen=True)
class CloudError:
    """A reconstruction against the cube: the valid points whose first
    observation's ray hits the cube, aligned by the least-squares similarity
    onto those hits (``points``), the hits (``truth``), each aligned point's
    :meth:`CubeScene.surface_distance` and the RMS of ``points - truth``."""

    points: np.ndarray  # (n, 3), mm
    truth: np.ndarray  # (n, 3), mm
    surface_distance: np.ndarray  # (n,), mm
    rms: float


def cloud_error(scene: SfmScene, cube: CubeScene, poses: list[CameraPose]) -> CloudError:
    """Score ``scene`` against the ``cube`` it was reconstructed from, seen
    from the true ``poses`` through the scene's own camera."""
    tracks = scene.valid_tracks()
    first = np.array([t.observations[0] for t in tracks])
    recon = np.array([t.point for t in tracks])
    truth, hit = np.empty_like(recon), np.zeros(len(tracks), dtype=bool)
    for view in np.unique(first[:, 0]):
        rows = first[:, 0] == view
        truth[rows], hit[rows] = cube_ray_points(
            cube, poses[view], scene.features[view][first[rows, 1]],
            scene.intrinsics, scene.distortion)
    recon, truth = recon[hit], truth[hit]
    s, rot, t = similarity_align(recon, truth)
    aligned = s * recon @ rot.T + t
    rms = float(np.sqrt(np.mean(np.sum((aligned - truth) ** 2, axis=1))))
    return CloudError(aligned, truth, cube.surface_distance(aligned), rms)


@dataclass(frozen=True)
class PoseError:
    """The angle of R_est R_true^T and the distance between the translations."""

    rotation_deg: float
    translation_mm: float


def pose_error(estimate: CameraPose, truth: CameraPose) -> PoseError:
    angle = np.linalg.norm(rotation_to_axis_angle(estimate.rotation @ truth.rotation.T))
    return PoseError(float(np.degrees(angle)),
                     float(np.linalg.norm(estimate.translation - truth.translation)))
