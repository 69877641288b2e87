"""Checkerboard target model and synthetic ground-truth rendering.

The board lives in the plane ``z = 0`` of its own frame. Interior corner
``(i, j)`` sits at ``(i * square_size, j * square_size, 0)``; the squares
extend one square beyond the interior corners on every side, and renders add
a white margin of one further square width. The square covering
``(0, 0)..(s, s)`` is black, fixing the 180-degree orientation of boards with
``squares_x != squares_y``.

Images are grayscale ``uint8`` numpy arrays of shape ``(height, width)``;
pixel centers sit at integer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoardBehindCamera
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    camera_depths,
    render_tiles,
    subpixel_ray_grid,
)

BACKGROUND_GRAY = 128
BLACK = 0
WHITE = 255
SUPERSAMPLE = 4


@dataclass(frozen=True)
class CheckerboardSpec:
    """Checkerboard geometry: square counts per side and square edge length.

    The two square counts must differ so the pattern orientation is
    unambiguous. ``square_size`` is in world units (millimeters by
    convention).
    """

    squares_x: int = 10
    squares_y: int = 7
    square_size: float = 23.0

    def __post_init__(self):
        if self.squares_x < 3 or self.squares_y < 3:
            raise ValueError("need at least 3 squares per side")
        if self.squares_x == self.squares_y:
            raise ValueError("square counts must differ to fix the orientation")
        if not 0 < self.square_size < np.inf:
            raise ValueError("square_size must be finite and positive")

    @property
    def corners_x(self) -> int:
        return self.squares_x - 1

    @property
    def corners_y(self) -> int:
        return self.squares_y - 1

    @property
    def corner_count(self) -> int:
        return self.corners_x * self.corners_y


@dataclass(frozen=True)
class CornerGrid:
    """Detected (or synthesized) interior corners of one board view.

    ``corners`` is an ``(n, 2)`` pixel array in row-major order: index
    ``j * corners_x + i`` corresponds to board corner ``(i, j)``, matching
    :func:`board_world_points`.
    """

    corners: np.ndarray
    view_id: str = ""

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] != 2:
            raise ValueError("corners must have shape (n, 2)")
        c.setflags(write=False)
        object.__setattr__(self, "corners", c)

    def __len__(self) -> int:
        return self.corners.shape[0]


def board_world_points(spec: CheckerboardSpec) -> np.ndarray:
    """Interior corner positions on the board plane, shape (n, 3), z = 0.

    Row-major over j (rows) then i (columns), so the first point is the
    origin and the second is ``(square_size, 0, 0)``.
    """
    i = np.arange(spec.corners_x)
    j = np.arange(spec.corners_y)
    ii, jj = np.meshgrid(i, j)  # jj varies slowest along axis 0
    pts = np.column_stack([
        ii.ravel() * spec.square_size,
        jj.ravel() * spec.square_size,
        np.zeros(spec.corner_count),
    ])
    return pts


def board_outline(spec: CheckerboardSpec) -> np.ndarray:
    """The four outer corners of the painted board area, shape (4, 3)."""
    s = spec.square_size
    x0, x1 = -s, (spec.squares_x - 1) * s
    y0, y1 = -s, (spec.squares_y - 1) * s
    return np.array([
        [x0, y0, 0.0],
        [x1, y0, 0.0],
        [x1, y1, 0.0],
        [x0, y1, 0.0],
    ])


def render_board(spec: CheckerboardSpec, intrinsics: CameraIntrinsics,
                 dist: DistortionCoeffs, pose: CameraPose,
                 width: int, height: int) -> np.ndarray:
    """Render the board seen by the given camera, 4x4 supersampled.

    Each output pixel averages a 4x4 grid of sub-rays cast through the lens
    model onto the board plane; each sample is black, white or background.
    The bounds of the rays through each ``RENDER_TILE``-pixel square tile,
    and the rays of the tiles cast, are cached for the most recent camera
    and image size (:func:`~camkit.geometry.subpixel_ray_grid`), so views
    rendered in a row with one camera share them. A tile whose four bound
    corners all land in one square or margin cell, or all beyond one margin
    line, takes that shade whole. Only the other tiles, which a square edge,
    the margin or the horizon crosses or which reach behind the camera, cast
    their rays in :func:`~camkit.geometry.render_tiles`, the render loop the
    cube shares. A pixel's 16 shades sum exactly, so its mean is exact, and
    deciding a tile whole gives the image that shading every ray would.
    Deterministic: identical inputs give bit-identical images. Raises
    BoardBehindCamera when every board corner has non-positive depth.
    """
    outline = board_outline(spec)
    if np.all(camera_depths(outline, pose) <= 0):
        raise BoardBehindCamera("all board corners have non-positive depth")

    rot, t = pose.rotation, pose.translation
    # The board plane in the camera frame is r2 . (scale * d - t) = 0, and a
    # hit point's board coordinates are (d . r_k) * scale - t . r_k.
    offset, tx, ty = float(rot[:, 2] @ t), float(rot[:, 0] @ t), float(rot[:, 1] @ t)
    s = spec.square_size
    (x0, y0), (x1, y1) = outline[0, :2], outline[2, :2]

    def board_coords(dirs):
        abc = dirs @ rot
        denom = abc[..., 2]
        # A ray along the plane gets an inf or NaN scale; callers mask it.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scale = offset / denom
            return denom, scale, abc[..., 0] * scale - tx, abc[..., 1] * scale - ty

    def shade(dirs):
        denom, scale, x, y = board_coords(dirs)
        with np.errstate(invalid="ignore"):
            cell = np.floor(x / s).astype(np.int64) + np.floor(y / s).astype(np.int64)
        margin = ((np.abs(denom) > 1e-15) & (scale > 1e-12)
                  & (x >= x0 - s) & (x <= x1 + s) & (y >= y0 - s) & (y <= y1 + s))
        black = margin & (x >= x0) & (x < x1) & (y >= y0) & (y < y1) & ((cell & 1) == 0)
        return np.where(margin, np.where(black, float(BLACK), float(WHITE)),
                        float(BACKGROUND_GRAY))

    # 1e-8 in normalized units is far below the shading resolution.
    grid = subpixel_ray_grid(intrinsics, dist, width, height, SUPERSAMPLE, 1e-8)
    denom, scale, x, y = board_coords(grid.tile_corners())
    # Why a tile can be decided from the four corners of its ray box: the
    # plane denominator is affine in the ray, so over the box it lies between
    # its corner values. When all four are safely in front, board coordinates
    # are a projective map of the box, whose image is the convex quadrilateral
    # of the corner images. Every shade boundary is a line x = k s or y = k s
    # (painted area, white margin, squares), so when the corners share
    # floor(x / s +- 1e-6) and floor(y / s +- 1e-6), a margin far above
    # rounding, every sample in the tile gets that cell's shade; and a tile
    # wholly beyond a margin line is background.
    front = np.all((np.abs(denom) > 1e-9) & (scale > 1e-9), axis=0)
    nx, ny = spec.squares_x, spec.squares_y
    with np.errstate(invalid="ignore"):
        (x_lo, x_hi), (y_lo, y_hi) = (
            (np.floor(v.min(axis=0) / s - 1e-6), np.floor(v.max(axis=0) / s + 1e-6))
            for v in (x, y))
        beyond = (x_hi < -2) | (x_lo >= nx) | (y_hi < -2) | (y_lo >= ny)
        black = ((x_lo >= -1) & (x_lo < nx - 1) & (y_lo >= -1) & (y_lo < ny - 1)
                 & ((x_lo + y_lo) % 2 == 0))
    decided = front & (beyond | ((x_lo == x_hi) & (y_lo == y_hi)))
    tiles = np.where(beyond, BACKGROUND_GRAY, np.where(black, BLACK, WHITE))
    return render_tiles(grid, tiles, np.where(decided, -1, 0),
                        lambda rays, case: shade(rays), 1.0)
