"""Planar homography estimation by the normalized direct linear transform,
with the Hartley conditioning that the eight-point essential fit shares."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateConfiguration

_MAX_CONDITION = 1e12
_MIN_SPREAD = 1e-12


def conditioning_transforms(pts: np.ndarray) -> np.ndarray:
    """Hartley conditioning of each ``(m, 2)`` point set in a ``(B, m, 2)``
    stack: the ``(B, 3, 3)`` similarities that move the centroid to the origin
    and the mean distance from it, floored at ``_MIN_SPREAD``, to sqrt(2)."""
    centroid = pts.mean(axis=1)
    spread = np.mean(np.linalg.norm(pts - centroid[:, None, :], axis=2), axis=1)
    scale = np.sqrt(2.0) / np.maximum(spread, _MIN_SPREAD)
    t = np.zeros((len(pts), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = scale
    t[:, :2, 2] = -scale[:, None] * centroid
    t[:, 2, 2] = 1.0
    return t


def apply_homography(h: np.ndarray, pts) -> np.ndarray:
    """Map (n, 2) points through a 3x3 homography."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    ph = np.column_stack([pts, np.ones(len(pts))]) @ np.asarray(h).T
    return ph[:, :2] / ph[:, 2:3]


def estimate_homography(world_xy, image_xy) -> np.ndarray:
    """Least-squares homography from plane points to image points.

    Both point sets are isotropically normalized, the stacked 2n x 9 system
    is solved by SVD, and the result is denormalized and scaled so the
    bottom-right entry is 1. Raises DegenerateConfiguration for fewer than
    four points, a point set whose points all coincide, collinear
    configurations, or a rank-deficient result.
    """
    src = np.atleast_2d(np.asarray(world_xy, dtype=np.float64))
    dst = np.atleast_2d(np.asarray(image_xy, dtype=np.float64))
    if src.shape != dst.shape or src.shape[1] != 2:
        raise ValueError("point lists must both have shape (n, 2)")
    n = len(src)
    if n < 4:
        raise DegenerateConfiguration("need at least 4 correspondences")

    t_src, t_dst = conditioning_transforms(np.stack([src, dst]))
    if max(t_src[0, 0], t_dst[0, 0]) >= np.sqrt(2.0) / _MIN_SPREAD:
        raise DegenerateConfiguration("all points coincide")
    sn = apply_homography(t_src, src)
    dn = apply_homography(t_dst, dst)

    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    a[0::2, 0] = x
    a[0::2, 1] = y
    a[0::2, 2] = 1.0
    a[0::2, 6] = -u * x
    a[0::2, 7] = -u * y
    a[0::2, 8] = -u
    a[1::2, 3] = x
    a[1::2, 4] = y
    a[1::2, 5] = 1.0
    a[1::2, 6] = -v * x
    a[1::2, 7] = -v * y
    a[1::2, 8] = -v

    _, s, vt = np.linalg.svd(a)
    # A second (near-)zero singular value means the solution is not unique,
    # which happens exactly for degenerate (e.g. collinear) configurations.
    if s[-2] <= 1e-10 * s[0]:
        raise DegenerateConfiguration("correspondences do not determine a homography")
    h_norm = vt[-1].reshape(3, 3)

    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    if np.linalg.cond(h) >= _MAX_CONDITION:
        raise DegenerateConfiguration("estimated homography is rank deficient")
    return h
