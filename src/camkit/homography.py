"""The Hartley-conditioned DLT of the board homographies (Hartley &
Zisserman, Alg. 4.2); the eight-point essential fit shares its
conditioning."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateConfiguration

_MAX_CONDITION = 1e12
_MIN_SPREAD = 1e-12


def conditioning_transforms(pts: np.ndarray) -> np.ndarray:
    """Hartley conditioning of each ``(m, d)`` point set in a ``(B, m, d)``
    stack: the ``(B, d+1, d+1)`` similarities that move the centroid to the
    origin and the mean distance from it, floored at ``_MIN_SPREAD``, to
    sqrt(d)."""
    d = pts.shape[2]
    centroid = pts.mean(axis=1)
    spread = np.mean(np.linalg.norm(pts - centroid[:, None, :], axis=2), axis=1)
    scale = np.sqrt(d) / np.maximum(spread, _MIN_SPREAD)
    t = np.zeros((len(pts), d + 1, d + 1))
    t[:, np.arange(d), np.arange(d)] = scale[:, None]
    t[:, :d, d] = -scale[:, None] * centroid
    t[:, d, d] = 1.0
    return t


def apply_homography(h: np.ndarray, pts) -> np.ndarray:
    """Map (n, 2) points through a 3x3 homography."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    ph = np.column_stack([pts, np.ones(len(pts))]) @ np.asarray(h).T
    return ph[:, :2] / ph[:, 2:3]


def estimate_homography(world_xy, image_xy) -> np.ndarray:
    """Least-squares homography from plane points to image points.

    The last right singular vector of the interleaved ``2n x 9`` system of
    the conditioned point sets, with both conditionings undone and scaled so
    the bottom-right entry is 1. Raises DegenerateConfiguration for fewer
    than four points, a point set whose points all coincide, collinear
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
    sn, dn = (np.column_stack([p, np.ones(n)]) @ t.T
              for p, t in ((src, t_src), (dst, t_dst)))
    a = np.zeros((2 * n, 9))
    a[0::2, :3] = a[1::2, 3:6] = sn
    a[0::2, 6:] = -dn[:, 0:1] * sn
    a[1::2, 6:] = -dn[:, 1:2] * sn
    # Only 4 points give fewer rows than columns, where the null vector
    # needs the full V; otherwise the thin SVD skips the unused 2n x 2n U.
    _, s, vt = np.linalg.svd(a, full_matrices=n == 4)
    # A second (near-)zero singular value means the solution is not unique,
    # which happens exactly for degenerate (e.g. collinear) configurations.
    if s[-2] <= 1e-10 * s[0]:
        raise DegenerateConfiguration("correspondences do not determine a homography")
    h = np.linalg.inv(t_dst) @ vt[-1].reshape(3, 3) @ t_src
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    if np.linalg.cond(h) >= _MAX_CONDITION:
        raise DegenerateConfiguration("estimated homography is rank deficient")
    return h
