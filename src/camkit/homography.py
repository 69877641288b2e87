"""One Hartley-conditioned DLT for the board homographies (Hartley &
Zisserman, Alg. 4.2) and SfM resection (Alg. 7.1); the eight-point essential
fit shares its conditioning."""

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


def projective_dlt(src: np.ndarray, dst: np.ndarray):
    """Conditioned DLT of the ``3 x (d+1)`` map ``P`` from ``(n, d)`` source
    to ``(n, 2)`` image points: the last right singular vector of the
    interleaved ``2n x 3(d+1)`` system, with both conditionings undone.
    Returns ``(P, singular_values)``, ``P`` up to scale and sign. Raises
    DegenerateConfiguration when either point set coincides."""
    n, d = src.shape
    t_src, t_dst = (conditioning_transforms(p[None])[0] for p in (src, dst))
    if any(t[0, 0] >= np.sqrt(len(t) - 1) / _MIN_SPREAD for t in (t_src, t_dst)):
        raise DegenerateConfiguration("all points coincide")
    sn, dn = (np.column_stack([p, np.ones(n)]) @ t.T
              for p, t in ((src, t_src), (dst, t_dst)))

    k = d + 1
    a = np.zeros((2 * n, 3 * k))
    a[0::2, :k] = a[1::2, k:2 * k] = sn
    a[0::2, 2 * k:] = -dn[:, 0:1] * sn
    a[1::2, 2 * k:] = -dn[:, 1:2] * sn
    # Only a system with fewer rows than columns needs the full V for its
    # null vector; otherwise the thin SVD skips the unused 2n x 2n U.
    _, s, vt = np.linalg.svd(a, full_matrices=len(a) < a.shape[1])
    return np.linalg.inv(t_dst) @ vt[-1].reshape(3, k) @ t_src, s


def estimate_homography(world_xy, image_xy) -> np.ndarray:
    """Least-squares homography from plane points to image points.

    The :func:`projective_dlt` of the two point sets, scaled so the
    bottom-right entry is 1. Raises DegenerateConfiguration for fewer than
    four points, a point set whose points all coincide, collinear
    configurations, or a rank-deficient result.
    """
    src = np.atleast_2d(np.asarray(world_xy, dtype=np.float64))
    dst = np.atleast_2d(np.asarray(image_xy, dtype=np.float64))
    if src.shape != dst.shape or src.shape[1] != 2:
        raise ValueError("point lists must both have shape (n, 2)")
    if len(src) < 4:
        raise DegenerateConfiguration("need at least 4 correspondences")

    h, s = projective_dlt(src, dst)
    # A second (near-)zero singular value means the solution is not unique,
    # which happens exactly for degenerate (e.g. collinear) configurations.
    if s[-2] <= 1e-10 * s[0]:
        raise DegenerateConfiguration("correspondences do not determine a homography")
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    if np.linalg.cond(h) >= _MAX_CONDITION:
        raise DegenerateConfiguration("estimated homography is rank deficient")
    return h
