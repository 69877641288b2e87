"""Two-view geometry in normalized coordinates: essential matrix, RANSAC,
relative pose, triangulation."""

from __future__ import annotations

import numpy as np

from .errors import (
    CheiralityAmbiguous,
    InsufficientMatches,
    NoModelFound,
    ZeroBaseline,
)
from .geometry import CameraPose, camera_depths, nearest_rotation


def _homogeneous(pts: np.ndarray) -> np.ndarray:
    return np.column_stack([pts, np.ones(len(pts))])


def _conditioning_transform(pts: np.ndarray) -> np.ndarray:
    centroid = pts.mean(axis=0)
    scale = np.sqrt(2.0) / max(np.mean(np.linalg.norm(pts - centroid, axis=1)), 1e-12)
    return np.array([
        [scale, 0.0, -scale * centroid[0]],
        [0.0, scale, -scale * centroid[1]],
        [0.0, 0.0, 1.0],
    ])


def _enforce_rank2(e: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(e)
    mean = (s[0] + s[1]) / 2.0
    return u @ np.diag([mean, mean, 0.0]) @ vt


def eight_point(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Essential matrix from >= 8 normalized correspondences.

    Solves the conditioned linear system ``x2^T E x1 = 0`` by SVD, projects
    onto rank 2 with equal leading singular values, and fixes an overall
    scale/sign convention so equal inputs give bit-identical output.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if len(x1) < 8 or len(x1) != len(x2):
        raise InsufficientMatches(f"need >= 8 pairs, got {len(x1)}/{len(x2)}")
    t1 = _conditioning_transform(x1)
    t2 = _conditioning_transform(x2)
    h1 = _homogeneous(x1) @ t1.T
    h2 = _homogeneous(x2) @ t2.T

    a = (h2[:, :, None] * h1[:, None, :]).reshape(len(x1), 9)
    _, _, vt = np.linalg.svd(a)
    e = t2.T @ vt[-1].reshape(3, 3) @ t1
    e = _enforce_rank2(e)
    e = e / np.linalg.norm(e)
    flat = e.ravel()
    lead = flat[np.argmax(np.abs(flat))]
    if lead < 0:
        e = -e
    return e


def sampson_distance(e: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """First-order geometric distance to the epipolar constraint, per pair."""
    h1 = _homogeneous(np.asarray(x1, dtype=np.float64))
    h2 = _homogeneous(np.asarray(x2, dtype=np.float64))
    ex1 = h1 @ e.T  # rows: E x1
    etx2 = h2 @ e  # rows: E^T x2
    num = np.sum(h2 * ex1, axis=1)
    denom = ex1[:, 0] ** 2 + ex1[:, 1] ** 2 + etx2[:, 0] ** 2 + etx2[:, 1] ** 2
    return np.abs(num) / np.sqrt(np.maximum(denom, 1e-300))


def essential_ransac(x1: np.ndarray, x2: np.ndarray, threshold: float = 1e-3,
                     seed: int = 0, max_iters: int = 1000):
    """RANSAC essential-matrix fit on normalized correspondences.

    Returns ``(E, inlier_mask)``; deterministic given ``seed``. Raises
    InsufficientMatches below 8 pairs and NoModelFound when no model reaches
    8 inliers.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    n = len(x1)
    if n < 8 or len(x2) != n:
        raise InsufficientMatches(f"need >= 8 pairs, got {n}/{len(x2)}")

    def consensus(e):
        mask = sampson_distance(e, x1, x2) < threshold
        return mask, int(mask.sum())

    def locally_optimize(e, mask, count):
        # Iterate the refit-on-inliers step: a minimal-sample model fitted to
        # noisy points often captures only a local cluster, and re-estimating
        # on the growing consensus set recovers the global model.
        for _ in range(10):
            if count < 8:
                break
            e_next = eight_point(x1[mask], x2[mask])
            mask_next, count_next = consensus(e_next)
            if count_next <= count:
                break
            e, mask, count = e_next, mask_next, count_next
        return e, mask, count

    rng = np.random.default_rng(seed)
    best = (None, None, 0)  # (E, mask, count)
    for _ in range(max_iters):
        idx = rng.choice(n, size=8, replace=False)
        try:
            e = eight_point(x1[idx], x2[idx])
        except np.linalg.LinAlgError:
            continue
        mask, count = consensus(e)
        if count >= 8 and 2 * count > best[2]:
            e, mask, count = locally_optimize(e, mask, count)
            if count > best[2]:
                best = (e, mask, count)
    e, mask, count = best
    if count < 8:
        raise NoModelFound(f"best sample had {count} inliers")

    # Final re-estimation on all inliers (a no-op once the local
    # optimization has stabilized).
    e_refit = eight_point(x1[mask], x2[mask])
    mask_refit, count_refit = consensus(e_refit)
    if count_refit >= count:
        return e_refit, mask_refit
    return e, mask


def decompose_essential(e: np.ndarray):
    """The four (R, t) candidates of an essential matrix, ``|t| = 1``."""
    u, _, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1 = nearest_rotation(u @ w @ vt)
    r2 = nearest_rotation(u @ w.T @ vt)
    t = u[:, 2]
    return [(r1, t), (r1, -t), (r2, t), (r2, -t)]


def triangulate_points(pose_i: CameraPose, pose_j: CameraPose,
                       x_i: np.ndarray, x_j: np.ndarray):
    """Linear (DLT) triangulation of normalized correspondences.

    Returns ``(points, valid)`` where ``valid`` flags points with positive
    depth in both views. Raises ZeroBaseline when the camera centers
    coincide.
    """
    if np.linalg.norm(pose_i.center - pose_j.center) <= 1e-9:
        raise ZeroBaseline("camera centers coincide")
    x = np.stack([x_i, x_j], axis=1)
    return triangulate_views([pose_i, pose_j], x, np.ones(x.shape[:2], dtype=bool))


def triangulate_views(poses, normalized: np.ndarray, seen: np.ndarray):
    """Linear (DLT) triangulation of points observed in several views.

    ``normalized`` holds the ``(n, V, 2)`` normalized images of n points in
    the V views of ``poses`` and ``seen`` the ``(n, V)`` mask of the
    observations that exist. An unseen view contributes zero rows, which
    leave the null vector unchanged. Returns ``(points, valid)`` where
    ``valid`` flags finite solutions in front of every observing view;
    points without a finite solution are zero.
    """
    x = np.asarray(normalized, dtype=np.float64)
    seen = np.asarray(seen, dtype=bool)
    p = np.stack([np.hstack([pose.rotation, pose.translation[:, None]])
                  for pose in poses])
    n, n_views = seen.shape
    a = np.empty((n, n_views, 2, 4))
    a[:, :, 0] = x[:, :, 0, None] * p[:, 2] - p[:, 0]
    a[:, :, 1] = x[:, :, 1, None] * p[:, 2] - p[:, 1]
    a[~seen] = 0.0
    _, _, vt = np.linalg.svd(a.reshape(n, 2 * n_views, 4))
    hom = vt[:, -1, :]
    w = hom[:, 3]
    safe = np.abs(w) > 1e-12
    points = np.zeros((n, 3))
    points[safe] = hom[safe, :3] / w[safe, None]

    depths = np.stack([camera_depths(points, pose) for pose in poses], axis=1)
    valid = safe & np.all((depths > 0) | ~seen, axis=1)
    return points, valid


def recover_relative_pose(e: np.ndarray, x_i: np.ndarray,
                          x_j: np.ndarray) -> CameraPose:
    """Pick the (R, t) candidate that places the most points in front.

    The returned pose maps view-i camera coordinates to view-j camera
    coordinates with unit-norm translation (the scale is unobservable).
    Raises CheiralityAmbiguous unless one candidate puts a strict majority
    of the correspondences in front of both cameras.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if len(x_i) < 1 or len(x_i) != len(x_j):
        raise ValueError("need at least one correspondence")
    identity = CameraPose.identity()
    counts = []
    candidates = []
    for rot, t in decompose_essential(e):
        pose = CameraPose(rot, t)
        try:
            _, valid = triangulate_points(identity, pose, x_i, x_j)
            counts.append(int(valid.sum()))
        except ZeroBaseline:
            counts.append(-1)
        candidates.append(pose)
    order = np.argsort(counts)
    best, second = order[-1], order[-2]
    if counts[best] <= len(x_i) / 2.0 or counts[best] == counts[second]:
        raise CheiralityAmbiguous(
            f"front-point counts {sorted(counts, reverse=True)} over {len(x_i)} pairs"
        )
    return candidates[int(best)]
