"""Two-view geometry in normalized coordinates: essential matrix, RANSAC,
relative pose, triangulation.

RANSAC draws all of its minimal samples up front, from the same seeded
stream as one draw per iteration, and fits and scores them in blocks with
stacked eight-point fits; ``eight_point`` and ``sampson_distance`` are the
one-matrix case of the same code, so the outputs equal those of fitting one
sample per iteration, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CheiralityAmbiguous,
    InsufficientMatches,
    NoModelFound,
    ZeroBaseline,
)
from .geometry import CameraPose, nearest_rotation
from .homography import conditioning_transforms

# RANSAC hypotheses fitted and scored together; bounds the (B, n, 3)
# temporaries of one block's Sampson scores.
_BLOCK = 128


def _homogeneous(pts: np.ndarray) -> np.ndarray:
    return np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)


def _fit_essential(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Conditioned eight-point fits of a ``(B, m, 2)`` stack of samples.

    One stacked SVD solves the ``(B, m, 9)`` linear systems and a second
    projects every solution onto rank 2 with equal leading singular values.
    Returns the ``(B, 3, 3)`` unit-norm matrices with a positive
    largest-magnitude entry. Raises LinAlgError if any SVD of the stack
    fails to converge.
    """
    t1 = conditioning_transforms(x1)
    t2 = conditioning_transforms(x2)
    h1 = _homogeneous(x1) @ np.swapaxes(t1, 1, 2)
    h2 = _homogeneous(x2) @ np.swapaxes(t2, 1, 2)
    a = (h2[:, :, :, None] * h1[:, :, None, :]).reshape(len(x1), -1, 9)
    # The null vector is V's 9th row: 8-row systems need the full V, taller
    # ones get all 9 rows without forming the m x m U.
    _, _, vt = np.linalg.svd(a, full_matrices=a.shape[1] < 9)
    e = np.swapaxes(t2, 1, 2) @ vt[:, -1].reshape(-1, 3, 3) @ t1

    u, s, vt = np.linalg.svd(e)
    mean = (s[:, 0] + s[:, 1]) / 2.0
    diag = np.zeros_like(e)
    diag[:, 0, 0] = diag[:, 1, 1] = mean
    e = u @ diag @ vt
    # The Frobenius norm as a dot product, the same BLAS ddot that
    # np.linalg.norm(e) calls for a single matrix; a norm over axes (1, 2)
    # sums in another order and changes the last bit.
    flat = e.reshape(len(e), 9)
    e = e / np.sqrt(flat[:, None, :] @ flat[:, :, None])
    lead = flat[np.arange(len(e)), np.argmax(np.abs(flat), axis=1)]
    return np.where((lead < 0)[:, None, None], -e, e)


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
    return _fit_essential(x1[None], x2[None])[0]


def _sampson_distances(e: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """``(B, n)`` Sampson distances of n pairs to each of B essential matrices."""
    h1 = _homogeneous(np.asarray(x1, dtype=np.float64))
    h2 = _homogeneous(np.asarray(x2, dtype=np.float64))
    ex1 = h1 @ np.swapaxes(e, 1, 2)  # rows: E x1
    etx2 = h2 @ e  # rows: E^T x2
    num = np.sum(h2 * ex1, axis=2)
    denom = (ex1[:, :, 0] ** 2 + ex1[:, :, 1] ** 2
             + etx2[:, :, 0] ** 2 + etx2[:, :, 1] ** 2)
    return np.abs(num) / np.sqrt(np.maximum(denom, 1e-300))


def sampson_distance(e: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """First-order geometric distance to the epipolar constraint, per pair."""
    return _sampson_distances(np.asarray(e, dtype=np.float64)[None], x1, x2)[0]


def _fit_block(x1: np.ndarray, x2: np.ndarray):
    """Fit a ``(B, 8, 2)`` block of samples; returns ``(E, fitted)``.

    Samples with a non-finite point are left out, as is any sample whose own
    SVD fails: when the stacked fit raises, the block is refitted one sample
    at a time to find it.
    """
    fitted = (np.isfinite(x1).all(axis=(1, 2))
              & np.isfinite(x2).all(axis=(1, 2)))
    e = np.zeros((len(x1), 3, 3))
    try:
        e[fitted] = _fit_essential(x1[fitted], x2[fitted])
    except np.linalg.LinAlgError:
        for b in np.flatnonzero(fitted):
            try:
                e[b] = _fit_essential(x1[b:b + 1], x2[b:b + 1])[0]
            except np.linalg.LinAlgError:
                fitted[b] = False
    return e, fitted


def essential_ransac(x1: np.ndarray, x2: np.ndarray, threshold: float = 1e-3,
                     seed: int = 0, max_iters: int = 1000):
    """RANSAC essential-matrix fit on normalized correspondences.

    All ``max_iters`` minimal samples are drawn first, from the same
    ``default_rng(seed)`` stream as one draw per iteration, then fitted and
    scored in blocks of ``_BLOCK`` hypotheses by stacked eight-point fits and
    one Sampson matrix per block. The hypotheses are then visited in draw
    order with locally optimized refits (Chum et al. 2003), so the result is
    the same as fitting and scoring one sample per iteration.

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
    samples = np.array([rng.choice(n, size=8, replace=False)
                        for _ in range(max_iters)], dtype=np.int64).reshape(-1, 8)
    best = (None, None, 0)  # (E, mask, count)
    for start in range(0, max_iters, _BLOCK):
        idx = samples[start:start + _BLOCK]
        es, fitted = _fit_block(x1[idx], x2[idx])
        masks = _sampson_distances(es, x1, x2) < threshold
        counts = np.where(fitted, masks.sum(axis=1), 0)
        for b in np.flatnonzero(counts >= 8):
            count = int(counts[b])
            if 2 * count > best[2]:
                e, mask, count = locally_optimize(es[b], masks[b], count)
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

    depths = points @ p[:, 2, :3].T + p[:, 2, 3]
    valid = safe & np.all((depths > 0) | ~seen, axis=1)
    return points, valid


def recover_relative_pose(e: np.ndarray, x_i: np.ndarray, x_j: np.ndarray):
    """Pick the (R, t) candidate that places the most points in front.

    Returns ``(pose, points, valid)``: the pose maps view-i camera
    coordinates to view-j camera coordinates with unit-norm translation (the
    scale is unobservable), and ``points`` and ``valid`` are its
    :func:`triangulate_points` result with view i at the identity.
    Raises CheiralityAmbiguous unless one candidate puts a strict majority
    of the correspondences in front of both cameras.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if len(x_i) < 1 or len(x_i) != len(x_j):
        raise ValueError("need at least one correspondence")
    identity = CameraPose.identity()
    candidates = []
    for rot, t in decompose_essential(e):
        # |t| = 1, so triangulate_points never raises ZeroBaseline here.
        pose = CameraPose(rot, t)
        candidates.append((pose, *triangulate_points(identity, pose, x_i, x_j)))
    counts = [int(valid.sum()) for _, _, valid in candidates]
    order = np.argsort(counts)
    best, second = order[-1], order[-2]
    if counts[best] <= len(x_i) / 2.0 or counts[best] == counts[second]:
        raise CheiralityAmbiguous(
            f"front-point counts {sorted(counts, reverse=True)} over {len(x_i)} pairs"
        )
    return candidates[int(best)]
