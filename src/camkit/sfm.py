"""Incremental structure from motion with bundle adjustment.

Reconstruction plan: detect features, match adjacent and skip-one image
pairs (all pairs with the exhaustive flag), filter every pair through
essential-matrix RANSAC, build tracks from the inlier matches, initialize
from the surviving pair with the most inliers and enough triangulation
angle, then register the remaining views one at a time by 3D-2D resection,
triangulating newly covered tracks and bundle-adjusting after every
registration. Intrinsics and distortion stay fixed throughout; the gauge is
pinned by freezing the first registered pose and the largest-magnitude
coordinate of the second pose's translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .epipolar import (essential_ransac, recover_relative_pose,
                       triangulate_points, triangulate_views)
from .errors import (
    CheiralityAmbiguous,
    EmptyScene,
    InitializationFailed,
    InsufficientMatches,
    InvalidRotation,
    NoModelFound,
    NonFiniteResidual,
    RegistrationFailed,
    SingularNormalEquations,
)
from .features import detect_features, match_features
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    camera_depths,
    nearest_rotation,
    pixel_to_normalized,
    project_points,
    rotation_to_axis_angle,
    undistort_normalized,
)
from .imageops import bilinear_sample, to_float
from .optimize import LeastSquaresProblem, LmConfig, levenberg_marquardt
from .pose import refine_pose
from .tracks import MatchPair, Track, build_tracks


MAX_FEATURES = 800
MIN_PAIR_INLIERS = 20
MIN_MEDIAN_ANGLE_DEG = 2.0
MIN_RESECTION_POINTS = 6
MAX_RESECTION_ERROR = 5.0  # pixels


@dataclass
class SfmConfig:
    """Reconstruction settings: the RANSAC seed, and whether to match every
    image pair rather than adjacent and skip-one pairs."""

    seed: int = 0
    exhaustive_pairs: bool = False


@dataclass
class SfmScene:
    """A (partial) reconstruction: poses, tracks, and their observations.

    ``features[v]`` holds the pixel positions of view v's features and
    ``intensities[v]`` the image intensity sampled at each of them, so the
    scene is self-contained for refinement and export. ``view_order`` is the
    registration order; its first two entries pin the gauge.
    """

    intrinsics: CameraIntrinsics
    distortion: DistortionCoeffs
    poses: dict[int, CameraPose]
    view_order: tuple[int, ...]
    tracks: list[Track]
    features: dict[int, np.ndarray]
    intensities: dict[int, np.ndarray]
    mean_reprojection_error: float = field(default=float("nan"))

    def valid_tracks(self) -> list[Track]:
        return [t for t in self.tracks if t.valid and t.point is not None]


@dataclass(frozen=True)
class PointCloud:
    """Bare 3D points with an 8-bit-scale intensity per point."""

    positions: np.ndarray  # (n, 3)
    intensity: np.ndarray  # (n,), 0..255 scale

    def __len__(self) -> int:
        return len(self.positions)


def _observations(tracks, views) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(track index, view, feature index) arrays of every observation of
    ``tracks`` in ``views``, in track-then-view order."""
    obs = [(k, v, fi) for k, track in enumerate(tracks)
           for v, fi in track.observations if v in views]
    return np.array(obs, dtype=np.int64).reshape(-1, 3).T


def _pair_seed(seed: int, i: int, j: int) -> int:
    return (seed * 1_000_003 + i * 8191 + j) % (2 ** 32)


def _linear_resection(world: np.ndarray, norm_xy: np.ndarray) -> CameraPose:
    """DLT estimate of a pose from >= 6 3D points and normalized 2D images.

    The world points are conditioned first (Hartley & Zisserman, section
    4.4.4): moved to their centroid and scaled to a mean distance of
    sqrt(3). The DLT solves for ``P'`` on the conditioned points, and
    ``P = P' T`` undoes the conditioning ``T``.
    """
    n = len(world)
    hom = np.column_stack([world, np.ones(n)])
    centroid = world.mean(axis=0)
    s = np.sqrt(3.0) / np.mean(np.linalg.norm(world - centroid, axis=1))
    cond = np.diag([s, s, s, 1.0])
    cond[:3, 3] = -s * centroid
    conditioned = hom @ cond.T
    a = np.zeros((2 * n, 12))
    a[0::2, 0:4] = -conditioned
    a[0::2, 8:12] = norm_xy[:, 0:1] * conditioned
    a[1::2, 4:8] = -conditioned
    a[1::2, 8:12] = norm_xy[:, 1:2] * conditioned
    _, _, vt = np.linalg.svd(a)
    p = vt[-1].reshape(3, 4) @ cond
    scale = 1.0 / np.linalg.norm(p[2, :3])
    depths = hom @ p[2] * scale
    if np.median(depths) < 0:
        scale = -scale
    rot = nearest_rotation(scale * p[:, :3])
    t = scale * p[:, 3]
    return CameraPose(rot, t)


def _refresh_triangulations(scene: SfmScene, normalized) -> None:
    """Triangulate, in one batch, every track that is not yet valid and has
    at least two registered observations."""
    views = list(scene.poses)
    column = {v: c for c, v in enumerate(views)}
    pending = [track for track in scene.tracks
               if not (track.valid and track.point is not None)
               and sum(v in column for v, _ in track.observations) >= 2]
    x = np.zeros((len(pending), len(views), 2))
    seen = np.zeros((len(pending), len(views)), dtype=bool)
    owner, obs_view, feature = _observations(pending, column)
    for v, c in column.items():
        sel = obs_view == v
        x[owner[sel], c] = normalized[v][feature[sel]]
        seen[owner[sel], c] = True
    points, valid = triangulate_views([scene.poses[v] for v in views], x, seen)
    for track, point, ok in zip(pending, points, valid):
        track.point = point
        track.valid = bool(ok)


def reconstruct(images, intrinsics: CameraIntrinsics, dist: DistortionCoeffs,
                cfg: SfmConfig | None = None) -> SfmScene:
    """Run the full incremental pipeline on an ordered image list.

    Deterministic given ``cfg.seed``. Raises InitializationFailed when no
    image pair provides enough inliers and baseline, and
    RegistrationFailed(view) when a view cannot be resected.
    """
    cfg = cfg or SfmConfig()
    n_views = len(images)
    if n_views < 2:
        raise InitializationFailed(f"need at least 2 images, got {n_views}")

    feats = [detect_features(img, MAX_FEATURES) for img in images]
    positions = {}
    intensities = {}
    normalized = {}
    for v, fl in enumerate(feats):
        pos = (np.array([f.position for f in fl]) if fl
               else np.empty((0, 2)))
        positions[v] = pos
        intensities[v] = bilinear_sample(to_float(images[v]), pos) * 255.0
        normalized[v] = undistort_normalized(pixel_to_normalized(pos, intrinsics),
                                             dist)

    if cfg.exhaustive_pairs:
        pair_ids = [(i, j) for i in range(n_views) for j in range(i + 1, n_views)]
    else:
        pair_ids = [(i, i + step) for step in (1, 2)
                    for i in range(n_views - step)]
        pair_ids.sort()

    match_pairs = []
    pair_models = {}
    for i, j in pair_ids:
        raw = match_features(feats[i], feats[j])
        if len(raw) < 8:
            continue
        x1 = normalized[i][raw[:, 0]]
        x2 = normalized[j][raw[:, 1]]
        try:
            e, mask = essential_ransac(x1, x2, seed=_pair_seed(cfg.seed, i, j))
        except (NoModelFound, InsufficientMatches):
            continue
        inliers = raw[mask]
        if len(inliers) < MIN_PAIR_INLIERS:
            continue
        match_pairs.append(MatchPair(i, j, inliers))
        pair_models[(i, j)] = (e, inliers)

    if not match_pairs:
        raise InitializationFailed("no image pair produced enough inlier matches")
    tracks = build_tracks(match_pairs)

    init = _choose_initial_pair(pair_models, normalized)
    if init is None:
        raise InitializationFailed(
            "no pair had enough inliers and triangulation angle")
    (i0, j0), rel_pose = init

    scene = SfmScene(
        intrinsics=intrinsics,
        distortion=dist,
        poses={i0: CameraPose.identity(), j0: rel_pose},
        view_order=(i0, j0),
        tracks=tracks,
        features=positions,
        intensities=intensities,
    )
    _refresh_triangulations(scene, normalized)
    scene = bundle_adjust(scene)

    while len(scene.poses) < n_views:
        view = _next_view(scene)
        scene = _register_view(scene, view, normalized)
        _refresh_triangulations(scene, normalized)
        scene = bundle_adjust(scene)
    return scene


def _choose_initial_pair(pair_models, normalized):
    best = None
    best_count = -1
    identity = CameraPose.identity()
    for (i, j), (e, inliers) in sorted(pair_models.items()):
        x1 = normalized[i][inliers[:, 0]]
        x2 = normalized[j][inliers[:, 1]]
        try:
            rel = recover_relative_pose(e, x1, x2)
        except CheiralityAmbiguous:
            continue
        pts, valid = triangulate_points(identity, rel, x1, x2)
        if int(valid.sum()) < max(MIN_PAIR_INLIERS, 2):
            continue
        rays_i = pts[valid]
        rays_j = pts[valid] - rel.center
        cosang = np.sum(rays_i * rays_j, axis=1) / (
            np.linalg.norm(rays_i, axis=1) * np.linalg.norm(rays_j, axis=1))
        angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        if np.median(angles) <= MIN_MEDIAN_ANGLE_DEG:
            continue
        if len(inliers) > best_count:
            best_count = len(inliers)
            best = ((i, j), rel)
    return best


def _next_view(scene: SfmScene) -> int:
    """The unregistered view observed by the most valid tracks, the lowest
    id on a tie."""
    unregistered = sorted(v for v in scene.features if v not in scene.poses)
    _, views, _ = _observations(scene.valid_tracks(), unregistered)
    return max(unregistered, key=lambda v: np.count_nonzero(views == v))


def _register_view(scene: SfmScene, view: int, normalized) -> SfmScene:
    tracks = scene.valid_tracks()
    owner, _, feature = _observations(tracks, (view,))
    if len(owner) < MIN_RESECTION_POINTS:
        raise RegistrationFailed(
            view, f"view {view}: only {len(owner)} usable track observations")
    world = np.array([tracks[k].point for k in owner])
    obs_px = scene.features[view][feature]
    obs_norm = normalized[view][feature]
    try:
        pose0 = _linear_resection(world, obs_norm)
        pose, err = refine_pose(world, obs_px, scene.intrinsics,
                                scene.distortion, pose0)
    except (np.linalg.LinAlgError, InvalidRotation, SingularNormalEquations,
            NonFiniteResidual) as exc:
        raise RegistrationFailed(
            view, f"view {view}: resection failed ({exc})") from exc
    if err > MAX_RESECTION_ERROR:
        raise RegistrationFailed(
            view, f"view {view}: reprojection error {err:.2f} px after resection")
    scene.poses[view] = pose
    scene.view_order = tuple(list(scene.view_order) + [view])
    return scene


# --- bundle adjustment -------------------------------------------------------

def _build_ba_problem(scene: SfmScene):
    """Assemble the bundle-adjustment least-squares problem for a scene.

    Returns ``(problem, x0, pose_of, point_start, track_ids, (obs_view,
    obs_track))`` where ``pose_of(view, x)`` evaluates a view's CameraPose
    under a parameter vector, ``x[point_start:]`` holds the track points and
    observation ``k`` (residual rows ``2k`` and ``2k+1``) is of local track
    ``obs_track[k]`` in view ``obs_view[k]``. The Jacobian is a block-sparse
    ``csr_array``. Every view of ``view_order`` has 6 parameters (axis-angle,
    translation) and every point 3; ``x`` holds the free ones. The gauge
    freezes the first view's 6 and the second view's translation coordinate
    of largest magnitude, which fixes the 7 degrees of freedom of a
    similarity.
    """
    order = scene.view_order
    if len(order) < 2:
        raise ValueError("bundle adjustment needs at least 2 registered views")
    track_ids = [ti for ti, t in enumerate(scene.tracks)
                 if t.valid and t.point is not None]
    if not track_ids:
        raise ValueError("bundle adjustment needs at least one triangulated track")

    tracks = [scene.tracks[ti] for ti in track_ids]
    obs_track, obs_view, obs_feature = _observations(tracks, scene.poses)
    n_poses = 6 * len(order)
    full0 = np.concatenate(
        [np.concatenate([rotation_to_axis_angle(scene.poses[v].rotation),
                         scene.poses[v].translation]) for v in order]
        + [t.point for t in tracks])
    free = np.ones(len(full0), dtype=bool)
    free[:6] = False
    free[9 + np.argmax(np.abs(full0[9:12]))] = False

    def expand(x: np.ndarray) -> np.ndarray:
        full = full0.copy()
        full[free] = x
        return full

    slot = {v: i for i, v in enumerate(order)}
    obs_slot = np.array([slot[v] for v in obs_view.tolist()], dtype=np.int64)
    obs_of_view = [np.flatnonzero(obs_slot == i) for i in range(len(order))]
    obs_px = np.empty((len(obs_view), 2))
    for v, sel in zip(order, obs_of_view):
        obs_px[sel] = scene.features[v][obs_feature[sel]]

    # Jacobian sparsity: observation k fills a (2, 9) block, its view's 6
    # pose columns then its point's 3, and ``kept`` drops the frozen ones.
    # Free columns keep the order of the full ones, so every CSR row lists
    # its columns in increasing order.
    full_cols = np.repeat(np.concatenate(
        [6 * obs_slot[:, None] + np.arange(6),
         n_poses + 3 * obs_track[:, None] + np.arange(3)], axis=1), 2, axis=0)
    kept = free[full_cols]
    indices = (np.cumsum(free) - 1)[full_cols[kept]].astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=1))]).astype(np.int32)

    def per_view(x: np.ndarray):
        """Each view's observations, their points, and the view's axis-angle
        and translation under ``x``."""
        full = expand(x)
        poses = full[:n_poses].reshape(-1, 6)
        pts = full[n_poses:].reshape(-1, 3)
        for i, sel in enumerate(obs_of_view):
            yield sel, pts[obs_track[sel]], poses[i, :3], poses[i, 3:]

    def pose_of(v: int, x: np.ndarray) -> CameraPose:
        pose = expand(x)[6 * slot[v]:][:6]
        return CameraPose.from_axis_angle(pose[:3], pose[3:])

    def residual(x: np.ndarray) -> np.ndarray:
        out = np.empty((len(obs_view), 2))
        for sel, *view in per_view(x):
            out[sel] = project_points(*view, scene.intrinsics, scene.distortion)
        return (out - obs_px).ravel()

    def jacobian(x: np.ndarray) -> sparse.csr_array:
        blocks = np.empty((len(obs_view), 2, 9))
        for sel, *view in per_view(x):
            _, d_pose, d_point, _, _ = project_points(
                *view, scene.intrinsics, scene.distortion, jacobians=True)
            blocks[sel] = np.concatenate([d_pose, d_point], axis=2)
        # Copies: in-place sparse methods on the result must not reach the
        # structure shared by later calls.
        return sparse.csr_array(
            (blocks.reshape(-1, 9)[kept], indices.copy(), indptr.copy()),
            shape=(2 * len(obs_view), int(free.sum())))

    problem = LeastSquaresProblem(residual=residual, jacobian=jacobian)
    return (problem, full0[free], pose_of, n_poses - 7, track_ids,
            (obs_view, obs_track))


def bundle_adjust(scene: SfmScene, lm_config: LmConfig | None = None) -> SfmScene:
    """Jointly refine all free poses and 3D points of the scene.

    The first registered pose stays fixed and so does the coordinate of the
    second pose's translation with the largest magnitude, which removes the
    gauge freedom. Intrinsics and distortion are not touched.
    Returns a new scene; the accepted cost never increases. Tracks that end
    behind a camera are marked invalid, and the scene's
    ``mean_reprojection_error`` is the mean pixel error over the observations
    of the tracks that stay valid, taken from the final BA residual.
    """
    problem, x0, pose_of, point_start, track_ids, (obs_view, obs_track) = \
        _build_ba_problem(scene)
    report = levenberg_marquardt(problem, x0, lm_config or LmConfig(max_iters=50))
    x = report.params

    new_poses = dict(scene.poses)
    for v in scene.view_order[1:]:
        new_poses[v] = pose_of(v, x)
    new_tracks = [replace(t) for t in scene.tracks]
    pts = x[point_start:].reshape(-1, 3)
    in_front = np.ones(len(track_ids), dtype=bool)
    for v in new_poses:
        owners = obs_track[obs_view == v]
        depth = camera_depths(pts[owners], new_poses[v])
        in_front[owners[~(depth > 0)]] = False
    for local, ti in enumerate(track_ids):
        new_tracks[ti].point = pts[local].copy()
        new_tracks[ti].valid = bool(in_front[local])

    errors = np.linalg.norm(problem.residual(x).reshape(-1, 2), axis=1)
    errors = errors[in_front[obs_track]]
    return replace(scene, poses=new_poses, tracks=new_tracks,
                   mean_reprojection_error=float(errors.mean()) if errors.size
                   else float("nan"))


def export_point_cloud(scene: SfmScene) -> PointCloud:
    """One point per valid track, intensity = mean of its observed pixels."""
    tracks = scene.valid_tracks()
    if not tracks:
        raise EmptyScene("no valid triangulated tracks")
    positions = np.array([t.point for t in tracks])
    intensity = np.array([
        float(np.mean([scene.intensities[v][fi] for v, fi in t.observations]))
        for t in tracks
    ])
    return PointCloud(positions=positions, intensity=intensity)


def similarity_align(src: np.ndarray, dst: np.ndarray):
    """Least-squares similarity (scale, rotation, translation) src -> dst.

    Returns ``(scale, rotation, translation)`` minimizing
    ``||scale * R @ src + t - dst||^2`` (Umeyama's method).
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    cs = src - mu_s
    cd = dst - mu_d
    cov = cd.T @ cs / len(src)
    u, s, vt = np.linalg.svd(cov)
    sign = np.eye(3)
    if np.linalg.det(u @ vt) < 0:
        sign[2, 2] = -1.0
    rot = u @ sign @ vt
    var_s = np.mean(np.sum(cs * cs, axis=1))
    scale = float(np.trace(np.diag(s) @ sign) / var_s)
    t = mu_d - scale * rot @ mu_s
    return scale, rot, t
