"""Incremental structure from motion with bundle adjustment.

Reconstruction plan: detect features, match adjacent and skip-one image
pairs (all pairs with the exhaustive flag), filter every pair through
essential-matrix RANSAC, build tracks from the inlier matches, initialize
from the surviving pair with the most inliers and enough triangulation
angle, then register the remaining views one at a time by 3D-2D resection,
triangulating newly covered tracks and bundle-adjusting after every
registration. Intrinsics and distortion stay fixed throughout; the gauge is
pinned by freezing the first registered pose and the norm of the second
pose's translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .epipolar import (essential_ransac, recover_relative_pose,
                       triangulate_points, triangulate_views)
from .errors import (
    CheiralityAmbiguous,
    EmptyScene,
    InitializationFailed,
    InsufficientMatches,
    NoModelFound,
    RegistrationFailed,
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


@dataclass
class SfmConfig:
    """Reconstruction settings; defaults suit small turntable-style captures."""

    max_features: int = 800
    match_ratio: float = 0.8
    ransac_threshold: float = 1e-3
    ransac_iters: int = 1000
    seed: int = 0
    min_pair_inliers: int = 20
    min_median_angle_deg: float = 2.0
    min_resection_points: int = 6
    max_resection_error: float = 5.0  # pixels
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

    def observation_residuals(self) -> list[np.ndarray]:
        """Per valid track, the pixel residual norm of each registered
        observation."""
        tracks = self.valid_tracks()
        obs = [(k, v, fi) for k, track in enumerate(tracks)
               for v, fi in track.observations if v in self.poses]
        owner, views, feature = np.array(obs, dtype=np.int64).reshape(-1, 3).T
        points = np.array([track.point for track in tracks]).reshape(-1, 3)
        errors = np.empty(len(obs))
        for v in np.unique(views).tolist():
            sel = views == v
            pose = self.poses[v]
            proj = project_points(points[owner[sel]], pose.axis_angle(),
                                  pose.translation, self.intrinsics,
                                  self.distortion)
            errors[sel] = np.linalg.norm(proj - self.features[v][feature[sel]],
                                         axis=1)
        counts = np.bincount(owner, minlength=len(tracks))
        return np.split(errors, np.cumsum(counts)[:-1]) if tracks else []


@dataclass(frozen=True)
class PointCloud:
    """Bare 3D points with an 8-bit-scale intensity per point."""

    positions: np.ndarray  # (n, 3)
    intensity: np.ndarray  # (n,), 0..255 scale

    def __len__(self) -> int:
        return len(self.positions)


def _pair_seed(seed: int, i: int, j: int) -> int:
    return (seed * 1_000_003 + i * 8191 + j) % (2 ** 32)


def _linear_resection(world: np.ndarray, norm_xy: np.ndarray) -> CameraPose:
    """DLT estimate of a pose from >= 6 3D points and normalized 2D images."""
    n = len(world)
    hom = np.column_stack([world, np.ones(n)])
    a = np.zeros((2 * n, 12))
    a[0::2, 0:4] = -hom
    a[0::2, 8:12] = norm_xy[:, 0:1] * hom
    a[1::2, 4:8] = -hom
    a[1::2, 8:12] = norm_xy[:, 1:2] * hom
    _, _, vt = np.linalg.svd(a)
    p = vt[-1].reshape(3, 4)
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
    for k, track in enumerate(pending):
        for v, fi in track.observations:
            if v in column:
                x[k, column[v]] = normalized[v][fi]
                seen[k, column[v]] = True
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

    feats = [detect_features(img, cfg.max_features) for img in images]
    positions = {}
    intensities = {}
    normalized = {}
    for v, fl in enumerate(feats):
        pos = (np.array([f.position for f in fl]) if fl
               else np.empty((0, 2)))
        positions[v] = pos
        intensities[v] = bilinear_sample(to_float(images[v]), pos) * 255.0
        normalized[v] = (undistort_normalized(
            pixel_to_normalized(pos, intrinsics), dist)
            if len(pos) else np.empty((0, 2)))

    if cfg.exhaustive_pairs:
        pair_ids = [(i, j) for i in range(n_views) for j in range(i + 1, n_views)]
    else:
        pair_ids = [(i, i + step) for step in (1, 2)
                    for i in range(n_views - step)]
        pair_ids.sort()

    match_pairs = []
    pair_models = {}
    for i, j in pair_ids:
        raw = match_features(feats[i], feats[j], cfg.match_ratio)
        if len(raw) < 8:
            continue
        x1 = normalized[i][raw[:, 0]]
        x2 = normalized[j][raw[:, 1]]
        try:
            e, mask = essential_ransac(
                x1, x2, threshold=cfg.ransac_threshold,
                seed=_pair_seed(cfg.seed, i, j), max_iters=cfg.ransac_iters)
        except (NoModelFound, InsufficientMatches):
            continue
        inliers = raw[mask]
        if len(inliers) < cfg.min_pair_inliers:
            continue
        match_pairs.append(MatchPair(i, j, inliers))
        pair_models[(i, j)] = (e, inliers)

    if not match_pairs:
        raise InitializationFailed("no image pair produced enough inlier matches")
    tracks = build_tracks(match_pairs)

    init = _choose_initial_pair(pair_models, normalized, cfg)
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
        scene = _register_view(scene, view, normalized, cfg)
        _refresh_triangulations(scene, normalized)
        scene = bundle_adjust(scene)

    scene.mean_reprojection_error = _mean_residual(scene)
    return scene


def _choose_initial_pair(pair_models, normalized, cfg: SfmConfig):
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
        if int(valid.sum()) < max(cfg.min_pair_inliers, 2):
            continue
        rays_i = pts[valid]
        rays_j = pts[valid] - rel.center
        cosang = np.sum(rays_i * rays_j, axis=1) / (
            np.linalg.norm(rays_i, axis=1) * np.linalg.norm(rays_j, axis=1))
        angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        if np.median(angles) <= cfg.min_median_angle_deg:
            continue
        if len(inliers) > best_count:
            best_count = len(inliers)
            best = ((i, j), rel)
    return best


def _next_view(scene: SfmScene) -> int:
    counts = {}
    for track in scene.valid_tracks():
        for v, _ in track.observations:
            if v not in scene.poses:
                counts[v] = counts.get(v, 0) + 1
    unregistered = [v for v in scene.features if v not in scene.poses]
    return max(sorted(unregistered), key=lambda v: counts.get(v, 0))


def _register_view(scene: SfmScene, view: int, normalized,
                   cfg: SfmConfig) -> SfmScene:
    world = []
    obs_px = []
    obs_norm = []
    for track in scene.valid_tracks():
        for v, fi in track.observations:
            if v == view:
                world.append(track.point)
                obs_px.append(scene.features[view][fi])
                obs_norm.append(normalized[view][fi])
    if len(world) < cfg.min_resection_points:
        raise RegistrationFailed(
            view, f"view {view}: only {len(world)} usable track observations")
    world = np.array(world)
    obs_px = np.array(obs_px)
    obs_norm = np.array(obs_norm)
    try:
        pose0 = _linear_resection(world, obs_norm)
        pose, err = refine_pose(world, obs_px, scene.intrinsics,
                                scene.distortion, pose0)
    except np.linalg.LinAlgError as exc:
        raise RegistrationFailed(view, f"view {view}: resection failed ({exc})")
    if err > cfg.max_resection_error:
        raise RegistrationFailed(
            view, f"view {view}: reprojection error {err:.2f} px after resection")
    scene.poses[view] = pose
    scene.view_order = tuple(list(scene.view_order) + [view])
    return scene


def _mean_residual(scene: SfmScene) -> float:
    errors = np.concatenate([np.empty(0), *scene.observation_residuals()])
    return float(errors.mean()) if errors.size else float("nan")


# --- bundle adjustment -------------------------------------------------------

def _tangent_basis(t: np.ndarray) -> np.ndarray:
    """3x2 orthonormal basis of the plane perpendicular to t."""
    e = t / np.linalg.norm(t)
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(e)))] = 1.0
    b1 = np.cross(e, helper)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(e, b1)
    return np.column_stack([b1, b2])


def _build_ba_problem(scene: SfmScene):
    """Assemble the bundle-adjustment least-squares problem for a scene.

    Returns ``(problem, x0, pose_of, point_start, track_ids)`` where
    ``pose_of(view, x)`` evaluates a view's CameraPose under a parameter
    vector. The first registered pose is constant and the second pose's
    translation is parameterized in the tangent plane of its current
    direction with its norm frozen.
    """
    order = scene.view_order
    if len(order) < 2:
        raise ValueError("bundle adjustment needs at least 2 registered views")
    track_ids = [ti for ti, t in enumerate(scene.tracks)
                 if t.valid and t.point is not None]
    if not track_ids:
        raise ValueError("bundle adjustment needs at least one triangulated track")

    fixed = scene.poses[order[0]]
    fixed_rvec = rotation_to_axis_angle(fixed.rotation)
    gauge_view = order[1]
    moving = list(order[1:])
    t2_init = scene.poses[gauge_view].translation
    t2_norm = np.linalg.norm(t2_init)
    basis = _tangent_basis(t2_init)

    # Parameter layout: per moving view 6 (gauge view: 3 rvec + 2 tangent),
    # then 3 per track point.
    pose_start = {}
    cursor = 0
    for v in moving:
        pose_start[v] = cursor
        cursor += 5 if v == gauge_view else 6
    point_start = cursor
    n_params = cursor + 3 * len(track_ids)

    obs = []  # (view, track local index, feature index)
    for local, ti in enumerate(track_ids):
        for v, fi in scene.tracks[ti].observations:
            if v in scene.poses:
                obs.append((v, local, fi))
    obs_view = np.array([o[0] for o in obs])
    obs_track = np.array([o[1] for o in obs])
    obs_px = np.array([scene.features[v][fi] for v, _, fi in obs])
    obs_of_view = [(v, np.flatnonzero(obs_view == v)) for v in order]

    x0 = np.zeros(n_params)
    for v in moving:
        s = pose_start[v]
        x0[s:s + 3] = rotation_to_axis_angle(scene.poses[v].rotation)
        if v != gauge_view:
            x0[s + 3:s + 6] = scene.poses[v].translation
    for local, ti in enumerate(track_ids):
        x0[point_start + 3 * local:point_start + 3 * local + 3] = \
            scene.tracks[ti].point

    intrinsics = scene.intrinsics
    dist = scene.distortion

    def view_params(v: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A view's axis-angle and translation under ``x``."""
        if v == order[0]:
            return fixed_rvec, fixed.translation
        s = pose_start[v]
        if v == gauge_view:
            t = t2_init + basis @ x[s + 3:s + 5]
            return x[s:s + 3], t * (t2_norm / np.linalg.norm(t))
        return x[s:s + 3], x[s + 3:s + 6]

    def pose_of(v: int, x: np.ndarray) -> CameraPose:
        return CameraPose.from_axis_angle(*view_params(v, x))

    def residual(x: np.ndarray) -> np.ndarray:
        pts = x[point_start:].reshape(-1, 3)
        out = np.empty((len(obs), 2))
        for v, sel in obs_of_view:
            out[sel] = project_points(pts[obs_track[sel]], *view_params(v, x),
                                      intrinsics, dist)
        return (out - obs_px).ravel()

    def jacobian(x: np.ndarray) -> np.ndarray:
        pts = x[point_start:].reshape(-1, 3)
        jac = np.zeros((2 * len(obs), n_params))
        for v, sel in obs_of_view:
            _, d_pose, d_point, _, _ = project_points(
                pts[obs_track[sel]], *view_params(v, x), intrinsics, dist,
                jacobians=True)
            rows = (2 * sel[:, None] + np.arange(2))[:, :, None]
            cols = point_start + 3 * obs_track[sel][:, None] + np.arange(3)
            jac[rows, cols[:, None, :]] = d_point
            if v == order[0]:
                continue
            s = pose_start[v]
            if v == gauge_view:
                # Chain rule through t = t2_norm * w / |w|, w = t2_init + B u.
                w = t2_init + basis @ x[s + 3:s + 5]
                e = w / np.linalg.norm(w)
                d_t = (t2_norm / np.linalg.norm(w)) * (basis - np.outer(e, e @ basis))
                d_pose = np.concatenate([d_pose[:, :, :3], d_pose[:, :, 3:] @ d_t],
                                        axis=2)
            jac[rows, s + np.arange(d_pose.shape[2])] = d_pose
        return jac

    problem = LeastSquaresProblem(residual=residual, jacobian=jacobian)
    return problem, x0, pose_of, point_start, track_ids


def bundle_adjust(scene: SfmScene, lm_config: LmConfig | None = None) -> SfmScene:
    """Jointly refine all free poses and 3D points of the scene.

    The first registered pose stays fixed and the second pose's translation
    keeps its norm (direction parameterized in its 2D tangent plane), which
    removes the gauge freedom. Intrinsics and distortion are not touched.
    Returns a new scene; the accepted cost never increases.
    """
    problem, x0, pose_of, point_start, track_ids = _build_ba_problem(scene)
    report = levenberg_marquardt(problem, x0, lm_config or LmConfig(max_iters=50))
    x = report.params

    new_poses = dict(scene.poses)
    for v in scene.view_order[1:]:
        new_poses[v] = pose_of(v, x)
    new_tracks = [replace(t) for t in scene.tracks]
    pts = x[point_start:].reshape(-1, 3)
    for local, ti in enumerate(track_ids):
        point = pts[local]
        in_front = all(
            camera_depths(point, new_poses[v])[0] > 0
            for v, _ in new_tracks[ti].observations if v in new_poses
        )
        new_tracks[ti].point = point.copy()
        new_tracks[ti].valid = in_front

    new_scene = SfmScene(
        intrinsics=scene.intrinsics,
        distortion=scene.distortion,
        poses=new_poses,
        view_order=scene.view_order,
        tracks=new_tracks,
        features=scene.features,
        intensities=scene.intensities,
    )
    new_scene.mean_reprojection_error = _mean_residual(new_scene)
    return new_scene


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
