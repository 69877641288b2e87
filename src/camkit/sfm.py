"""Incremental structure from motion with bundle adjustment.

Reconstruction plan: detect features, match adjacent and skip-one image
pairs, filter every pair through essential-matrix RANSAC, build tracks from
the inlier matches, initialize from the surviving pair with the most inliers
and enough triangulation angle, then register the remaining views one at a
time by 3D-2D resection (pose LM started from the pose of the registered
view that shares the most tracks with the new one), triangulating newly
covered tracks after each, and bundle-adjust the whole scene once, after
the last registration. Intrinsics and distortion stay fixed throughout; the
gauge is pinned by freezing the first registered pose and the
largest-magnitude coordinate of the second pose's translation. Feature
detection and the pairs' matching and RANSAC, which depend on nothing else,
run on a pool of up to two threads; their results are taken in input order,
so the outputs do not depend on the worker count.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .epipolar import essential_ransac, recover_relative_pose, triangulate_views
from .errors import (
    CheiralityAmbiguous,
    EmptyScene,
    InitializationFailed,
    InsufficientMatches,
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
    pixel_to_normalized,
    reprojection_problem,
    undistort_normalized,
)
from .imageops import bilinear_sample, to_float
from .optimize import LmConfig, LmReport, levenberg_marquardt
from .pose import refine_pose
from .tracks import Track, build_tracks


MAX_FEATURES = 800
MIN_PAIR_INLIERS = 20
MIN_MEDIAN_ANGLE_DEG = 2.0
MIN_RESECTION_POINTS = 6
MAX_RESECTION_ERROR = 5.0  # pixels


@dataclass
class SfmScene:
    """A (partial) reconstruction: poses, tracks, and their observations.

    ``features[v]`` holds the pixel positions of view v's features and
    ``intensities[v]`` the image intensity sampled at each of them, so the
    scene is self-contained for refinement and export. ``view_order`` is the
    registration order; its first two entries pin the gauge. ``lm_report`` is
    the report of the bundle adjustment that returned the scene, if any.
    """

    intrinsics: CameraIntrinsics
    distortion: DistortionCoeffs
    poses: dict[int, CameraPose]
    view_order: tuple[int, ...]
    tracks: list[Track]
    features: dict[int, np.ndarray]
    intensities: dict[int, np.ndarray]
    mean_reprojection_error: float = field(default=float("nan"))
    lm_report: LmReport | None = None

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
    lengths = [len(t.observations) for t in tracks]
    flat = chain.from_iterable(chain.from_iterable(t.observations for t in tracks))
    pairs = np.fromiter(flat, dtype=np.int64, count=2 * sum(lengths)).reshape(-1, 2)
    keep = np.isin(pairs[:, 0], list(views))
    owner = np.repeat(np.arange(len(tracks)), lengths)[keep]
    return owner, pairs[keep, 0], pairs[keep, 1]


def _gather(per_view, view: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``per_view[view[k]][rows[k]]`` for every k, stacked; IndexError for a
    negative row or one past a view's last row."""
    if np.any(rows < 0):
        raise IndexError("negative feature index")
    out = np.empty((len(view),) + next(iter(per_view.values())).shape[1:])
    for v in np.unique(view):
        sel = view == v
        out[sel] = per_view[v][rows[sel]]
    return out


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The process's one pool for the per-view and per-pair work, made on
    first use with a worker for each CPU the process may run on, at most two.
    One pool for the process: pools made per call grow the heap with every
    call's fresh threads."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return ThreadPoolExecutor(min(2, cpus), thread_name_prefix="camkit-sfm")


if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _pair_model(feats, normalized, seed: int, i: int, j: int):
    """``(E, inlier matches)`` of views i and j, or None when RANSAC finds
    no model or too few inliers."""
    raw = match_features(feats[i], feats[j])
    x1 = normalized[i][raw[:, 0]]
    x2 = normalized[j][raw[:, 1]]
    try:
        e, mask = essential_ransac(x1, x2, seed=_pair_seed(seed, i, j))
    except (NoModelFound, InsufficientMatches):
        return None
    inliers = raw[mask]
    return (e, inliers) if len(inliers) >= MIN_PAIR_INLIERS else None


def _pair_seed(seed: int, i: int, j: int) -> int:
    return (seed * 1_000_003 + i * 8191 + j) % (2 ** 32)


def _refresh_triangulations(scene: SfmScene, normalized) -> None:
    """Triangulate, in one batch, every track that is not yet valid and has
    at least two registered observations, replacing each in ``scene.tracks``."""
    views = list(scene.poses)
    column = {v: c for c, v in enumerate(views)}
    pending = [k for k, track in enumerate(scene.tracks)
               if not (track.valid and track.point is not None)
               and sum(v in column for v, _ in track.observations) >= 2]
    x = np.zeros((len(pending), len(views), 2))
    seen = np.zeros((len(pending), len(views)), dtype=bool)
    owner, obs_view, feature = _observations([scene.tracks[k] for k in pending], column)
    slot = [column[v] for v in obs_view.tolist()]
    x[owner, slot] = _gather(normalized, obs_view, feature)
    seen[owner, slot] = True
    points, valid = triangulate_views([scene.poses[v] for v in views], x, seen)
    for k, point, ok in zip(pending, points, valid):
        scene.tracks[k] = replace(scene.tracks[k], point=point, valid=bool(ok))


def reconstruct(images, intrinsics: CameraIntrinsics, dist: DistortionCoeffs,
                seed: int = 0) -> SfmScene:
    """Run the full incremental pipeline on an ordered image list.

    Deterministic given the RANSAC ``seed``. Raises InitializationFailed
    when no image pair provides enough inliers and baseline, and
    RegistrationFailed(view) when a view cannot be resected.
    """
    n_views = len(images)
    if n_views < 2:
        raise InitializationFailed(f"need at least 2 images, got {n_views}")

    pool = _pool()
    feats = list(pool.map(detect_features, images, [MAX_FEATURES] * n_views))
    positions = {v: f.positions for v, f in enumerate(feats)}
    intensities = {v: bilinear_sample(to_float(images[v]), *pos.T) * 255.0
                   for v, pos in positions.items()}
    normalized = {v: undistort_normalized(pixel_to_normalized(pos, intrinsics), dist)
                  for v, pos in positions.items()}

    pairs = sorted((i, i + step) for step in (1, 2) for i in range(n_views - step))
    models = pool.map(lambda pair: _pair_model(feats, normalized, seed, *pair), pairs)
    pair_models = {pair: model for pair, model in zip(pairs, models)
                   if model is not None}

    if not pair_models:
        raise InitializationFailed("no image pair produced enough inlier matches")
    tracks = build_tracks((i, j, inliers)
                          for (i, j), (_, inliers) in pair_models.items())

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
    while len(scene.poses) < n_views:
        scene = _register_view(scene, _next_view(scene))
        _refresh_triangulations(scene, normalized)
    return bundle_adjust(scene)


def _choose_initial_pair(pair_models, normalized):
    best = None
    best_count = -1
    for (i, j), (e, inliers) in sorted(pair_models.items()):
        x1 = normalized[i][inliers[:, 0]]
        x2 = normalized[j][inliers[:, 1]]
        try:
            rel, pts, valid = recover_relative_pose(e, x1, x2)
        except CheiralityAmbiguous:
            continue
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


def _register_view(scene: SfmScene, view: int) -> SfmScene:
    """Resect ``view`` by pose LM over its valid tracks, started from the
    pose of the registered view that sees the most of them, the first in
    ``view_order`` on a tie (Schönberger & Frahm, CVPR 2016, §4.2)."""
    tracks = scene.valid_tracks()
    owner, _, feature = _observations(tracks, (view,))
    if len(owner) < MIN_RESECTION_POINTS:
        raise RegistrationFailed(
            view, f"view {view}: only {len(owner)} usable track observations")
    seen = [tracks[k] for k in owner]
    _, seen_by, _ = _observations(seen, scene.view_order)
    neighbour = max(scene.view_order, key=lambda v: np.count_nonzero(seen_by == v))
    try:
        pose, err = refine_pose(np.array([t.point for t in seen]),
                                scene.features[view][feature], scene.intrinsics,
                                scene.distortion, scene.poses[neighbour])
    except (SingularNormalEquations, NonFiniteResidual) as exc:
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

    Returns ``(problem, x0, unpack, track_ids, (obs_view, obs_track))``, the
    :func:`camkit.geometry.reprojection_problem` over the valid tracks'
    observations in the registered views: ``unpack(x)`` gives the poses of
    ``view_order`` and the points of ``track_ids`` under ``x``, and
    observation ``k`` (residual rows ``2k`` and ``2k+1``) is of local track
    ``obs_track[k]`` in view ``obs_view[k]``. Every point and pose entry is
    free except the first view's pose and the second view's translation
    coordinate of largest magnitude, which fixes the 7 degrees of freedom of
    a similarity; intrinsics and distortion are frozen. The Jacobian is a
    :class:`~camkit.optimize.BlockJacobian` with no free globals: each
    observation keeps its view's 6 pose columns and eliminates its point's 3,
    so the solver factors only the poses' reduced system.
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
    slot = {v: c for c, v in enumerate(order)}
    obs_slot = np.array([slot[v] for v in obs_view.tolist()], dtype=np.int64)
    obs_px = _gather(scene.features, obs_view, obs_feature)
    poses = [scene.poses[v] for v in order]
    free_poses = np.ones((len(order), 6), dtype=bool)
    free_poses[0] = False
    free_poses[1, 3 + np.argmax(np.abs(poses[1].translation))] = False
    problem, x0, unpack = reprojection_problem(
        [t.point for t in tracks], poses, scene.intrinsics, scene.distortion,
        obs_slot, obs_track, obs_px, free_poses=free_poses, free_points=True)
    return problem, x0, unpack, track_ids, (obs_view, obs_track)


def bundle_adjust(scene: SfmScene, lm_config: LmConfig | None = None) -> SfmScene:
    """Jointly refine all free poses and 3D points of the scene.

    The first registered pose stays fixed and so does the coordinate of the
    second pose's translation with the largest magnitude, which removes the
    gauge freedom. Intrinsics and distortion are not touched.
    Returns a new scene, sharing the tracks it did not adjust with the
    input; the accepted cost never increases. Tracks that end behind a
    camera are marked invalid, and the scene's ``mean_reprojection_error``
    is the mean pixel error over the observations of the tracks that stay
    valid, taken from the final BA residual.
    """
    problem, x0, unpack, track_ids, (obs_view, obs_track) = _build_ba_problem(scene)
    report = levenberg_marquardt(problem, x0, lm_config or LmConfig(max_iters=50))
    _, _, poses, pts = unpack(report.params)

    new_poses = dict(scene.poses) | dict(zip(scene.view_order, poses))
    in_front = np.ones(len(track_ids), dtype=bool)
    for v in new_poses:
        owners = obs_track[obs_view == v]
        depth = camera_depths(pts[owners], new_poses[v])
        in_front[owners[~(depth > 0)]] = False
    new_tracks = list(scene.tracks)
    for ti, point, valid in zip(track_ids, pts.copy(), in_front.tolist()):
        new_tracks[ti] = Track(new_tracks[ti].observations, point, valid)

    errors = np.linalg.norm(report.residual.reshape(-1, 2), axis=1)[in_front[obs_track]]
    return replace(scene, poses=new_poses, tracks=new_tracks, lm_report=report,
                   mean_reprojection_error=float(errors.mean()) if errors.size
                   else float("nan"))


def export_point_cloud(scene: SfmScene) -> PointCloud:
    """One point per valid track, intensity = mean of its observed pixels."""
    tracks = scene.valid_tracks()
    if not tracks:
        raise EmptyScene("no valid triangulated tracks")
    positions = np.array([t.point for t in tracks])
    view, feature = np.array([obs for t in tracks for obs in t.observations]).T
    per_track = np.split(_gather(scene.intensities, view, feature),
                         np.cumsum([len(t) for t in tracks])[:-1])
    intensity = np.array([float(np.mean(values)) for values in per_track])
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
