import os
import signal
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import camkit.sfm
from camkit import (
    CameraPose,
    DistortionCoeffs,
    axis_angle_to_rotation,
    bundle_adjust,
    export_point_cloud,
    project,
    reconstruct,
    similarity_align,
)
from camkit.errors import (
    EmptyScene,
    ImageTooSmall,
    InitializationFailed,
    NonFiniteResidual,
    RegistrationFailed,
    SingularNormalEquations,
)
from camkit.geometry import camera_depths, pixel_to_normalized, project_points
from camkit.optimize import (
    BlockJacobian,
    LeastSquaresProblem,
    LmReport,
    levenberg_marquardt,
    numeric_jacobian,
)
from camkit.sfm import (SfmScene, _build_ba_problem, _next_view,
                         _refresh_triangulations, _register_view)
from camkit.synthetic import CubeScene, cloud_error, render_cube_view, sample_ring_poses
from camkit.tracks import Track

from conftest import CUBE_EDGE


@pytest.fixture(scope="session")
def cube_reconstruction(cube_capture, ref_intrinsics):
    _, _, images, dist = cube_capture
    return reconstruct(images, ref_intrinsics, dist, seed=0)


def test_all_views_register(cube_reconstruction):
    assert sorted(cube_reconstruction.poses) == [0, 1, 2, 3, 4]
    assert cube_reconstruction.mean_reprojection_error < 0.5
    assert len(cube_reconstruction.valid_tracks()) > 100
    for track in cube_reconstruction.valid_tracks():
        for view, _ in track.observations:
            pose = cube_reconstruction.poses[view]
            assert pose.rotation[2] @ track.point + pose.translation[2] > 0


@pytest.mark.parametrize("start_deg, lens, seed",
                         [(21.0, False, 8), (21.0, False, 10), (201.0, False, 0),
                          (201.0, True, 1), (201.0, True, 2)],
                         ids=["8", "10", "start201-seed0", "lens-start201-seed1",
                              "lens-start201-seed2"])
def test_neighbour_start_registers_every_view(cube_capture, ref_intrinsics,
                                              ref_distortion, start_deg, lens,
                                              seed):
    # These rings once failed from a linear resection start: RANSAC seed 8
    # resected view 4 at 11.2 px, and seed 10 and the ring turned by 180
    # degrees left normal equations singular. Through the README lens, the
    # turned ring's view 4, started from a DLT of 23-25 near-planar points,
    # converged to 97.50 px (seed 1) and 48.21 px (seed 2).
    scene3d, _, images, dist = cube_capture
    if lens:
        dist = ref_distortion
    if start_deg != 21.0:
        poses = sample_ring_poses(5, radius=450.0, elevation_deg=30.0,
                                  sweep_deg=48.0, start_deg=start_deg)
        images = [render_cube_view(scene3d, ref_intrinsics, dist, p, 640, 480)
                  for p in poses]
    scene = reconstruct(images, ref_intrinsics, dist, seed=seed)
    assert sorted(scene.poses) == [0, 1, 2, 3, 4]
    assert scene.mean_reprojection_error < 0.5


def test_reconstruct_bundle_adjusts_once(cube_capture, ref_intrinsics, monkeypatch):
    # The whole scene is adjusted once, after the last registration, and the
    # returned scene carries that adjustment's report.
    _, _, images, dist = cube_capture
    adjusted = []

    def counted(scene, *args, **kwargs):
        adjusted.append(bundle_adjust(scene, *args, **kwargs))
        return adjusted[-1]

    monkeypatch.setattr(camkit.sfm, "bundle_adjust", counted)
    scene = reconstruct(images, ref_intrinsics, dist, seed=0)
    assert len(adjusted) == 1
    assert scene.lm_report is adjusted[0].lm_report


def test_an_eight_view_ring_registers_every_view(ref_intrinsics):
    scene3d = CubeScene(edge=CUBE_EDGE, texture_seed=7)
    poses = sample_ring_poses(8, radius=450.0, elevation_deg=30.0,
                              sweep_deg=84.0, start_deg=21.0)
    dist = DistortionCoeffs()
    images = [render_cube_view(scene3d, ref_intrinsics, dist, p, 640, 480)
              for p in poses]
    scene = reconstruct(images, ref_intrinsics, dist, seed=0)
    assert sorted(scene.poses) == list(range(8))
    assert cloud_error(scene, scene3d, poses).rms < 3.0


def test_similarity_aligned_rms(cube_reconstruction, cube_capture):
    scene3d, poses, _, _ = cube_capture
    assert cloud_error(cube_reconstruction, scene3d, poses).rms < 0.01 * CUBE_EDGE


def test_points_concentrate_on_faces(cube_reconstruction, cube_capture):
    scene3d, poses, _, _ = cube_capture
    distance = cloud_error(cube_reconstruction, scene3d, poses).surface_distance
    assert np.mean(distance < 0.02 * CUBE_EDGE) >= 0.9


def test_reconstruction_is_deterministic(cube_capture, cube_reconstruction,
                                         ref_intrinsics):
    _, _, images, dist = cube_capture
    again = reconstruct(images, ref_intrinsics, dist, seed=0)
    assert again.view_order == cube_reconstruction.view_order
    for v in cube_reconstruction.poses:
        assert np.array_equal(again.poses[v].rotation,
                              cube_reconstruction.poses[v].rotation)
        assert np.array_equal(again.poses[v].translation,
                              cube_reconstruction.poses[v].translation)
    pts_a = np.array([t.point for t in cube_reconstruction.valid_tracks()])
    pts_b = np.array([t.point for t in again.valid_tracks()])
    assert np.array_equal(pts_a, pts_b)


@pytest.fixture(params=[1, 4], ids=["1-worker", "4-workers"])
def swapped_pool(request, monkeypatch):
    """reconstruct's pool swapped for one of 1 worker, or of 4, more than the
    CPUs, with threads switched every 10 us."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(request.param) as pool:
            monkeypatch.setattr(camkit.sfm, "_pool", lambda: pool)
            yield request.param
    finally:
        sys.setswitchinterval(interval)


def scene_state(scene):
    """Everything a scene holds, with arrays as their bytes."""
    report = scene.lm_report
    return (scene.view_order, scene.mean_reprojection_error,
            (report.params.tobytes(), report.residual.tobytes(),
             report.iterations, report.reason),
            [(v, p.rotation.tobytes(), p.translation.tobytes())
             for v, p in sorted(scene.poses.items())],
            [(t.observations, t.valid, None if t.point is None else t.point.tobytes())
             for t in scene.tracks],
            [(v, scene.features[v].tobytes(), scene.intensities[v].tobytes())
             for v in sorted(scene.features)])


def test_pool_has_a_worker_per_cpu_up_to_two():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert camkit.sfm._pool()._max_workers == min(2, cpus)
    assert camkit.sfm._pool() is camkit.sfm._pool()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool():
    # The parent's workers do not exist in a forked child, so work given to
    # the parent's pool there would wait forever.
    pool = camkit.sfm._pool()
    assert list(pool.map(abs, [-1, -2])) == [1, 2]
    with warnings.catch_warnings():  # Python 3.12 warns on forking with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        fresh = camkit.sfm._pool()
        os._exit(0 if fresh is not pool and list(fresh.map(abs, [-3])) == [3] else 1)
    deadline = time.monotonic() + 30.0
    while not (ended := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.05)
    if not ended[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert ended[0] == pid and os.waitstatus_to_exitcode(ended[1]) == 0


def test_any_worker_count_reconstructs_bit_for_bit(cube_capture, cube_reconstruction,
                                                   ref_intrinsics, swapped_pool):
    _, _, images, dist = cube_capture
    assert camkit.sfm._pool()._max_workers == swapped_pool
    again = reconstruct(images, ref_intrinsics, dist, seed=0)
    assert scene_state(again) == scene_state(cube_reconstruction)


def test_registration_failure_is_the_same_for_any_worker_count(ref_intrinsics,
                                                               monkeypatch):
    # Texture seed 11 resects view 4 at 18.00 px under RANSAC seed 0.
    scene3d = CubeScene(edge=CUBE_EDGE, texture_seed=11)
    dist = DistortionCoeffs()
    images = [render_cube_view(scene3d, ref_intrinsics, dist, p, 640, 480)
              for p in sample_ring_poses(5, radius=450.0, elevation_deg=30.0,
                                         sweep_deg=48.0, start_deg=21.0)]
    failures = []
    for workers in (2, 1):
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(camkit.sfm, "_pool", lambda: pool)
            with pytest.raises(RegistrationFailed) as caught:
                reconstruct(images, ref_intrinsics, dist, seed=0)
        failures.append((caught.value.view_id, str(caught.value)))
    assert failures[0] == failures[1]
    assert failures[0][0] == 4 and "18.00 px" in failures[0][1]


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_view_in_input_order_is_raised(workers, ref_intrinsics,
                                                      monkeypatch):
    rng = np.random.default_rng(0)
    textured = (rng.uniform(0, 255, (64, 64))).astype(np.uint8)
    images = [textured, np.zeros((20, 40), np.uint8), textured,
              np.zeros((10, 30), np.uint8)]
    with ThreadPoolExecutor(workers) as pool:
        monkeypatch.setattr(camkit.sfm, "_pool", lambda: pool)
        with pytest.raises(ImageTooSmall, match="image 40x20 "):
            reconstruct(images, ref_intrinsics, DistortionCoeffs())


def test_identical_images_fail_initialization(cube_capture, ref_intrinsics):
    _, _, images, dist = cube_capture
    with pytest.raises(InitializationFailed):
        reconstruct([images[0], images[0].copy()], ref_intrinsics, dist,
                    seed=0)


# --- bundle adjustment on hand-built scenes ----------------------------------

def build_scene(ref_intrinsics, n_points=40, n_views=3, seed=0,
                point_noise=0.0):
    rng = np.random.default_rng(seed)
    dist = DistortionCoeffs()
    points = rng.uniform(-80, 80, (n_points, 3)) + [0.0, 0.0, 500.0]
    poses = {}
    for v in range(n_views):
        rvec = rng.normal(0, 0.05, 3)
        t = np.array([-120.0 * v, 10.0 * v, 40.0 * v])
        if v == 1:
            t = t / np.linalg.norm(t)  # unit baseline pins the gauge scale
        poses[v] = CameraPose(axis_angle_to_rotation(rvec), t)
    features = {}
    for v in range(n_views):
        features[v] = project(points, poses[v], ref_intrinsics, dist)
    intensities = {v: np.full(n_points, 128.0) for v in range(n_views)}
    stored = points + rng.normal(0, point_noise, points.shape) \
        if point_noise else points.copy()
    tracks = [Track(observations=tuple((v, i) for v in range(n_views)),
                    point=stored[i].copy(), valid=True)
              for i in range(n_points)]
    return SfmScene(intrinsics=ref_intrinsics, distortion=dist, poses=poses,
                    view_order=tuple(range(n_views)), tracks=tracks,
                    features=features, intensities=intensities), points


def test_ba_is_stationary_at_ground_truth(ref_intrinsics):
    scene, points = build_scene(ref_intrinsics)
    problem, x0, *_ = _build_ba_problem(scene)
    cost0 = 0.5 * float(np.sum(problem.residual(x0) ** 2))
    adjusted = bundle_adjust(scene)
    problem2, x1, *_ = _build_ba_problem(adjusted)
    cost1 = 0.5 * float(np.sum(problem2.residual(x1) ** 2))
    assert abs(cost1 - cost0) < 1e-12
    for v in scene.poses:
        assert np.max(np.abs(adjusted.poses[v].rotation
                             - scene.poses[v].rotation)) < 1e-9
        assert np.max(np.abs(adjusted.poses[v].translation
                             - scene.poses[v].translation)) < 1e-9
    for before, after in zip(scene.tracks, adjusted.tracks):
        assert np.max(np.abs(before.point - after.point)) < 1e-9


def test_ba_reduces_cost_of_perturbed_points(ref_intrinsics):
    scene, points = build_scene(ref_intrinsics, point_noise=2.0, seed=3)
    problem, x0, *_ = _build_ba_problem(scene)
    cost0 = 0.5 * float(np.sum(problem.residual(x0) ** 2))
    adjusted = bundle_adjust(scene)
    problem2, x1, *_ = _build_ba_problem(adjusted)
    cost1 = 0.5 * float(np.sum(problem2.residual(x1) ** 2))
    assert cost1 < cost0
    assert adjusted.mean_reprojection_error < 0.01
    assert np.linalg.norm(
        adjusted.poses[1].translation) == pytest.approx(1.0, abs=1e-12)


def test_ba_mean_error_matches_reprojection_of_result(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, point_noise=2.0, seed=3)
    rng = np.random.default_rng(3)
    for v in scene.features:
        scene.features[v] = scene.features[v] + rng.normal(0, 0.5, (40, 2))
    # A track observed exactly where a point behind the cameras projects
    # stays there with zero residual; it must not count in the mean.
    behind = np.array([[20.0, -10.0, -400.0]])
    for v, pose in scene.poses.items():
        scene.features[v] = np.vstack(
            [scene.features[v],
             project_points(behind, pose.axis_angle()[None], pose.translation[None],
                            ref_intrinsics, scene.distortion,
                            pose_of=np.zeros(1, dtype=np.intp))])
    scene.tracks.append(Track(observations=tuple((v, 40) for v in scene.poses),
                              point=behind[0].copy(), valid=True))
    adjusted = bundle_adjust(scene)
    assert not adjusted.tracks[-1].valid
    errors = [np.linalg.norm(project(t.point[None], adjusted.poses[v],
                                     ref_intrinsics, adjusted.distortion)[0]
                             - adjusted.features[v][fi])
              for t in adjusted.valid_tracks() for v, fi in t.observations]
    assert len(errors) == 40 * len(scene.poses)
    assert adjusted.mean_reprojection_error == pytest.approx(np.mean(errors),
                                                             rel=1e-12)


def test_ba_is_deterministic(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, point_noise=2.0, seed=5)
    a = bundle_adjust(scene)
    scene2, _ = build_scene(ref_intrinsics, point_noise=2.0, seed=5)
    b = bundle_adjust(scene2)
    problem, xa, *_ = _build_ba_problem(a)
    _, xb, *_ = _build_ba_problem(b)
    cost_a = 0.5 * float(np.sum(problem.residual(xa) ** 2))
    cost_b = 0.5 * float(np.sum(problem.residual(xb) ** 2))
    assert abs(cost_a - cost_b) < 1e-10


def test_ba_gradient_vanishes_at_convergence(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, n_points=12, point_noise=1.0, seed=9)
    adjusted = bundle_adjust(scene)
    problem, x, *_ = _build_ba_problem(adjusted)
    jac = numeric_jacobian(LeastSquaresProblem(problem.residual), x)
    grad = jac.T @ problem.residual(x)
    assert np.linalg.norm(grad) < 1e-6


@pytest.mark.parametrize("n_points, seed", [(40, 3), (40, 5), (12, 9)])
def test_ba_sparse_solve_matches_dense_solve(ref_intrinsics, n_points, seed):
    scene, _ = build_scene(ref_intrinsics, n_points=n_points, point_noise=2.0,
                           seed=seed)
    # Pixel noise keeps the final cost well above rounding, so a relative
    # comparison means something; both solves must converge, since where an
    # unconverged solve stops depends on rounding.
    rng = np.random.default_rng(seed)
    for v in scene.features:
        scene.features[v] = scene.features[v] + rng.normal(0, 0.5, (n_points, 2))
    problem, x0, *_ = _build_ba_problem(scene)
    as_dense = LeastSquaresProblem(problem.residual,
                                   lambda x: np.asarray(problem.jacobian(x)))
    blocks = levenberg_marquardt(problem, x0)
    dense = levenberg_marquardt(as_dense, x0)
    assert "max-iter" not in (blocks.reason, dense.reason)
    assert blocks.final_cost == pytest.approx(dense.final_cost, rel=1e-8)
    assert blocks.final_cost < 0.5 * blocks.initial_cost


@pytest.mark.parametrize("t1", [None, [1.0, 0.2, -0.3], [0.2, -1.0, 0.3],
                                [0.2, 0.3, 1.0]],
                         ids=["minus-x", "plus-x", "y", "z"])
def test_ba_jacobian_is_block_sparse(ref_intrinsics, t1):
    # Half the tracks miss view 2, so rows of different widths interleave.
    scene, _ = build_scene(ref_intrinsics, n_points=10, n_views=3, seed=2)
    for track in scene.tracks[::2]:
        track.observations = track.observations[:2]
    if t1 is not None:
        scene.poses[1] = CameraPose(scene.poses[1].rotation, t1)
    problem, x0, _, _, (obs_view, obs_track) = _build_ba_problem(scene)
    jac = problem.jacobian(x0)
    assert isinstance(jac, BlockJacobian)
    # Pose block widths: view 0 frozen, view 1 without its frozen largest
    # translation coordinate 5, view 2 6; every point has its 3 columns.
    widths = {0: 0, 1: 5, 2: 6}
    observations = [v for t in scene.tracks for v, _ in t.observations]
    assert sorted(obs_view.tolist()) == sorted(observations)
    assert np.array_equal(jac.layout.block, obs_track)
    assert np.array_equal((jac.layout.kept_cols >= 0).sum(axis=1),
                          [widths[v] for v in obs_view.tolist()])
    assert np.all(jac.layout.block_cols >= 0)
    oracle = numeric_jacobian(LeastSquaresProblem(problem.residual), x0)
    assert np.max(np.abs(np.asarray(jac) - oracle)
                  / np.maximum(np.abs(oracle), 1.0)) < 1e-5


def test_ba_residual_reads_each_observation_from_its_view(ref_intrinsics):
    # View ids 7, 2, 5 and 0 registered in that order, each with a different
    # number of unrelated features ahead of the tracked ones, and a view 9
    # that is not registered; a third of the tracks miss views 7 and 2.
    scene, _ = build_scene(ref_intrinsics, n_points=12, n_views=5, seed=4)
    ids = {0: 7, 1: 2, 2: 5, 3: 0, 4: 9}
    rng = np.random.default_rng(4)
    offset = {ids[v]: 3 * v + 1 for v in range(5)}
    scene.features = {ids[v]: np.concatenate([rng.uniform(0, 640, (offset[ids[v]], 2)),
                                              scene.features[v]]) for v in range(5)}
    scene.poses = {ids[v]: scene.poses[v] for v in range(4)}
    scene.view_order = (7, 2, 5, 0)
    scene.tracks = [Track(observations=tuple(sorted((ids[v], i + offset[ids[v]])
                                                    for v, i in t.observations[i % 3:])),
                          point=t.point, valid=True)
                    for i, t in enumerate(scene.tracks)]
    problem, x0, *_ = _build_ba_problem(scene)
    expected = [project(t.point, scene.poses[v], scene.intrinsics, scene.distortion)
                - scene.features[v][f]
                for t in scene.tracks for v, f in t.observations if v in scene.poses]
    assert np.max(np.abs(problem.residual(x0) - np.ravel(expected))) < 1e-9
    # A feature index past its view's features is not read from the next view.
    scene.tracks[0] = Track(observations=((2, len(scene.features[2])), (5, 0)),
                            point=scene.tracks[0].point, valid=True)
    with pytest.raises(IndexError):
        _build_ba_problem(scene)


def test_negative_feature_index_is_rejected(ref_intrinsics):
    # Not read as view 0's last feature.
    scene, _ = build_scene(ref_intrinsics)
    scene.tracks[0] = Track(observations=((0, -1), (1, 0)),
                            point=scene.tracks[0].point, valid=True)
    with pytest.raises(IndexError):
        _build_ba_problem(scene)
    with pytest.raises(IndexError):
        export_point_cloud(scene)


def test_ba_gauge_freezes_first_pose_and_largest_second_coordinate(
        ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, point_noise=2.0, seed=5)
    rng = np.random.default_rng(5)
    for v in scene.features:
        scene.features[v] = scene.features[v] + rng.normal(0, 0.5, (40, 2))
    adjusted = bundle_adjust(scene)
    assert np.array_equal(adjusted.poses[0].rotation, scene.poses[0].rotation)
    assert np.array_equal(adjusted.poses[0].translation,
                          scene.poses[0].translation)
    before = scene.poses[1].translation
    after = adjusted.poses[1].translation
    assert np.argmax(np.abs(before)) == 0  # the baseline runs along -x
    assert after[0] == before[0]
    assert np.all(np.abs(after[1:] - before[1:]) > 1e-6)


def test_ba_marks_tracks_behind_any_observing_view(ref_intrinsics, monkeypatch):
    # Views 0 and 1 sit near the origin and view 2 80 mm behind them, so a
    # point at z = -10 is behind views 0 and 1 and in front of view 2.
    scene, _ = build_scene(ref_intrinsics, n_points=6, n_views=3, seed=4)
    scene.tracks[5].observations = scene.tracks[5].observations[2:]
    _, x0, _, track_ids, _ = _build_ba_problem(scene)
    moved = x0.copy()
    # The points are the last free entries, 3 per track.
    points = moved[x0.size - 3 * len(track_ids):].reshape(-1, 3)
    points[0] = [0.0, 0.0, -50.0]  # behind every view
    points[1] = [0.0, 0.0, -10.0]  # behind two of its three views
    points[2] = np.nan
    points[5] = [0.0, 0.0, -10.0]  # seen only by view 2, in front of it
    monkeypatch.setattr(
        "camkit.sfm.levenberg_marquardt",
        lambda problem, x, cfg: LmReport(moved, 0.0, 0.0, 1, "cost-tol",
                                         residual=problem.residual(moved)))
    adjusted = bundle_adjust(scene)
    for track in adjusted.tracks:
        expected = all(camera_depths(track.point, adjusted.poses[v])[0] > 0
                       for v, _ in track.observations)
        assert track.valid == expected
    assert [t.valid for t in adjusted.tracks] == [False, False, False,
                                                  True, True, True]


@pytest.mark.parametrize("error", [SingularNormalEquations, NonFiniteResidual])
def test_failed_pose_refinement_is_a_registration_failure(
        ref_intrinsics, monkeypatch, error):
    scene, _ = build_scene(ref_intrinsics, n_points=20, n_views=3, seed=1)
    del scene.poses[2]
    scene.view_order = (0, 1)

    def failing_refine(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr("camkit.sfm.refine_pose", failing_refine)
    with pytest.raises(RegistrationFailed) as caught:
        _register_view(scene, 2)
    assert caught.value.view_id == 2
    assert isinstance(caught.value.__cause__, error)


def test_coincident_world_points_are_a_registration_failure(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, n_points=20, n_views=3, seed=1)
    del scene.poses[2]
    scene.view_order = (0, 1)
    scene.tracks = [replace(t, point=np.array([5.0, -3.0, 500.0]))
                    for t in scene.tracks]
    with pytest.raises(RegistrationFailed) as caught:
        _register_view(scene, 2)
    assert caught.value.view_id == 2


def test_register_view_starts_from_the_view_sharing_most_tracks(
        ref_intrinsics, monkeypatch):
    scene, _ = build_scene(ref_intrinsics, n_points=12, n_views=4)
    del scene.poses[3]
    seen_by = {0: range(0, 5), 1: range(0, 8), 2: range(4, 12)}
    for k, track in enumerate(scene.tracks):
        track.observations = tuple((v, fi) for v, fi in track.observations
                                   if v == 3 or k in seen_by[v])
    starts = []

    def start_only(world, px, intrinsics, dist, initial):
        starts.append(initial)
        return initial, 0.0

    monkeypatch.setattr("camkit.sfm.refine_pose", start_only)

    def start(view_order):
        scene.poses.pop(3, None)
        scene.view_order = view_order
        _register_view(scene, 3)
        return starts[-1]

    # Views 1 and 2 each see eight of view 3's twelve tracks.
    assert start((0, 1, 2)) is scene.poses[1]
    assert start((0, 2, 1)) is scene.poses[2]
    scene.tracks[11].valid = False  # view 2 keeps seven valid tracks
    assert start((0, 2, 1)) is scene.poses[1]


def test_next_view_has_most_valid_tracks_lowest_id_on_tie(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, n_points=6, n_views=5)
    for v in (2, 3, 4):
        del scene.poses[v]
    scene.view_order = (0, 1)
    seen_by = {2: range(0, 4), 3: range(0, 3), 4: range(2, 6)}
    for k, track in enumerate(scene.tracks):
        track.observations = tuple((v, fi) for v, fi in track.observations
                                   if v < 2 or k in seen_by[v])
    assert _next_view(scene) == 2  # views 2 and 4 tie at four tracks
    scene.tracks[0].valid = False
    assert _next_view(scene) == 4  # view 2 keeps three valid tracks


def test_register_view_needs_six_observations(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, n_points=8, n_views=3, seed=1)
    truth = scene.poses.pop(2)
    scene.view_order = (0, 1)
    for track in scene.tracks[5:]:
        track.valid = False
    with pytest.raises(RegistrationFailed, match="only 5 usable") as caught:
        _register_view(scene, 2)
    assert caught.value.view_id == 2
    scene.tracks[5].valid = True
    registered = _register_view(scene, 2)
    assert registered.view_order == (0, 1, 2)
    assert np.allclose(registered.poses[2].translation, truth.translation,
                       atol=1e-6)


def test_adjusting_and_retriangulating_leave_input_tracks(ref_intrinsics):
    # Tracks are values: bundle adjustment and re-triangulation replace the
    # tracks they change, so the input scene's tracks keep their state even
    # where the returned scene still shares them.
    scene, _ = build_scene(ref_intrinsics, n_points=20, seed=2, point_noise=1.0)
    for track in scene.tracks[15:]:
        track.point, track.valid = None, False
    before = [(None if t.point is None else t.point.copy(), t.valid)
              for t in scene.tracks]

    def unchanged():
        return all(t.valid == valid and (t.point is None if point is None
                                         else np.array_equal(t.point, point))
                   for t, (point, valid) in zip(scene.tracks, before))

    adjusted = bundle_adjust(scene)
    assert unchanged()
    normalized = {v: pixel_to_normalized(px, ref_intrinsics)
                  for v, px in scene.features.items()}
    _refresh_triangulations(adjusted, normalized)
    assert all(t.valid for t in adjusted.tracks)
    assert unchanged()


def test_export_point_cloud_intensity_mean(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, n_points=1, n_views=2)
    scene.intensities[0][0] = 100.0
    scene.intensities[1][0] = 200.0
    scene.tracks[0].point = np.array([1.0, 2.0, 3.0])
    cloud = export_point_cloud(scene)
    assert np.array_equal(cloud.positions, [[1.0, 2.0, 3.0]])
    assert cloud.intensity[0] == 150.0


def _oracle_intensity(scene):
    """The per-track intensity as a mean over a Python list, one track at a
    time."""
    return np.array([
        float(np.mean([scene.intensities[v][fi] for v, fi in t.observations]))
        for t in scene.valid_tracks()
    ])


def test_export_point_cloud_equals_per_track_means_bitwise(cube_reconstruction,
                                                           ref_intrinsics):
    cloud = export_point_cloud(cube_reconstruction)
    assert cloud.intensity.tobytes() == _oracle_intensity(cube_reconstruction).tobytes()
    # Tracks of 12 views, where a pairwise or one-pass sum of the
    # observations would round differently from numpy's mean.
    scene, _ = build_scene(ref_intrinsics, n_points=30, n_views=12)
    rng = np.random.default_rng(2)
    for v in scene.intensities:
        scene.intensities[v] = rng.uniform(0.0, 255.0, 30)
    scene.tracks[3].valid = False
    cloud = export_point_cloud(scene)
    assert len(cloud) == 29
    assert cloud.intensity.tobytes() == _oracle_intensity(scene).tobytes()


def test_export_point_cloud_reads_every_observed_view(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, n_points=10, n_views=3)
    del scene.intensities[1]
    with pytest.raises(KeyError):
        export_point_cloud(scene)


def test_export_point_cloud_counts(cube_reconstruction):
    cloud = export_point_cloud(cube_reconstruction)
    assert len(cloud) == len(cube_reconstruction.valid_tracks())


def test_export_empty_scene_raises(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, n_points=2, n_views=2)
    for track in scene.tracks:
        track.valid = False
    with pytest.raises(EmptyScene):
        export_point_cloud(scene)


def test_similarity_align_recovers_known_transform():
    rng = np.random.default_rng(4)
    src = rng.normal(size=(50, 3))
    rot = axis_angle_to_rotation([0.3, -0.2, 0.8])
    dst = 2.5 * src @ rot.T + [1.0, -2.0, 3.0]
    s, r, t = similarity_align(src, dst)
    assert s == pytest.approx(2.5, abs=1e-12)
    assert np.max(np.abs(r - rot)) < 1e-12
    assert t == pytest.approx([1.0, -2.0, 3.0], abs=1e-12)
