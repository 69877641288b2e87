import numpy as np
import pytest
from scipy import sparse

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
    InitializationFailed,
    InvalidRotation,
    NonFiniteResidual,
    RegistrationFailed,
    SingularNormalEquations,
)
from camkit.geometry import camera_depths, pixel_to_normalized, project_points
from camkit.optimize import (
    LeastSquaresProblem,
    LmReport,
    levenberg_marquardt,
    numeric_jacobian,
)
from camkit.sfm import (SfmConfig, SfmScene, _build_ba_problem, _next_view,
                         _register_view)
from camkit.synthetic import cube_ray_points
from camkit.tracks import Track

from conftest import CUBE_EDGE


@pytest.fixture(scope="session")
def cube_reconstruction(cube_capture, ref_intrinsics):
    _, _, images, dist = cube_capture
    return reconstruct(images, ref_intrinsics, dist, SfmConfig(seed=0))


def aligned_to_truth(scene, cube_capture, ref_intrinsics):
    scene3d, poses, _, dist = cube_capture
    recon, truth = [], []
    for track in scene.valid_tracks():
        view, fi = track.observations[0]
        pts, hit = cube_ray_points(scene3d, poses[view],
                                   scene.features[view][fi][None, :],
                                   ref_intrinsics, dist)
        if hit[0]:
            recon.append(track.point)
            truth.append(pts[0])
    recon = np.array(recon)
    truth = np.array(truth)
    s, rot, t = similarity_align(recon, truth)
    return (s * (rot @ recon.T)).T + t, truth


def test_all_views_register(cube_reconstruction):
    assert sorted(cube_reconstruction.poses) == [0, 1, 2, 3, 4]
    assert cube_reconstruction.mean_reprojection_error < 0.5
    assert len(cube_reconstruction.valid_tracks()) > 100
    for track in cube_reconstruction.valid_tracks():
        for view, _ in track.observations:
            pose = cube_reconstruction.poses[view]
            assert pose.rotation[2] @ track.point + pose.translation[2] > 0


@pytest.mark.parametrize("seed", [8, 10])
def test_conditioned_resection_registers_every_view(cube_capture,
                                                    ref_intrinsics, seed):
    # With an unconditioned DLT, RANSAC seed 8 resected view 4 at 11.2 px
    # and seed 10 left view 0's normal equations singular.
    _, _, images, dist = cube_capture
    scene = reconstruct(images, ref_intrinsics, dist, SfmConfig(seed=seed))
    assert sorted(scene.poses) == [0, 1, 2, 3, 4]
    assert scene.mean_reprojection_error < 0.5


def test_similarity_aligned_rms(cube_reconstruction, cube_capture, ref_intrinsics):
    aligned, truth = aligned_to_truth(cube_reconstruction, cube_capture,
                                      ref_intrinsics)
    rms = np.sqrt(np.mean(np.sum((aligned - truth) ** 2, axis=1)))
    assert rms < 0.01 * CUBE_EDGE


def test_points_concentrate_on_faces(cube_reconstruction, cube_capture,
                                     ref_intrinsics):
    aligned, _ = aligned_to_truth(cube_reconstruction, cube_capture,
                                  ref_intrinsics)
    face_distance = np.abs(np.max(np.abs(aligned), axis=1) - CUBE_EDGE / 2)
    assert np.mean(face_distance < 0.02 * CUBE_EDGE) >= 0.9


def test_reconstruction_is_deterministic(cube_capture, cube_reconstruction,
                                         ref_intrinsics):
    _, _, images, dist = cube_capture
    again = reconstruct(images, ref_intrinsics, dist, SfmConfig(seed=0))
    assert again.view_order == cube_reconstruction.view_order
    for v in cube_reconstruction.poses:
        assert np.array_equal(again.poses[v].rotation,
                              cube_reconstruction.poses[v].rotation)
        assert np.array_equal(again.poses[v].translation,
                              cube_reconstruction.poses[v].translation)
    pts_a = np.array([t.point for t in cube_reconstruction.valid_tracks()])
    pts_b = np.array([t.point for t in again.valid_tracks()])
    assert np.array_equal(pts_a, pts_b)


def test_identical_images_fail_initialization(cube_capture, ref_intrinsics):
    _, _, images, dist = cube_capture
    with pytest.raises(InitializationFailed):
        reconstruct([images[0], images[0].copy()], ref_intrinsics, dist,
                    SfmConfig(seed=0))


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
             project_points(behind, pose.axis_angle(), pose.translation,
                            ref_intrinsics, scene.distortion)])
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
                                   lambda x: problem.jacobian(x).toarray())
    csr = levenberg_marquardt(problem, x0)
    dense = levenberg_marquardt(as_dense, x0)
    assert "max-iter" not in (csr.reason, dense.reason)
    assert csr.final_cost == pytest.approx(dense.final_cost, rel=1e-8)
    assert csr.final_cost < 0.5 * csr.initial_cost


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
    problem, x0, *_ = _build_ba_problem(scene)
    jac = problem.jacobian(x0)
    assert sparse.issparse(jac)
    # Pose block widths: view 0 frozen, view 1 without its frozen largest
    # translation coordinate 5, view 2 6.
    widths = {0: 0, 1: 5, 2: 6}
    observations = [v for t in scene.tracks for v, _ in t.observations]
    assert jac.nnz == sum(2 * (widths[v] + 3) for v in observations)
    oracle = numeric_jacobian(LeastSquaresProblem(problem.residual), x0)
    assert np.max(np.abs(jac.toarray() - oracle)
                  / np.maximum(np.abs(oracle), 1.0)) < 1e-5


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
    _, x0, _, point_start, *_ = _build_ba_problem(scene)
    moved = x0.copy()
    points = moved[point_start:].reshape(-1, 3)
    points[0] = [0.0, 0.0, -50.0]  # behind every view
    points[1] = [0.0, 0.0, -10.0]  # behind two of its three views
    points[2] = np.nan
    points[5] = [0.0, 0.0, -10.0]  # seen only by view 2, in front of it
    monkeypatch.setattr(
        "camkit.sfm.levenberg_marquardt",
        lambda problem, x, cfg: LmReport(moved, 0.0, 0.0, 1, "cost-tol"))
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
    normalized = {v: pixel_to_normalized(px, ref_intrinsics)
                  for v, px in scene.features.items()}

    def failing_refine(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr("camkit.sfm.refine_pose", failing_refine)
    with pytest.raises(RegistrationFailed) as caught:
        _register_view(scene, 2, normalized)
    assert caught.value.view_id == 2
    assert isinstance(caught.value.__cause__, error)


def test_non_finite_resection_is_a_registration_failure(ref_intrinsics,
                                                         monkeypatch):
    scene, _ = build_scene(ref_intrinsics, n_points=20, n_views=3, seed=1)
    del scene.poses[2]
    scene.view_order = (0, 1)
    normalized = {v: pixel_to_normalized(px, ref_intrinsics)
                  for v, px in scene.features.items()}
    monkeypatch.setattr("camkit.sfm.nearest_rotation",
                        lambda m: np.full((3, 3), np.nan))
    with pytest.raises(RegistrationFailed) as caught:
        _register_view(scene, 2, normalized)
    assert caught.value.view_id == 2
    assert isinstance(caught.value.__cause__, InvalidRotation)


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
    normalized = {v: pixel_to_normalized(px, ref_intrinsics)
                  for v, px in scene.features.items()}
    for track in scene.tracks[5:]:
        track.valid = False
    with pytest.raises(RegistrationFailed, match="only 5 usable") as caught:
        _register_view(scene, 2, normalized)
    assert caught.value.view_id == 2
    scene.tracks[5].valid = True
    registered = _register_view(scene, 2, normalized)
    assert registered.view_order == (0, 1, 2)
    assert np.allclose(registered.poses[2].translation, truth.translation,
                       atol=1e-6)


def test_export_point_cloud_intensity_mean(ref_intrinsics):
    scene, _ = build_scene(ref_intrinsics, n_points=1, n_views=2)
    scene.intensities[0][0] = 100.0
    scene.intensities[1][0] = 200.0
    scene.tracks[0].point = np.array([1.0, 2.0, 3.0])
    cloud = export_point_cloud(scene)
    assert np.array_equal(cloud.positions, [[1.0, 2.0, 3.0]])
    assert cloud.intensity[0] == 150.0


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
