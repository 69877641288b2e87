import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from camkit import (
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    axis_angle_to_rotation,
    distort_normalized,
    geometry,
    normalized_to_pixel,
    pixel_to_normalized,
    project,
    rotation_to_axis_angle,
    undistort_normalized,
)
from camkit.errors import InvalidRotation, NoConvergence, NonPositiveDepth
from camkit.geometry import (
    DISTORTION_NAMES,
    INTRINSIC_NAMES,
    JACOBIAN_BLOCKS,
    _rodrigues,
    camera_depths,
    project_points,
    reprojection_problem,
)
from camkit.optimize import (
    BlockJacobian,
    LeastSquaresProblem,
    LmConfig,
    levenberg_marquardt,
    numeric_jacobian,
)

from conftest import REF_CX, REF_CY

NAMES = INTRINSIC_NAMES + DISTORTION_NAMES


def test_project_axis_point_hits_principal_point(ref_intrinsics):
    px = project(np.array([0.0, 0.0, 1.0]), CameraPose.identity(),
                 ref_intrinsics, DistortionCoeffs())
    assert px == pytest.approx([REF_CX, REF_CY], abs=1e-12)


def test_project_optical_axis_unit_intrinsics():
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    px = project(np.array([0.0, 0.0, 5.0]), CameraPose.identity(), k)
    assert px == pytest.approx([0.0, 0.0], abs=0)


def test_project_off_axis_point(ref_intrinsics):
    px = project(np.array([0.1, 0.0, 1.0]), CameraPose.identity(),
                 ref_intrinsics, DistortionCoeffs())
    assert px == pytest.approx([416.30068, 259.5099], abs=1e-9)


def test_identity_camera_is_exact_perspective_divide():
    rng = np.random.default_rng(2)
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    pts = rng.uniform(-1, 1, (200, 3)) + [0.0, 0.0, 3.0]
    px = project(pts, CameraPose.identity(), k, DistortionCoeffs())
    assert np.array_equal(px, pts[:, :2] / pts[:, 2:3])


def test_project_rejects_points_behind_camera(ref_intrinsics):
    with pytest.raises(NonPositiveDepth):
        project(np.array([0.0, 0.0, -1.0]), CameraPose.identity(), ref_intrinsics)
    with pytest.raises(NonPositiveDepth):
        project(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]),
                CameraPose.identity(), ref_intrinsics)


def _project_one(points, rvec, t, *args, **kwargs):
    """:func:`project_points` with every point under the one pose ``(rvec, t)``."""
    n = len(np.reshape(points, (-1, 3)))
    return project_points(points, np.reshape(rvec, (1, 3)), np.reshape(t, (1, 3)),
                          *args, pose_of=np.zeros(n, dtype=np.intp), **kwargs)


def _central_differences(fn, x):
    return numeric_jacobian(LeastSquaresProblem(lambda p: fn(p).ravel()), x)


def _relative_error(analytic, numeric):
    return np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0))


@settings(max_examples=60, deadline=None)
@given(axis=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
       angle=st.one_of(st.just(0.0), st.floats(1e-9, 1e-3), st.floats(1e-3, np.pi)),
       t=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
       k=st.tuples(st.floats(200, 2000), st.floats(200, 2000), st.floats(0, 1000),
                   st.floats(0, 1000), st.floats(-5, 5)),
       d=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                   st.floats(-0.01, 0.01), st.floats(-0.01, 0.01)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_project_points_jacobians_match_central_differences(axis, angle, t, k, d,
                                                            seed):
    axis = np.array(axis)
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([0.0, 0.0, 1.0])
    rvec = angle * axis / np.linalg.norm(axis)
    t = np.array(t)
    rng = np.random.default_rng(seed)
    depth = rng.uniform(0.5, 5.0, 4)
    cam = np.column_stack([rng.uniform(-0.6, 0.6, (4, 2)) * depth[:, None], depth])
    world = (cam - t) @ axis_angle_to_rotation(rvec)
    intr = CameraIntrinsics(*k)
    dist = DistortionCoeffs(*d)

    _, d_pose, d_point, d_intr, d_dist = _project_one(world, rvec, t, intr, dist,
                                                      jacobians=True)
    blocks = [
        (d_pose, _central_differences(
            lambda p: _project_one(world, p[:3], p[3:], intr, dist),
            np.concatenate([rvec, t]))),
        (d_intr, _central_differences(
            lambda p: _project_one(world, rvec, t, CameraIntrinsics(*p), dist), k)),
        (d_dist, _central_differences(
            lambda p: _project_one(world, rvec, t, intr, DistortionCoeffs(*p)), d)),
    ]
    for i, point in enumerate(world):
        blocks.append((d_point[i:i + 1], _central_differences(
            lambda p: _project_one(p, rvec, t, intr, dist), point)))
    for analytic, numeric in blocks:
        assert _relative_error(analytic.reshape(numeric.shape), numeric) < 1e-5


@pytest.mark.parametrize("points_free", [True, False])
def test_reprojection_problem_jacobian_matches_central_differences(points_free):
    # Three views of four points, with point 3 unseen by view 0. Frozen:
    # skew, k2, k3, p1, view 0, view 1's translation z, point 0 and point
    # 1's y; every point when ``points_free`` is off.
    rng = np.random.default_rng(5)
    intr = CameraIntrinsics(fx=800.0, fy=780.0, cx=320.0, cy=240.0, skew=0.5)
    dist = DistortionCoeffs(k1=-0.2, k2=0.05, k3=0.01, p1=1e-3, p2=-2e-3)
    poses = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 500.0],
                      [0.05, -0.2, 0.01, 80.0, 5.0, 510.0],
                      [-0.03, 0.25, 0.02, -90.0, -3.0, 490.0]])
    points = rng.uniform(-100.0, 100.0, (4, 3))
    obs_pose = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    obs_point = np.array([0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3])
    obs_px = np.array([_project_one(points[j], p[:3], p[3:], intr, dist)
                       for p, j in zip(poses[obs_pose], obs_point)])
    obs_px += rng.normal(0.0, 0.5, obs_px.shape)
    free_poses = np.ones((3, 6), dtype=bool)
    free_poses[0] = False
    free_poses[1, 5] = False
    free_points = np.full((4, 3), points_free)
    free_points[0] = False
    free_points[1, 1] = False

    problem, x0, _ = reprojection_problem(
        points, [CameraPose.from_axis_angle(p[:3], p[3:]) for p in poses], intr, dist,
        obs_pose, obs_point, obs_px, free_globals=("fx", "fy", "cx", "cy", "k1", "p2"),
        free_poses=free_poses, free_points=free_points)
    n_free = 6 + free_poses.sum() + free_points.sum()
    x = x0 + rng.normal(0.0, 1e-3, x0.shape) * np.maximum(1.0, np.abs(x0))
    supplied = problem.jacobian(x)
    # The points are eliminated when any is free, otherwise the poses.
    assert isinstance(supplied, BlockJacobian)
    assert supplied.blocks.shape[2] == (3 if points_free else 6)
    supplied = np.asarray(supplied)
    numeric = numeric_jacobian(LeastSquaresProblem(problem.residual), x)
    assert supplied.shape == (2 * len(obs_pose), n_free)
    assert _relative_error(supplied, numeric) < 1e-5


def _random_pose_params(rng: np.random.Generator, n_poses: int) -> np.ndarray:
    """``(n_poses, 6)`` axis-angle poses about 500 mm from the origin; pose 0
    has a zero rotation and pose 1 one of 1e-9 rad."""
    rvecs = rng.normal(0.0, 0.5, (n_poses, 3))
    rvecs[0] = 0.0
    rvecs[1] *= 1e-9 / np.linalg.norm(rvecs[1])
    return np.column_stack([rvecs, rng.normal(0.0, 50.0, (n_poses, 3)) + [0, 0, 500]])


def _within(batch, single, rel):
    """Every entry within ``rel`` of the largest entry of its observation's
    block (a pixel pair or a (2, k) Jacobian block)."""
    scale = np.abs(single).reshape(len(single), -1).max(axis=1)
    return np.all(np.abs(batch - single).reshape(len(single), -1)
                  <= rel * scale[:, None])


@settings(max_examples=40, deadline=None)
@given(n_poses=st.integers(3, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_pose_indexed_projection_matches_one_call_per_pose(n_poses, seed):
    # The last pose is used by no point.
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(*rng.uniform(500, 1000, 2), *rng.uniform(200, 400, 2),
                            rng.uniform(-1, 1))
    dist = DistortionCoeffs(*rng.uniform(-0.2, 0.2, 3), *rng.uniform(-1e-3, 1e-3, 2))
    poses = _random_pose_params(rng, n_poses)
    pose_of = rng.integers(0, n_poses - 1, 60)
    pose_of[:n_poses - 1] = np.arange(n_poses - 1)
    rng.shuffle(pose_of)
    depth = rng.uniform(100.0, 1000.0, len(pose_of))
    cam = np.column_stack([rng.uniform(-0.5, 0.5, (len(depth), 2)) * depth[:, None],
                           depth])
    rots = np.stack([axis_angle_to_rotation(p[:3]) for p in poses])
    world = np.einsum("kji,kj->ki", rots[pose_of], cam - poses[pose_of, 3:])

    batch = project_points(world, poses[:, :3], poses[:, 3:], intr, dist,
                           jacobians=True, pose_of=pose_of)
    for i, pose in enumerate(poses[:-1]):
        sel = pose_of == i
        single = _project_one(world[sel], pose[:3], pose[3:], intr, dist,
                              jacobians=True)
        for b, s in zip(batch, single):
            assert _within(b[sel], s, 1e-13)


@settings(max_examples=40, deadline=None)
@given(wanted=st.sets(st.sampled_from(JACOBIAN_BLOCKS), min_size=1),
       behind=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(wanted={"pose"}, behind=0, seed=0)  # what pose refinement asks for
@example(wanted={"pose", "point"}, behind=1, seed=1)  # bundle adjustment
@example(wanted={"pose", "intrinsics", "distortion"}, behind=2, seed=2)  # calibration
def test_projection_with_named_blocks_matches_the_full_call(wanted, behind, seed):
    # The first ``behind`` of 30 points lie behind their camera, where the
    # depth is clamped.
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(*rng.uniform(500, 1000, 2), *rng.uniform(200, 400, 2),
                            rng.uniform(-1, 1))
    dist = DistortionCoeffs(*rng.uniform(-0.2, 0.2, 3), *rng.uniform(-1e-3, 1e-3, 2))
    poses = _random_pose_params(rng, 3)
    pose_of = rng.integers(0, 3, 30)
    depth = rng.uniform(100.0, 1000.0, 30)
    depth[:behind] *= -1.0
    cam = np.column_stack([rng.uniform(-0.5, 0.5, (30, 2)) * np.abs(depth)[:, None],
                           depth])
    rots = np.stack([axis_angle_to_rotation(p[:3]) for p in poses])
    world = np.einsum("kji,kj->ki", rots[pose_of], cam - poses[pose_of, 3:])

    args = (world, poses[:, :3], poses[:, 3:], intr, dist)
    full = project_points(*args, jacobians=True, pose_of=pose_of)
    part = project_points(*args, jacobians=tuple(sorted(wanted)), pose_of=pose_of)
    assert part[0].tobytes() == full[0].tobytes()
    for name, got, want in zip(JACOBIAN_BLOCKS, part[1:], full[1:]):
        if name in wanted:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        else:
            assert got is None


def _random_observations(rng: np.random.Generator):
    """A reprojection problem's inputs: 2-5 poses, 4-12 points, each seen by
    a random subset of the poses (at least one), 0.5 px noise, and the
    keyword arguments that free some globals, most pose entries and, in
    about half the draws, the points."""
    n_poses, n_points = int(rng.integers(2, 6)), int(rng.integers(4, 13))
    intr = CameraIntrinsics(fx=800.0, fy=780.0, cx=320.0, cy=240.0, skew=0.5)
    dist = DistortionCoeffs(k1=-0.2, k2=0.05, k3=0.01, p1=1e-3, p2=-2e-3)
    params = _random_pose_params(rng, n_poses)
    points = rng.uniform(-100.0, 100.0, (n_points, 3))
    seen = rng.random((n_poses, n_points)) < 0.7
    seen[rng.integers(0, n_poses, n_points), np.arange(n_points)] = True
    obs_pose, obs_point = np.nonzero(seen)
    obs_px = project_points(points[obs_point], params[:, :3], params[:, 3:], intr, dist,
                            pose_of=obs_pose) + rng.normal(0.0, 0.5, (len(obs_pose), 2))
    free = rng.random(10 + params.size + points.size) < 0.8
    free = dict(free_globals=tuple(np.array(NAMES)[free[:10]]),
                free_poses=free[10:10 + params.size].reshape(-1, 6),
                free_points=(free[10 + params.size:].reshape(-1, 3)
                             & bool(rng.integers(0, 2))))
    poses = [CameraPose.from_axis_angle(p[:3], p[3:]) for p in params]
    return (points, poses, intr, dist, obs_pose, obs_point, obs_px, free)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reprojection_problem_follows_observation_order(seed):
    rng = np.random.default_rng(seed)
    points, poses, intr, dist, obs_pose, obs_point, obs_px, free = \
        _random_observations(rng)
    perm = rng.permutation(len(obs_pose))
    problem, x0, _ = reprojection_problem(points, poses, intr, dist, obs_pose,
                                          obs_point, obs_px, **free)
    permuted, _, _ = reprojection_problem(points, poses, intr, dist, obs_pose[perm],
                                          obs_point[perm], obs_px[perm], **free)
    x = x0 + rng.normal(0.0, 1e-3, x0.shape) * np.maximum(1.0, np.abs(x0))
    rows = problem.residual(x).reshape(-1, 2)[perm]
    assert rows.tobytes() == permuted.residual(x).reshape(-1, 2).tobytes()
    jac, jac_permuted = problem.jacobian(x), permuted.jacobian(x)
    for name in ("kept", "blocks"):
        assert (getattr(jac, name)[perm].tobytes()
                == getattr(jac_permuted, name).tobytes())
    for name in ("kept_cols", "block"):
        assert (getattr(jac.layout, name)[perm].tobytes()
                == getattr(jac_permuted.layout, name).tobytes())


@pytest.mark.parametrize("free, wanted", [
    (dict(free_poses=True), {"pose"}),  # pose refinement
    (dict(free_poses=True, free_points=True), {"pose", "point"}),  # bundle adjustment
    (dict(free_globals=("fx", "k1"), free_poses=True),
     {"pose", "intrinsics", "distortion"}),  # calibration
    (dict(free_globals=("cx",), free_poses=True, free_points=True), set(JACOBIAN_BLOCKS)),
], ids=["pose", "ba", "calibration", "all"])
def test_reprojection_jacobian_forms_only_the_blocks_it_keeps(monkeypatch, free, wanted):
    inputs = _random_observations(np.random.default_rng(1))[:-1]
    problem, x0, _ = reprojection_problem(*inputs, **free)
    asked = []
    kernel = geometry.project_points

    def spy(*args, **kwargs):
        asked.append(args[5])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(geometry, "project_points", spy)
    problem.jacobian(x0)
    problem.residual(x0)
    assert len(asked) == 2 and set(asked[0]) == wanted and not asked[1]


def _layout(intr, dist, poses, points):
    """The globals in :data:`NAMES` order, the (n, 6) axis-angle and
    translation of each pose, and the points, as arrays."""
    return (np.concatenate([[getattr(intr, n) for n in NAMES[:5]], dist.as_array()]),
            np.array([np.concatenate([p.axis_angle(), p.translation]) for p in poses]),
            np.asarray(points))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_unpack_returns_the_inputs_and_keeps_frozen_entries(seed):
    inputs = _random_observations(np.random.default_rng(seed))
    points, poses, intr, dist, obs_pose, *_, free = inputs
    # The entries of a pose that no point is seen under would have no data.
    assume(np.all(np.bincount(obs_pose, minlength=len(poses)) > 0))
    problem, x0, unpack = reprojection_problem(*inputs[:-1], **free)
    expected = _layout(intr, dist, poses, points)
    start = _layout(*unpack(x0))
    assert start[0].tobytes() == expected[0].tobytes()
    assert start[1][:, 3:].tobytes() == expected[1][:, 3:].tobytes()
    # Axis-angle to matrix and back is exact only to rounding.
    assert np.max(np.abs(start[1][:, :3] - expected[1][:, :3])) < 1e-15
    assert start[2].tobytes() == expected[2].tobytes()

    report = levenberg_marquardt(problem, x0, LmConfig(max_iters=3))
    solved = _layout(*unpack(report.params))
    frozen = (~np.isin(NAMES, free["free_globals"]),
              ~np.broadcast_to(free["free_poses"], expected[1].shape),
              ~np.broadcast_to(free["free_points"], expected[2].shape))
    # A pose with a free rotation entry is rebuilt from its axis-angle, whose
    # frozen entries come back only to rounding; see the axis-angle check.
    rebuilt = np.zeros_like(frozen[1])
    rebuilt[:, :3] = ~frozen[1][:, :3].all(axis=1, keepdims=True)
    exact = (frozen[0], frozen[1] & ~rebuilt, frozen[2])
    for got, want, mask in zip(solved, expected, exact):
        assert got[mask].tobytes() == want[mask].tobytes()
    assert np.max(np.abs(solved[1] - expected[1])[frozen[1] & rebuilt],
                  initial=0.0) < 1e-15


def test_reprojection_problem_rejects_unknown_names_and_bad_masks():
    points, poses, intr, dist, obs_pose, obs_point, obs_px, _ = \
        _random_observations(np.random.default_rng(0))
    args = (points, poses, intr, dist, obs_pose, obs_point, obs_px)
    with pytest.raises(ValueError, match="k4"):
        reprojection_problem(*args, free_globals=("fx", "k4"))
    for bad in (dict(free_poses=np.ones(5, dtype=bool)),
                dict(free_points=np.ones((len(points) + 1, 3), dtype=bool))):
        with pytest.raises(ValueError, match="broadcast"):
            reprojection_problem(*args, **bad)


def test_pixel_to_normalized_principal_point(ref_intrinsics):
    n = pixel_to_normalized(np.array([REF_CX, REF_CY]), ref_intrinsics)
    assert n == pytest.approx([0.0, 0.0], abs=0)


def test_pixel_to_normalized_inverts_projection(ref_intrinsics):
    n = pixel_to_normalized(np.array([416.30068, 259.5099]), ref_intrinsics)
    assert n == pytest.approx([0.1, 0.0], abs=1e-9)


def test_pixel_to_normalized_with_skew():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, skew=10.0)
    n = pixel_to_normalized(np.array([10.0, 100.0]), k)
    assert n == pytest.approx([0.0, 1.0], abs=1e-12)


def test_intrinsic_map_roundtrip_thousand_points():
    rng = np.random.default_rng(7)
    k = CameraIntrinsics(fx=812.3, fy=799.1, cx=301.0, cy=255.5, skew=2.5)
    px = rng.uniform(-200, 900, size=(1000, 2))
    back = normalized_to_pixel(pixel_to_normalized(px, k), k)
    assert np.max(np.abs(back - px)) < 1e-12


def test_distortion_fixed_point_at_origin(ref_distortion):
    assert distort_normalized(np.zeros(2), ref_distortion) == pytest.approx([0, 0], abs=0)


def test_distortion_radial_value(ref_distortion):
    out = distort_normalized(np.array([0.2, 0.0]), ref_distortion)
    assert out == pytest.approx([0.200020544, 0.0], abs=1e-12)


def test_zero_distortion_is_identity():
    pts = np.array([[0.3, 0.4], [-0.1, 0.7]])
    out = distort_normalized(pts, DistortionCoeffs())
    assert np.array_equal(out, pts)
    out = undistort_normalized(pts, DistortionCoeffs())
    assert np.array_equal(out, pts)


def test_undistort_inverts_reference_distortion(ref_distortion):
    n = undistort_normalized(np.array([0.200020544, 0.0]), ref_distortion)
    assert n == pytest.approx([0.2, 0.0], abs=1e-9)


def test_distort_undistort_roundtrip_thousand_points(ref_distortion):
    rng = np.random.default_rng(11)
    r = 0.5 * np.sqrt(rng.uniform(0, 1, 1000))
    theta = rng.uniform(0, 2 * np.pi, 1000)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    back = undistort_normalized(distort_normalized(pts, ref_distortion), ref_distortion)
    assert np.max(np.hypot(*(back - pts).T)) < 1e-10
    # and the other direction: undistorting first, then re-distorting
    again = distort_normalized(undistort_normalized(pts, ref_distortion), ref_distortion)
    assert np.max(np.hypot(*(again - pts).T)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-0.5, 0.5), y=st.floats(-0.5, 0.5),
       p1=st.floats(-0.01, 0.01), p2=st.floats(-0.01, 0.01))
def test_roundtrip_with_tangential_terms(x, y, p1, p2):
    d = DistortionCoeffs(k1=0.02, k2=-0.1, p1=p1, p2=p2)
    pt = np.array([x, y])
    back = undistort_normalized(distort_normalized(pt, d), d)
    assert np.linalg.norm(back - pt) < 1e-10


@pytest.mark.parametrize("dist", [DistortionCoeffs(),
                                  DistortionCoeffs(k1=0.1, k2=-0.2, k3=0.01,
                                                   p1=1e-3, p2=-1e-3)])
def test_empty_batch_maps_to_empty_batch(ref_intrinsics, dist):
    normalized = pixel_to_normalized(np.empty((0, 2)), ref_intrinsics)
    assert normalized.shape == (0, 2)
    undistorted = undistort_normalized(normalized, dist)
    assert undistorted.shape == (0, 2)
    assert undistorted.dtype == np.float64


# Oracle: distort_normalized with the lens terms written out in place, kept
# verbatim from before the terms had one helper. Only the association of the
# tangential shift differs: x * radial + a + b against x * radial + (a + b).

def _oracle_distort(pts, dist):
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    radial = 1.0 + r2 * (dist.k1 + r2 * (dist.k2 + r2 * dist.k3))
    xd = x * radial + 2.0 * dist.p1 * x * y + dist.p2 * (r2 + 2.0 * x * x)
    yd = y * radial + dist.p1 * (r2 + 2.0 * y * y) + 2.0 * dist.p2 * x * y
    return np.column_stack([xd, yd])


@pytest.mark.parametrize("tangential", [False, True])
def test_distortion_matches_the_written_out_formula(tangential):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.6, 0.6, (20000, 2))
    for _ in range(10):
        p1, p2 = rng.uniform(-0.01, 0.01, 2) if tangential else (0.0, 0.0)
        dist = DistortionCoeffs(*rng.uniform(-0.3, 0.3, 3), p1, p2)
        out, expected = distort_normalized(pts, dist), _oracle_distort(pts, dist)
        if tangential:
            moved = np.linalg.norm(out - expected, axis=1)
            assert np.all(moved <= 1e-14 * np.linalg.norm(expected, axis=1))
        else:
            assert out.tobytes() == expected.tobytes()


def test_single_point_matches_one_row_batch():
    rng = np.random.default_rng(8)
    k = CameraIntrinsics(fx=800.0, fy=810.0, cx=320.0, cy=240.0, skew=0.5)
    dist = DistortionCoeffs(k1=0.02, k2=-0.18, k3=0.01, p1=1e-3, p2=-2e-3)
    for _ in range(300):
        pose = CameraPose.from_axis_angle(rng.normal(0.0, 0.3, 3),
                                          [*rng.normal(0.0, 1.0, 2), 5.0])
        point, xy = rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.5, 0.5, 2)
        calls = [(axis_angle_to_rotation, pose.axis_angle()),
                 (pose.transform, point),
                 (lambda p: project(p, pose, k, dist), point),
                 (lambda p: project(p, pose, k), point),
                 (lambda p: normalized_to_pixel(p, k), xy),
                 (lambda p: pixel_to_normalized(p, k), 300.0 * xy),
                 (lambda p: distort_normalized(p, dist), xy),
                 (lambda p: undistort_normalized(p, dist), xy)]
        for fn, p in calls:
            single, batch = fn(p), fn(p[None])
            assert batch.shape == (1,) + single.shape
            assert single.tobytes() == batch[0].tobytes()


def test_depths_and_the_solver_kernel_return_batches(ref_intrinsics, ref_distortion):
    point = np.array([0.1, -0.2, 3.0])
    assert camera_depths(point, CameraPose.identity()).shape == (1,)
    assert _project_one(point, np.zeros(3), np.zeros(3), ref_intrinsics,
                        ref_distortion).shape == (1, 2)


@pytest.mark.parametrize("shape", [(), (3,), (4, 3), (1, 1, 2)])
def test_point_functions_reject_other_shapes(ref_intrinsics, shape):
    with pytest.raises(ValueError, match="dimension 2"):
        normalized_to_pixel(np.zeros(shape), ref_intrinsics)


def test_undistort_no_convergence_for_extreme_coefficients():
    with pytest.raises(NoConvergence):
        undistort_normalized(np.array([0.9, 0.0]), DistortionCoeffs(k1=-3.0))


def test_axis_angle_zero_gives_identity():
    assert np.allclose(axis_angle_to_rotation(np.zeros(3)), np.eye(3), atol=0)


def test_axis_angle_quarter_turn_about_z():
    rot = axis_angle_to_rotation([0.0, 0.0, np.pi / 2])
    assert rot @ np.array([1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(ax=st.floats(-1, 1), ay=st.floats(-1, 1), az=st.floats(-1, 1),
       angle=st.floats(1e-6, np.pi - 1e-6))
def test_axis_angle_roundtrip(ax, ay, az, angle):
    axis = np.array([ax, ay, az])
    norm = np.linalg.norm(axis)
    if norm < 1e-3:
        axis = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    rvec = axis / norm * angle
    rot = axis_angle_to_rotation(rvec)
    assert abs(np.linalg.det(rot) - 1.0) < 1e-9
    back = rotation_to_axis_angle(rot)
    assert np.max(np.abs(back - rvec)) < 1e-10


def test_axis_angle_near_pi_roundtrip():
    rvec = np.array([0.0, 0.0, np.pi - 1e-9])
    back = rotation_to_axis_angle(axis_angle_to_rotation(rvec))
    assert np.linalg.norm(back - rvec) < 1e-7
    assert np.linalg.norm(back) <= np.pi


# Reference: the log map camkit used before it inverted Rodrigues' formula,
# kept verbatim. It goes through a unit quaternion extracted with the
# largest-pivot rule, which stays accurate for every angle.

def _quaternion_axis_angle(r):
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    # Row c holds 4 q_c q; its diagonal entry 4 q_c^2 gives s = 4 |q_c|.
    rows = np.array([
        [1.0 + tr, r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]],
        [r[2, 1] - r[1, 2], 1.0 + r[0, 0] - r[1, 1] - r[2, 2],
         r[0, 1] + r[1, 0], r[0, 2] + r[2, 0]],
        [r[0, 2] - r[2, 0], r[0, 1] + r[1, 0],
         1.0 + r[1, 1] - r[0, 0] - r[2, 2], r[1, 2] + r[2, 1]],
        [r[1, 0] - r[0, 1], r[0, 2] + r[2, 0], r[1, 2] + r[2, 1],
         1.0 + r[2, 2] - r[0, 0] - r[1, 1]],
    ])
    c = int(np.argmax((tr, r[0, 0], r[1, 1], r[2, 2])))
    s = 2.0 * np.sqrt(rows[c, c])
    q = rows[c] / s
    q[c] = 0.25 * s
    if q[0] < 0:
        q = -q

    vec = q[1:]
    vec_norm = np.linalg.norm(vec)
    if vec_norm < 1e-12:
        return 2.0 * vec  # theta -> 0 limit of (theta / sin(theta/2)) * vec
    theta = 2.0 * np.arctan2(vec_norm, q[0])
    return (theta / vec_norm) * vec


_AXES = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda axis: np.linalg.norm(axis) > 1e-3)


def _near(angle):
    return st.floats(max(angle - 1e-12, 0.0), min(angle + 1e-12, np.pi))


@settings(max_examples=300, deadline=None)
@given(axis=_AXES, angle=st.one_of(st.floats(0.0, np.pi), _near(0.0), _near(np.pi),
                                   _near(2 * np.pi / 3)))
def test_rotation_to_axis_angle_matches_quaternion_extraction(axis, angle):
    # 2 pi / 3 is where the axis switches from the antisymmetric to the
    # symmetric part of R. At exactly pi the axis's sign is free.
    rot = axis_angle_to_rotation(angle * np.array(axis) / np.linalg.norm(axis))
    got, want = rotation_to_axis_angle(rot), _quaternion_axis_angle(rot)
    err = np.max(np.abs(got - want))
    if angle == np.pi:
        err = min(err, np.max(np.abs(got + want)))
    assert err < 4e-15


@settings(max_examples=100, deadline=None)
@given(axis=_AXES, angle=st.one_of(st.floats(0.0, np.pi), _near(0.0), _near(1e-2),
                                   _near(np.pi)))
def test_left_jacobian_matches_central_differences(axis, angle):
    # R(r + d) R(r)^T ~ R(J_l d) ~ I + [J_l d]x, so column i of J_l is the
    # axis of the skew matrix d/d(d_i) R(r + d) R(r)^T at d = 0.
    r = angle * np.array(axis) / np.linalg.norm(axis)
    rot, left_jacobian = _rodrigues(r)
    eps = 1e-6
    for i, step in enumerate(np.eye(3) * eps):
        skew = (_rodrigues(r + step)[0] - _rodrigues(r - step)[0]) @ rot.T / (2 * eps)
        column = 0.5 * np.array([skew[2, 1] - skew[1, 2], skew[0, 2] - skew[2, 0],
                                 skew[1, 0] - skew[0, 1]])
        assert np.max(np.abs(column - left_jacobian[:, i])) < 1e-8


def test_rotation_to_axis_angle_rejects_garbage():
    with pytest.raises(InvalidRotation):
        rotation_to_axis_angle(np.eye(3) * 1.01)


def test_camera_pose_validates_rotation():
    with pytest.raises(InvalidRotation):
        CameraPose(np.eye(3) + 1e-6, np.zeros(3))


@pytest.mark.parametrize("rotation", [np.full((3, 3), np.nan),
                                      np.diag([1.0, np.nan, 1.0])],
                         ids=["all-nan", "one-nan"])
def test_nan_rotation_is_rejected(rotation):
    with pytest.raises(InvalidRotation):
        CameraPose(rotation, np.zeros(3))
    with pytest.raises(InvalidRotation):
        rotation_to_axis_angle(rotation)


@pytest.mark.parametrize("translation", [[np.nan, 0.0, 600.0],
                                         [0.0, np.inf, 600.0]],
                         ids=["nan", "inf"])
def test_camera_pose_rejects_non_finite_translation(translation):
    with pytest.raises(ValueError, match="finite"):
        CameraPose(np.eye(3), translation)


def test_pose_composition_matches_sequential_projection(ref_intrinsics, ref_distortion):
    rng = np.random.default_rng(3)
    errs = []
    for _ in range(20):
        p1 = CameraPose(axis_angle_to_rotation(rng.normal(0, 0.4, 3)),
                        rng.normal(0, 10, 3))
        p2 = CameraPose(axis_angle_to_rotation(rng.normal(0, 0.4, 3)),
                        rng.normal(0, 10, 3) + [0, 0, 600])
        pts = rng.uniform(-50, 50, (10, 3))
        composed = p2.compose(p1)
        direct = project(pts, composed, ref_intrinsics, ref_distortion)
        chained = project(p1.transform(pts), p2, ref_intrinsics, ref_distortion)
        errs.append(np.max(np.abs(direct - chained)))
    assert max(errs) < 1e-10


def test_pose_inverse_roundtrip():
    pose = CameraPose.from_axis_angle([0.2, -0.3, 0.9], [4.0, 5.0, 6.0])
    both = pose.compose(pose.inverse())
    assert np.allclose(both.rotation, np.eye(3), atol=1e-15)
    assert np.allclose(both.translation, 0.0, atol=1e-13)
    assert pose.inverse().translation == pytest.approx(pose.center.tolist())
