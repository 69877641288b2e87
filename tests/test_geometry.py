import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camkit import (
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    axis_angle_to_rotation,
    distort_normalized,
    normalized_to_pixel,
    pixel_to_normalized,
    project,
    rotation_to_axis_angle,
    undistort_normalized,
)
from camkit.errors import InvalidRotation, NoConvergence, NonPositiveDepth
from camkit.geometry import project_points
from camkit.optimize import LeastSquaresProblem, numeric_jacobian

from conftest import REF_CX, REF_CY


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

    _, d_pose, d_point, d_intr, d_dist = project_points(world, rvec, t, intr, dist,
                                                        jacobians=True)
    blocks = [
        (d_pose, _central_differences(
            lambda p: project_points(world, p[:3], p[3:], intr, dist),
            np.concatenate([rvec, t]))),
        (d_intr, _central_differences(
            lambda p: project_points(world, rvec, t, CameraIntrinsics(*p), dist), k)),
        (d_dist, _central_differences(
            lambda p: project_points(world, rvec, t, intr, DistortionCoeffs(*p)), d)),
    ]
    for i, point in enumerate(world):
        blocks.append((d_point[i:i + 1], _central_differences(
            lambda p: project_points(p, rvec, t, intr, dist), point)))
    for analytic, numeric in blocks:
        assert _relative_error(analytic.reshape(numeric.shape), numeric) < 1e-5


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


def test_rotation_to_axis_angle_rejects_garbage():
    with pytest.raises(InvalidRotation):
        rotation_to_axis_angle(np.eye(3) * 1.01)


def test_camera_pose_validates_rotation():
    with pytest.raises(InvalidRotation):
        CameraPose(np.eye(3) + 1e-6, np.zeros(3))


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
