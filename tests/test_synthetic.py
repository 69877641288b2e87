import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from camkit import CameraIntrinsics, CameraPose, DistortionCoeffs, axis_angle_to_rotation
from camkit.geometry import subpixel_ray_grid
from camkit.sfm import SfmScene
from camkit.synthetic import (
    _UNDECIDED,
    CUBE_SUPERSAMPLE,
    CubeScene,
    cloud_error,
    cube_ray_points,
    pose_error,
    render_cube_view,
    sample_ring_poses,
)
from camkit.tracks import Track
from conftest import padded_grid_rays


def _oracle_slab_hits(scene, origins, dirs):
    """Slab test with NaN-skipping reductions: a ray parallel to a slab whose
    origin lies on one of its planes gives 0 * inf = NaN there, which
    nanmax/nanmin ignore. A ray that starts inside hits where it leaves."""
    half = scene.edge / 2.0
    with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN rows
        inv = 1.0 / dirs
        t_lo = (-half - origins) * inv
        t_hi = (half - origins) * inv
        t_near = np.nanmax(np.minimum(t_lo, t_hi), axis=1)
        t_far = np.nanmin(np.maximum(t_lo, t_hi), axis=1)
        t = np.where(t_near > 1e-9, t_near, t_far)
        pts = origins + dirs * t[:, None]
    return pts, (t_near < t_far) & (t > 1e-9)


def _random_rays(scene, rng, n=4000):
    half = scene.edge / 2.0
    dirs = rng.normal(size=(n, 3))
    dirs[rng.random(dirs.shape) < 0.3] = 0.0
    origins = rng.uniform(-3 * half, 3 * half, size=dirs.shape)
    on_plane = rng.random(dirs.shape) < 0.3
    origins[on_plane] = rng.choice([-half, half], size=on_plane.sum())
    return origins, dirs


def _axis_aligned_rays(scene):
    """A camera looking straight down -z from above the x = +half face plane,
    its rays on a grid whose middle row and column have exact zeros."""
    pose = CameraPose(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
    center = np.array([scene.edge / 2.0, 0.0, 3.0 * scene.edge])
    grid = np.arange(-20, 21) / 20.0
    xs, ys = np.meshgrid(grid, grid)
    dirs_cam = np.column_stack([xs.ravel(), ys.ravel(), np.ones(xs.size)])
    dirs = dirs_cam @ pose.rotation
    return np.broadcast_to(center, dirs.shape), dirs


@pytest.mark.parametrize("rays", ["random", "axis-aligned"])
def test_slab_test_matches_nan_skipping_oracle(rays):
    scene = CubeScene(edge=200.0)
    if rays == "random":
        origins, dirs = _random_rays(scene, np.random.default_rng(3))
    else:
        origins, dirs = _axis_aligned_rays(scene)
    expected_pts, expected_hit = _oracle_slab_hits(scene, origins, dirs)
    with np.errstate(invalid="ignore"):
        pts, _, hit = scene.intersect(origins, dirs)
        zero_times_inf = (dirs == 0) & (np.abs(origins) == scene.edge / 2.0)
    assert np.array_equal(hit, expected_hit)
    assert np.array_equal(pts, expected_pts, equal_nan=True)
    # The cases exercise the NaN entries, on rays that hit and rays that miss.
    assert (zero_times_inf.any(axis=1) & hit).any()
    assert (zero_times_inf.any(axis=1) & ~hit).any()


# Oracle: the cube texture's own bilinear interpolation, kept verbatim from
# before CubeScene._noise went through imageops.bilinear_sample.

def _oracle_noise(grid, s, t):
    n = grid.shape[0] - 1
    gs = np.clip(s * n, 0, n - 1e-9)
    gt = np.clip(t * n, 0, n - 1e-9)
    i0 = gs.astype(np.int64)
    j0 = gt.astype(np.int64)
    fs = gs - i0
    ft = gt - j0
    return (grid[i0, j0] * (1 - fs) * (1 - ft)
            + grid[i0 + 1, j0] * fs * (1 - ft)
            + grid[i0, j0 + 1] * (1 - fs) * ft
            + grid[i0 + 1, j0 + 1] * fs * ft)


@pytest.mark.parametrize("octave", ["_coarse", "_mid", "_fine"])
def test_texture_noise_matches_the_written_out_interpolation(octave):
    scene = CubeScene()
    rng = np.random.default_rng(12)
    random = rng.uniform(0.0, 1.0, (2, 5000))
    corners = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    for grid in getattr(scene, octave):
        for s, t in (random, corners):
            assert scene._noise(grid, s, t).tobytes() == _oracle_noise(grid, s, t).tobytes()


@pytest.mark.parametrize("edge", [0.0, -1.0, np.inf, np.nan])
def test_cube_edge_must_be_finite_and_positive(edge):
    with pytest.raises(ValueError, match="edge"):
        CubeScene(edge=edge)


# Oracle: the cube renderer before it decided tiles, kept verbatim with its
# blocks of 2^15 rays: the slab test and the texture on every ray, in blocks
# of whole sub-pixel rows, and the row-block mean.

def _oracle_render_cube_view(scene, intrinsics, dist, pose, width, height):
    xy = padded_grid_rays(
        subpixel_ray_grid(intrinsics, dist, width, height, CUBE_SUPERSAMPLE))
    rot, origin = pose.rotation, pose.center
    ss = CUBE_SUPERSAMPLE
    xy = xy[:height * ss, :width * ss].reshape(-1, 2)
    rays = np.column_stack([xy, np.ones(len(xy))])
    rays_per_row = ss * width * ss
    rows_per_block = max(1, 2 ** 15 // rays_per_row)
    image = np.empty((height, width), dtype=np.uint8)
    for row0 in range(0, height, rows_per_block):
        row1 = min(row0 + rows_per_block, height)
        dirs = rays[row0 * rays_per_row:row1 * rays_per_row] @ rot
        values = scene.shade(np.broadcast_to(origin, dirs.shape), dirs)
        block = values.reshape(row1 - row0, ss, width, ss).mean(axis=(1, 3))
        image[row0:row1] = np.clip(np.rint(block * 255.0), 0, 255)
    return image


def _look_at(center, target):
    """The camera at ``center`` with its optical axis through ``target`` and
    the world z axis pointing up in the image."""
    forward = (target - center) / np.linalg.norm(target - center)
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    rot = np.stack([right, np.cross(forward, right), forward])
    return CameraPose(rot, -rot @ center)


_K = CameraIntrinsics(fx=839.3458, fy=839.5573, cx=332.3661, cy=259.5099)
_README_DIST = DistortionCoeffs(k1=0.0101, k2=-0.1883)


def _tile_cases(scene, dist, pose, width, height):
    grid = subpixel_ray_grid(_K, dist, width, height, CUBE_SUPERSAMPLE)
    return scene.tile_cases(pose, grid)


def _assert_matches_oracle(scene, dist, pose, width=640, height=480, intrinsics=_K):
    image = render_cube_view(scene, intrinsics, dist, pose, width, height)
    expected = _oracle_render_cube_view(scene, intrinsics, dist, pose, width, height)
    assert image.shape == (height, width)
    assert image.tobytes() == expected.tobytes()


# Each pair of texture seed, ring start and lens occurs once.
@pytest.mark.parametrize("texture_seed, start_deg, dist", [
    (7, 21.0, DistortionCoeffs()), (7, 201.0, _README_DIST),
    (11, 21.0, _README_DIST), (11, 201.0, DistortionCoeffs())],
    ids=["7-21-flat", "7-201-readme", "11-21-readme", "11-201-flat"])
@pytest.mark.parametrize("view", [0, 3])
def test_cube_render_matches_per_ray_oracle_on_rings(texture_seed, start_deg, dist, view):
    # The ring views decide every kind of tile: background, one face each
    # of the front faces, and tiles the slab test shades ray by ray.
    scene = CubeScene(edge=200.0, texture_seed=texture_seed)
    pose = sample_ring_poses(5, radius=450.0, elevation_deg=30.0, sweep_deg=48.0,
                             start_deg=start_deg)[view]
    cases = set(np.unique(_tile_cases(scene, dist, pose, 640, 480)).tolist())
    assert {-1, _UNDECIDED} < cases and len(cases) == 5
    _assert_matches_oracle(scene, dist, pose)


@pytest.mark.parametrize("center, target", [([130.0, 0.0, 20.0], [0.0, 200.0, 0.0]),
                                            ([30.0, -20.0, 40.0], [100.0, 0.0, 0.0])],
                         ids=["vertex-behind", "inside"])
def test_cube_render_leaves_every_tile_undecided_for_near_cameras(center, target):
    # A vertex behind the camera, or the camera inside the cube: the faces'
    # quadrilaterals say nothing, and the slab test shades every ray.
    scene = CubeScene(edge=200.0, texture_seed=7)
    pose = _look_at(np.array(center), np.array(target))
    corners = np.array([[x, y, z] for x in (-100, 100) for y in (-100, 100)
                        for z in (-100, 100)])
    assert np.min(corners @ pose.rotation[2] + pose.translation[2]) <= 0
    assert np.all(_tile_cases(scene, _README_DIST, pose, 640, 480) == _UNDECIDED)
    _assert_matches_oracle(scene, _README_DIST, pose)


def test_camera_inside_the_cube_sees_the_far_faces():
    # From the centre every ray leaves through a face, and the optical axis,
    # along +z, leaves through the z = +100 face.
    scene = CubeScene(edge=200.0, texture_seed=7)
    pose = CameraPose(np.eye(3), np.zeros(3))
    small = CameraIntrinsics(fx=_K.fx / 10, fy=_K.fy / 10, cx=_K.cx / 10, cy=_K.cy / 10)
    image = render_cube_view(scene, small, DistortionCoeffs(), pose, 64, 48)
    assert len(np.unique(image)) > 1
    pts, hit = cube_ray_points(scene, pose, np.array([[small.cx, small.cy]]), small,
                               DistortionCoeffs())
    assert hit.tolist() == [True]
    assert pts.tolist() == [[0.0, 0.0, 100.0]]


@pytest.mark.parametrize("width, height", [(640, 480), (642, 478)])
def test_cube_render_matches_per_ray_oracle_at_the_frame_edge(width, height):
    # Aimed beside the cube so that the frame cuts it; 642 x 478 leaves
    # partial tiles at the right and bottom edges.
    scene = CubeScene(edge=200.0, texture_seed=11)
    pose = _look_at(np.array([380.0, -260.0, 240.0]), np.array([0.0, 130.0, 60.0]))
    cases = _tile_cases(scene, _README_DIST, pose, width, height)
    edges = np.concatenate([cases[0], cases[-1], cases[:, 0], cases[:, -1]])
    assert np.any((edges >= 0) & (edges < _UNDECIDED))
    _assert_matches_oracle(scene, _README_DIST, pose, width, height)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cube_render_matches_per_ray_oracle_on_drawn_views(data):
    # Cameras from inside the cube to 100 edges away, aimed at or beside it,
    # through either lens, at image sizes 4 does and does not divide.
    edge = data.draw(st.sampled_from([1.0, 200.0]))
    unit = st.floats(-1.0, 1.0)
    direction = np.array([data.draw(unit) for _ in range(3)])
    assume(np.linalg.norm(direction) > 0.1)
    center = direction / np.linalg.norm(direction) * edge * data.draw(st.floats(0.3, 100.0))
    forward = edge * 1.5 * np.array([data.draw(unit) for _ in range(3)]) - center
    assume(abs(forward[2]) < 0.99 * np.linalg.norm(forward))
    width, height = data.draw(st.sampled_from([(64, 48), (97, 83)]))
    scale = width / 640.0
    intrinsics = CameraIntrinsics(fx=_K.fx * scale, fy=_K.fy * scale,
                                  cx=_K.cx * scale, cy=_K.cy * scale)
    scene = CubeScene(edge=edge, texture_seed=data.draw(st.integers(0, 99)))
    dist = data.draw(st.sampled_from([DistortionCoeffs(), _README_DIST]))
    _assert_matches_oracle(scene, dist, _look_at(center, center + forward), width, height,
                           intrinsics)


# --- the ground-truth scorer on hand-built input ------------------------------

def test_cloud_error_of_a_known_similarity_of_the_truth_is_zero():
    # One track per pixel of a coarse grid in each of two ring views, its
    # point the truth under a known similarity; rays that miss the cube
    # and invalid tracks are left out.
    cube = CubeScene(edge=200.0)
    poses = sample_ring_poses(2, radius=450.0, elevation_deg=30.0, sweep_deg=30.0,
                              start_deg=21.0)
    u, v = np.meshgrid(np.arange(20.0, 640.0, 40.0), np.arange(20.0, 480.0, 40.0))
    pixels = np.column_stack([u.ravel(), v.ravel()])
    rot, scale = axis_angle_to_rotation([0.2, -0.4, 0.1]), 1.7
    shift = np.array([30.0, -20.0, 50.0])
    tracks, hits = [Track(((0, 0),))], []
    for view, pose in enumerate(poses):
        truth, hit = cube_ray_points(cube, pose, pixels, _K, _README_DIST)
        tracks += [Track(((view, i),), (p - shift) @ rot / scale, valid=True)
                   for i, p in enumerate(truth)]
        hits.append(truth[hit])
    scene = SfmScene(_K, _README_DIST, {}, (0, 1), tracks, {0: pixels, 1: pixels}, {})
    err = cloud_error(scene, cube, poses)
    assert 0 < len(err.truth) < 2 * len(pixels)
    assert np.array_equal(err.truth, np.concatenate(hits))
    assert np.max(np.abs(err.points - err.truth)) < 1e-9
    assert err.rms < 1e-9 and np.max(err.surface_distance) < 1e-9


@pytest.mark.parametrize("point, distance", [
    ([0.0, 0.0, 107.0], 7.0),  # a known offset off a face
    ([-112.0, 50.0, -30.0], 12.0),
    ([100.0, 20.0, -99.0], 0.0),  # on a face
    ([10.0, -20.0, 95.0], 5.0),  # inside: the nearest face
    ([0.0, 0.0, 0.0], 100.0),
    ([103.0, 104.0, 0.0], 5.0),  # beyond an edge: that edge
    ([-101.0, -102.0, 102.0], 3.0),  # beyond a corner: that corner
], ids=["above-face", "beside-face", "on-face", "inside", "centre", "edge", "corner"])
def test_surface_distance_of_hand_placed_points(point, distance):
    got = CubeScene(edge=200.0).surface_distance(np.array([point]))
    assert got == pytest.approx([distance], abs=1e-12)


def test_pose_error_returns_a_known_turn_and_shift():
    truth = CameraPose.from_axis_angle([0.1, -0.2, 0.3], [10.0, 20.0, 600.0])
    axis = np.array([2.0, -1.0, 2.0]) / 3.0
    turned = CameraPose(axis_angle_to_rotation(np.radians(0.3) * axis) @ truth.rotation,
                        truth.translation + 2.0 * np.array([0.6, 0.0, -0.8]))
    err = pose_error(turned, truth)
    assert err.rotation_deg == pytest.approx(0.3, rel=1e-9)
    assert err.translation_mm == pytest.approx(2.0, rel=1e-12)
