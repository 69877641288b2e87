import hashlib

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from camkit import (
    CameraIntrinsics,
    CameraPose,
    CheckerboardSpec,
    DistortionCoeffs,
    axis_angle_to_rotation,
    board_world_points,
    project,
    render_board,
)
from camkit.board import BACKGROUND_GRAY, BLACK, SUPERSAMPLE, WHITE
from camkit.errors import BoardBehindCamera
from camkit.geometry import (
    RENDER_TILE,
    pixel_to_normalized,
    render_tiles,
    subpixel_ray_grid,
    undistort_normalized,
)
from camkit.imageops import bilinear_sample, to_float
from camkit.synthetic import (
    CubeScene,
    frontoparallel_pose,
    render_cube_view,
    sample_ring_poses,
)
from conftest import padded_grid_rays


def test_board_world_points_count(board_spec):
    pts = board_world_points(board_spec)
    assert pts.shape == (54, 3)


def test_board_world_points_origin_and_step(board_spec):
    pts = board_world_points(board_spec)
    assert np.array_equal(pts[0], [0.0, 0.0, 0.0])
    assert np.array_equal(pts[1], [23.0, 0.0, 0.0])  # corner (1, 0)
    assert np.array_equal(pts[board_spec.corners_x], [0.0, 23.0, 0.0])
    assert np.all(pts[:, 2] == 0.0)


@settings(max_examples=30, deadline=None)
@given(size=st.floats(0.5, 100.0))
def test_board_points_scale_linearly(size):
    base = board_world_points(CheckerboardSpec(8, 5, 1.0))
    scaled = board_world_points(CheckerboardSpec(8, 5, size))
    assert np.array_equal(scaled, base * size)
    doubled = board_world_points(CheckerboardSpec(8, 5, 2 * size))
    assert np.array_equal(doubled, 2 * scaled)


def test_spec_validation():
    with pytest.raises(ValueError):
        CheckerboardSpec(7, 7, 23.0)  # equal sides: orientation ambiguous
    with pytest.raises(ValueError):
        CheckerboardSpec(2, 7, 23.0)
    with pytest.raises(ValueError):
        CheckerboardSpec(10, 7, 0.0)


# SHA-256 of the conftest renders, in view order. The corner accuracy and
# SfM acceptance criteria were tuned on exactly these images.
GOLDEN_BOARD_SHA256 = "995f11fda3a4d2cb998d79bac577396bb8ce4146d1410cff5f1bcee087ed3673"
GOLDEN_CUBE_SHA256 = "b946a7cd780fa3ef49fb2b5248e1a090758f08d42b0372975c8957f4bcc3df0b"
# The same cube capture through the README lens, on the ring turned to start
# at 201 degrees; pinned before the cube renderer decided whole tiles.
GOLDEN_DISTORTED_CUBE_SHA256 = "a44bc7a34b362eb66b5995ff543f551908f9a724d38b956e321f032b27d2f38b"


def _sha256(images) -> str:
    return hashlib.sha256(b"".join(image.tobytes() for image in images)).hexdigest()


def test_renders_match_golden_hashes(rendered_views, cube_capture):
    assert _sha256(rendered_views[0]) == GOLDEN_BOARD_SHA256
    assert _sha256(cube_capture[2]) == GOLDEN_CUBE_SHA256


def test_distorted_cube_capture_matches_golden_hash(ref_intrinsics, ref_distortion):
    scene = CubeScene(edge=200.0, texture_seed=7)
    poses = sample_ring_poses(5, radius=450.0, elevation_deg=30.0, sweep_deg=48.0,
                              start_deg=201.0)
    images = [render_cube_view(scene, ref_intrinsics, ref_distortion, p, 640, 480)
              for p in poses]
    assert _sha256(images) == GOLDEN_DISTORTED_CUBE_SHA256


def test_render_is_deterministic(board_spec, ref_intrinsics, ref_distortion):
    # Squares this large reach far enough from the principal point for the
    # lens distortion to change the render.
    pose = frontoparallel_pose(board_spec, ref_intrinsics, 40.0)
    a = render_board(board_spec, ref_intrinsics, ref_distortion, pose, 320, 240)
    # Renders in between with another size and another lens replace the
    # cached rays; neither may be served rays cached for different inputs.
    larger = render_board(board_spec, ref_intrinsics, ref_distortion, pose, 336, 256)
    straight = render_board(board_spec, ref_intrinsics, DistortionCoeffs(),
                            pose, 320, 240)
    b = render_board(board_spec, ref_intrinsics, ref_distortion, pose, 320, 240)
    assert larger.shape == (256, 336)
    assert not np.array_equal(a, straight)
    assert np.array_equal(a, b)

    grid = subpixel_ray_grid(ref_intrinsics, ref_distortion, 320, 240, SUPERSAMPLE)
    assert grid.tile_min.shape == grid.tile_max.shape == (60, 80, 2)
    for array in (grid.tile_min, grid.tile_max):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_render_square_shades(board_spec, ref_intrinsics):
    d = DistortionCoeffs()
    pose = frontoparallel_pose(board_spec, ref_intrinsics, 40.0)
    img = render_board(board_spec, ref_intrinsics, d, pose, 640, 480)
    s = board_spec.square_size
    black_center = project(np.array([s / 2, s / 2, 0.0]), pose, ref_intrinsics, d)
    white_center = project(np.array([3 * s / 2, s / 2, 0.0]), pose, ref_intrinsics, d)
    black = bilinear_sample(to_float(img), *black_center) * 255
    white = bilinear_sample(to_float(img), *white_center) * 255
    assert black < 30
    assert white > 225


def test_distortion_moves_rendered_corners(board_spec, ref_intrinsics,
                                           ref_distortion):
    # The reference radial terms nearly cancel near the image center, so the
    # comparison has to look at board corners that land near the image
    # corners: fill the frame with a close-up fronto-parallel board.
    pose = frontoparallel_pose(board_spec, ref_intrinsics, 75.0)
    corners = board_world_points(board_spec)
    straight = project(corners, pose, ref_intrinsics, DistortionCoeffs())
    bent = project(corners, pose, ref_intrinsics, ref_distortion)
    in_view = ((bent[:, 0] > 8) & (bent[:, 0] < 631)
               & (bent[:, 1] > 8) & (bent[:, 1] < 471))
    displacement = np.where(in_view, np.linalg.norm(straight - bent, axis=1), 0.0)
    assert displacement.max() >= 1.0

    img0 = render_board(board_spec, ref_intrinsics, DistortionCoeffs(),
                        pose, 640, 480)
    img1 = render_board(board_spec, ref_intrinsics, ref_distortion,
                        pose, 640, 480)
    u, v = np.round(bent[np.argmax(displacement)]).astype(int)
    assert not np.array_equal(img0[v - 4:v + 5, u - 4:u + 5],
                              img1[v - 4:v + 5, u - 4:u + 5])


def test_render_raises_when_board_behind(board_spec, ref_intrinsics):
    pose = CameraPose(np.eye(3), np.array([0.0, 0.0, -500.0]))
    with pytest.raises(BoardBehindCamera):
        render_board(board_spec, ref_intrinsics, DistortionCoeffs(), pose, 64, 48)


def _oracle_render_board(spec, intrinsics, dist, pose, width, height):
    """The masked per-ray render: intersect only the rays with a positive
    plane scale, shade those hits, scatter them back, average 4x4 blocks."""
    ss = SUPERSAMPLE
    xy = padded_grid_rays(subpixel_ray_grid(intrinsics, dist, width, height, ss, 1e-8))
    xy = xy[:height * ss, :width * ss].reshape(-1, 2)
    rays = np.column_stack([xy, np.ones(len(xy))])
    normal_cam = pose.rotation[:, 2]
    offset = float(normal_cam @ pose.translation)
    denom = rays @ normal_cam
    safe = np.abs(denom) > 1e-15
    scale = np.full(len(rays), -1.0)
    scale[safe] = offset / denom[safe]
    hit = scale > 1e-12
    pts = (rays[hit] * scale[hit, None] - pose.translation) @ pose.rotation
    x, y = pts[:, 0], pts[:, 1]

    s = spec.square_size
    x0, x1 = -s, (spec.squares_x - 1) * s
    y0, y1 = -s, (spec.squares_y - 1) * s
    hit_shade = np.full(x.shape, float(BACKGROUND_GRAY))
    hit_shade[(x >= x0 - s) & (x <= x1 + s) & (y >= y0 - s) & (y <= y1 + s)] = WHITE
    on_board = (x >= x0) & (x < x1) & (y >= y0) & (y < y1)
    ix = np.floor(x / s).astype(np.int64)
    iy = np.floor(y / s).astype(np.int64)
    hit_shade[on_board & (((ix + iy) & 1) == 0)] = BLACK

    shade = np.full(len(rays), float(BACKGROUND_GRAY))
    shade[hit] = hit_shade
    block = shade.reshape(height, ss, width, ss).mean(axis=(1, 3))
    return np.clip(np.rint(block), 0, 255).astype(np.uint8), ~hit


def _horizon_pose(spec):
    """A camera 10 mm above the board, looking along it 10 degrees down: rays
    above the horizon meet the board behind the camera (scale <= 0), and
    those samples must stay background."""
    rot = axis_angle_to_rotation([np.deg2rad(-80.0), 0.0, 0.0])
    return CameraPose(rot, -rot @ np.array([92.0, 40.0, -10.0]))


def _look_at(center, target, roll):
    """The camera at ``center`` with its optical axis through ``target``,
    turned ``roll`` radians about that axis."""
    forward = (target - center) / np.linalg.norm(target - center)
    helper = [0.0, 0.0, 1.0] if abs(forward[2]) < 0.9 else [1.0, 0.0, 0.0]
    right = np.cross(forward, helper)
    right /= np.linalg.norm(right)
    rot = axis_angle_to_rotation([0.0, 0.0, roll]) @ np.stack(
        [right, np.cross(forward, right), forward])
    return CameraPose(rot, -rot @ center)


def _scaled_intrinsics(intrinsics, width):
    scale = width / 640.0
    return CameraIntrinsics(fx=intrinsics.fx * scale, fy=intrinsics.fy * scale,
                            cx=intrinsics.cx * scale, cy=intrinsics.cy * scale)


_unit = st.floats(0.0, 1.0)


@st.composite
def _oracle_views(draw, case, intrinsics, distortion):
    """Random board views. "front" aims at a point on or beside the board
    from 1.5 to 80 squares away, up to 80 degrees off the board normal, so
    the board may be grazing, partly outside the frame or larger than it;
    "horizon" looks along the board from close above it with the horizon
    inside the frame; "partial-chunk" takes the "front" views at image sizes
    4 does not divide, whose right and bottom tiles are partial and whose
    per-sample tiles can fill more than one chunk."""
    size = draw(st.sampled_from([0.3, 23.0]))
    spec = CheckerboardSpec(10, 7, size)
    width, height = draw(st.sampled_from(
        [(161, 117), (97, 83), (123, 61)] if case == "partial-chunk"
        else [(64, 48), (96, 80)]))
    intrinsics = _scaled_intrinsics(intrinsics, width)
    dist = draw(st.sampled_from([DistortionCoeffs(), distortion]))
    target = size * np.array([draw(st.floats(-3.0, 11.0)),
                              draw(st.floats(-3.0, 8.0)), 0.0])
    roll = 2 * np.pi * draw(_unit)
    if case == "horizon":
        # Optical axis pitched at most 14 degrees from the board plane: the
        # frame reaches about 17 degrees from the axis at every roll.
        height_above = size * draw(st.floats(0.2, 20.0))
        pitch = np.deg2rad(draw(st.floats(-14.0, 14.0)))
        yaw = 2 * np.pi * draw(_unit)
        center = target - size * 30 * np.array([np.cos(yaw), np.sin(yaw), 0.0])
        center[2] = -height_above
        forward = np.array([np.cos(yaw), np.sin(yaw), np.tan(pitch)])
        pose = _look_at(center, center + forward, roll)
    else:
        tilt = np.deg2rad(draw(st.floats(0.0, 80.0)))
        azimuth = 2 * np.pi * draw(_unit)
        away = np.array([np.sin(tilt) * np.cos(azimuth),
                         np.sin(tilt) * np.sin(azimuth), -np.cos(tilt)])
        pose = _look_at(target + size * draw(st.floats(1.5, 80.0)) * away,
                        target, roll)
    return spec, intrinsics, dist, pose, width, height


def _fixed_oracle_view(case, spec, intrinsics, distortion):
    """One hand-picked view per case: the horizon seen through a wide lens,
    and a fronto-parallel board filling a small frame."""
    width, height = (96, 80) if case == "partial-chunk" else (64, 48)
    if case == "horizon":
        return (spec, CameraIntrinsics(fx=30.0, fy=30.0, cx=31.5, cy=23.5),
                DistortionCoeffs(), _horizon_pose(spec), width, height)
    intrinsics = _scaled_intrinsics(intrinsics, width)
    dist = distortion if case == "partial-chunk" else DistortionCoeffs()
    return (spec, intrinsics, dist, frontoparallel_pose(spec, intrinsics, 6.0),
            width, height)


def _assert_matches_oracle(view):
    """Render a view and compare it with the masked per-ray oracle; returns
    the image and the oracle's mask of rays that miss the board plane."""
    image = render_board(*view)
    expected, missed = _oracle_render_board(*view)
    assert np.array_equal(image, expected)
    return image, missed


@pytest.mark.parametrize("case", ["horizon", "partial-chunk", "front"])
def test_render_matches_masked_per_ray_oracle(case, board_spec, ref_intrinsics,
                                              ref_distortion):
    # The renderer decides most 4x4-pixel tiles from their ray bounds; the
    # oracle shades every ray. Each fixed view shows all three shades, and
    # only the horizon view has rays that miss the board plane.
    image, missed = _assert_matches_oracle(
        _fixed_oracle_view(case, board_spec, ref_intrinsics, ref_distortion))
    assert missed.any() == (case == "horizon")
    assert {BLACK, WHITE, BACKGROUND_GRAY} <= set(np.unique(image).tolist())


@pytest.mark.parametrize("case", ["horizon", "partial-chunk", "front"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_render_matches_masked_per_ray_oracle_on_drawn_views(
        case, data, ref_intrinsics, ref_distortion):
    view = data.draw(_oracle_views(case, ref_intrinsics, ref_distortion))
    try:
        _, missed = _assert_matches_oracle(view)
    except BoardBehindCamera:
        reject()
    if case == "horizon":
        assert missed.any()


@pytest.mark.parametrize("width, height", [(160, 120), (161, 117)])
def test_ray_grid_matches_one_shot_undistortion(width, height, ref_intrinsics,
                                               ref_distortion):
    # At 4x4 samples these grids take several blocks of tiles. The README
    # camera sees these sizes in the quadrant above and left of its principal
    # point; scaled to the width, it sees all four.
    ss = SUPERSAMPLE
    for intrinsics in (ref_intrinsics, _scaled_intrinsics(ref_intrinsics, width)):
        subpixel_ray_grid.cache_clear()
        grid = subpixel_ray_grid(intrinsics, ref_distortion, width, height, ss)
        sub = (np.arange(ss) + 0.5) / ss - 0.5
        u = (np.arange(width)[:, None] + sub).ravel()
        v = (np.arange(height)[:, None] + sub).ravel()
        uu, vv = np.meshgrid(u, v)
        xy = undistort_normalized(pixel_to_normalized(
            np.column_stack([uu.ravel(), vv.ravel()]), intrinsics), ref_distortion)

        # The one-shot rays, padded by edge replication to whole tiles.
        side = RENDER_TILE * ss
        n_ty, n_tx = -(-height // RENDER_TILE), -(-width // RENDER_TILE)
        padded = np.pad(xy.reshape(v.size, u.size, 2),
                        ((0, n_ty * side - v.size), (0, n_tx * side - u.size), (0, 0)),
                        mode="edge")
        # The fresh grid's tiles, asked in a scrambled order with repeats,
        # then some of them again with others; then all of them, 16 bytes, an
        # (x, y) pair, per sample; and the tile bounds, reduced from the
        # padded rays.
        tiles = padded.reshape(n_ty, side, n_tx, side, 2).transpose(0, 2, 1, 3, 4)
        tiles = tiles.reshape(n_ty * n_tx, side, side, 2)
        rng = np.random.default_rng(5)
        for size in (7, 300):
            asked = rng.integers(0, n_ty * n_tx, size)
            assert np.array_equal(grid.rays(asked), tiles[asked])
        rays = padded_grid_rays(grid)
        assert np.array_equal(rays, padded)
        assert rays.nbytes == 16 * (n_ty * side) * (n_tx * side)
        padded = padded.reshape(n_ty, side, n_tx, side, 2)
        assert np.array_equal(grid.tile_min, padded.min(axis=(1, 3)))
        assert np.array_equal(grid.tile_max, padded.max(axis=(1, 3)))


def test_grid_keeps_the_rays_of_the_tiles_renders_shaded(
        board_spec, ref_intrinsics, ref_distortion, monkeypatch):
    # Two README-lens views at 160x120: the grid keeps exactly the tiles
    # either render left undecided, and rendering a view again keeps no more.
    cases = []

    def recording_render_tiles(grid, shades, tile_cases, *rest):
        cases.append(tile_cases)
        return render_tiles(grid, shades, tile_cases, *rest)

    monkeypatch.setattr("camkit.board.render_tiles", recording_render_tiles)
    subpixel_ray_grid.cache_clear()
    intrinsics = _scaled_intrinsics(ref_intrinsics, 160)
    views = [frontoparallel_pose(board_spec, intrinsics, 12.0),
             _look_at(np.array([40.0, -60.0, -160.0]), np.array([100.0, 60.0, 0.0]), 0.4)]
    images = [render_board(board_spec, intrinsics, ref_distortion, pose, 160, 120)
              for pose in views]
    grid = subpixel_ray_grid(intrinsics, ref_distortion, 160, 120, SUPERSAMPLE, 1e-8)
    shaded = [set(np.flatnonzero(c >= 0).tolist()) for c in cases]
    assert shaded[0] and shaded[1] and shaded[0] != shaded[1]
    kept = set(np.flatnonzero(grid._slot >= 0).tolist())
    assert kept == shaded[0] | shaded[1]
    assert grid._kept == len(kept)

    again = render_board(board_spec, intrinsics, ref_distortion, views[0], 160, 120)
    assert np.array_equal(again, images[0])
    assert set(np.flatnonzero(grid._slot >= 0).tolist()) == kept
    assert grid._kept == len(kept)
