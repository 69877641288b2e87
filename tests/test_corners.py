import contextlib

import numpy as np
import pytest
from scipy import ndimage

from camkit import (
    CheckerboardSpec,
    DistortionCoeffs,
    board_world_points,
    detect_corners,
    estimate_homography,
    apply_homography,
    project,
    render_board,
)
from camkit.corners import (
    _RELATIVE_THRESHOLD,
    _local_maxima,
    _orient_grid,
    _x_junction_mask,
    corner_response,
)
from camkit.errors import AmbiguousGrid, BoardNotFound, CountMismatch
from camkit.imageops import bilinear_sample, to_float
from camkit.synthetic import frontoparallel_pose, sample_board_poses

from conftest import IMAGE_HEIGHT, IMAGE_WIDTH
from test_imageops import _oracle_peak_offset


def test_detects_all_corners_accurately(board_spec, rendered_views):
    images, truths = rendered_views
    for image, truth in zip(images, truths):
        grid = detect_corners(image, board_spec)
        assert len(grid) == board_spec.corner_count
        errs = np.linalg.norm(grid.corners - truth, axis=1)
        assert errs.mean() < 0.1
        assert errs.max() < 0.5


def test_ordering_consistent_with_homography(board_spec, ref_intrinsics):
    # On undistorted renders the board-to-image map is an exact homography,
    # so a correct corner ordering fits one with sub-pixel residuals.
    world_xy = board_world_points(board_spec)[:, :2]
    rng = np.random.default_rng(9)
    poses = sample_board_poses(board_spec, ref_intrinsics, DistortionCoeffs(),
                               IMAGE_WIDTH, IMAGE_HEIGHT, 3, rng)
    for pose in poses:
        img = render_board(board_spec, ref_intrinsics, DistortionCoeffs(),
                           pose, IMAGE_WIDTH, IMAGE_HEIGHT)
        grid = detect_corners(img, board_spec)
        h = estimate_homography(world_xy, grid.corners)
        residual = np.linalg.norm(
            apply_homography(h, world_xy) - grid.corners, axis=1)
        assert residual.max() < 1.0


def test_uniform_image_has_no_board(board_spec):
    for value in (0, 128, 255):
        with pytest.raises(BoardNotFound):
            detect_corners(np.full((240, 320), value, dtype=np.uint8), board_spec)


def _detection_outcome(image, spec):
    try:
        return detect_corners(image, spec).corners.tobytes()
    except (BoardNotFound, AmbiguousGrid, CountMismatch) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_detection_matches_full_frame_oracle(board_spec, rendered_views,
                                             ref_intrinsics, monkeypatch):
    # The README views; head-on boards whose grown structure box the frame
    # clips; blurred, noisy views, whose box is the whole frame; and small
    # marks whose response peaks lie outside their structure box.
    images = list(rendered_views[0])
    images += [render_board(board_spec, ref_intrinsics, DistortionCoeffs(),
                            frontoparallel_pose(board_spec, ref_intrinsics, s),
                            IMAGE_WIDTH, IMAGE_HEIGHT)
               for s in (40.0, 50.0, 60.0, 70.0)]
    rng = np.random.default_rng(5)
    for i, sigma in enumerate((0.7, 1.2, 2.0, 3.0)):
        blurred = ndimage.gaussian_filter(images[i].astype(np.float64), sigma)
        noisy = blurred + rng.normal(0.0, 5.0, blurred.shape)
        images.append(np.clip(np.rint(noisy), 0, 255).astype(np.uint8))
    x_mark = np.full((60, 60), 200, dtype=np.uint8)
    x_mark[28:30, 28:30] = x_mark[30:32, 30:32] = 20
    speck = np.full((60, 60), 128, dtype=np.uint8)
    speck[25:35, 25:35] = rng.integers(0, 256, (10, 10))
    images += [x_mark, speck]
    cropped = [_detection_outcome(image, board_spec) for image in images]
    # The oracle works on the full frame: the structure box bypassed.
    monkeypatch.setattr("camkit.corners.structure_box",
                        lambda image, halo: (slice(0, image.shape[0]),
                                             slice(0, image.shape[1])))
    for image, outcome in zip(images, cropped):
        assert outcome == _detection_outcome(image, board_spec)


# Oracle: the full-frame non-maximum suppression that _local_maxima replaces,
# kept verbatim so the candidate-only version can be checked bit for bit.

def _oracle_local_maxima(resp, radius, threshold):
    footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    peaks = (resp == ndimage.maximum_filter(resp, footprint=footprint)) & (resp > threshold)
    peaks[:radius + 1, :] = False
    peaks[-radius - 1:, :] = False
    peaks[:, :radius + 1] = False
    peaks[:, -radius - 1:] = False
    vs, us = np.nonzero(peaks)
    return np.column_stack([us, vs])


def test_local_maxima_match_full_frame_oracle(rendered_views):
    responses = [corner_response(image) for image in rendered_views[0]]
    # Plateaus and ties, peaks at every distance from the border, and
    # images smaller than one window.
    rng = np.random.default_rng(3)
    responses += [rng.integers(0, 4, (40, 50)).astype(np.float64)
                  for _ in range(5)]
    responses += [rng.random((h, w)) for h, w in ((7, 9), (8, 8), (9, 30), (3, 3))]
    for resp in responses:
        for radius in (1, 3):
            threshold = _RELATIVE_THRESHOLD * resp.max()
            found = _local_maxima(resp, radius, threshold)
            expected = _oracle_local_maxima(resp, radius, threshold)
            assert found.dtype == expected.dtype
            assert found.tobytes() == expected.tobytes()
            assert found.shape == expected.shape


def test_wrong_board_size_is_count_mismatch(board_spec, ref_intrinsics):
    other = CheckerboardSpec(9, 6, 23.0)
    pose = frontoparallel_pose(other, ref_intrinsics, 40.0)
    img = render_board(other, ref_intrinsics, DistortionCoeffs(), pose,
                       IMAGE_WIDTH, IMAGE_HEIGHT)
    with pytest.raises(CountMismatch):
        detect_corners(img, board_spec)


@pytest.mark.parametrize("seed, view", [(11, 8), (18, 8), (25, 0), (39, 16), (43, 4)])
def test_foreshortened_views_do_not_shear_the_lattice(board_spec, ref_intrinsics,
                                                      ref_distortion, seed, view):
    # On these views a diagonal step from the seed corner is shorter than
    # the second axis step, so a basis taken by length alone shears the
    # lattice and detection raises AmbiguousGrid.
    poses = sample_board_poses(board_spec, ref_intrinsics, ref_distortion,
                               IMAGE_WIDTH, IMAGE_HEIGHT, 20, np.random.default_rng(seed))
    image = render_board(board_spec, ref_intrinsics, ref_distortion, poses[view],
                         IMAGE_WIDTH, IMAGE_HEIGHT)
    truth = project(board_world_points(board_spec), poses[view], ref_intrinsics,
                    ref_distortion)
    grid = detect_corners(image, board_spec)
    assert np.linalg.norm(grid.corners - truth, axis=1).max() < 0.2


def test_corners_hold_at_half_exposure(board_spec, rendered_views):
    # A pure gain halves every grey level, white squares included: the
    # detector's grey-level rules are contrasts, so the corners stay put.
    for image in rendered_views[0]:
        dim = np.rint(0.5 * image).astype(np.uint8)
        moved = detect_corners(dim, board_spec).corners - detect_corners(image, board_spec).corners
        assert np.linalg.norm(moved, axis=1).max() < 0.15


def test_detection_tolerates_mild_noise(board_spec, ref_intrinsics,
                                        ref_distortion, board_poses,
                                        rendered_views):
    images, truths = rendered_views
    rng = np.random.default_rng(21)
    for image, truth in zip(images[:3], truths[:3]):
        noisy = np.clip(
            np.rint(image.astype(np.float64) + rng.normal(0, 2.0, image.shape)),
            0, 255).astype(np.uint8)
        grid = detect_corners(noisy, board_spec)
        errs = np.linalg.norm(grid.corners - truth, axis=1)
        assert errs.mean() < 0.15


# Oracle: the per-candidate ring test that _x_junction_mask batches, kept
# verbatim so the batched version can be checked bit for bit.

def _oracle_x_junction_mask(img, candidates, radius=4.0, n_angles=16):
    angles = 2 * np.pi * np.arange(n_angles) / n_angles
    ring = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    keep = np.zeros(len(candidates), dtype=bool)
    for idx, c in enumerate(candidates):
        pts = c[None, :] + ring
        vals = bilinear_sample(img, pts[:, 0], pts[:, 1], fill=np.nan)
        if np.any(np.isnan(vals)):
            continue
        contrast = vals.max() - vals.min()
        if contrast < 0.15:
            continue
        half = n_angles // 2
        asym = np.mean(np.abs(vals[:half] - vals[half:]))
        keep[idx] = asym < 0.3 * contrast
    return keep


def test_ring_test_matches_per_candidate_oracle(rendered_views):
    for image in rendered_views[0]:
        img = to_float(image)
        resp = corner_response(img)
        candidates = _local_maxima(resp, radius=3,
                                   threshold=_RELATIVE_THRESHOLD * resp.max())
        refined = np.array([
            (u, v) + _oracle_peak_offset(resp[v - 1:v + 2, u - 1:u + 2])
            for u, v in candidates])
        h, w = img.shape
        # Rings that leave the image sample NaN and reject their candidate.
        near_border = np.array([[2.0, h / 2], [w - 3.0, h / 2], [w / 2, 3.5],
                                [w / 2, h - 1.5], [4.0, 4.0], [-1.0, -1.0]])
        points = np.concatenate([refined, near_border])
        smooth = ndimage.gaussian_filter(img, 1.0, mode="nearest")
        keep = _x_junction_mask(smooth, (0, 0), points)
        assert np.array_equal(keep, _oracle_x_junction_mask(smooth, points))
        assert not keep[[-6, -5, -4, -3, -1]].any()
        assert keep.sum() >= 54  # at least the 9 x 6 interior corners
        # At a tenth of the contrast the rings fall below the contrast floor.
        faint = 0.5 + 0.1 * (smooth - 0.5)
        assert np.array_equal(_x_junction_mask(faint, (0, 0), points),
                              _oracle_x_junction_mask(faint, points))


# Oracle: the orientation search that _orient_grid replaces, one homography
# fit and one finite-difference handedness test per corner ordering, kept
# verbatim so the one-fit version can be checked on the same grids.

def _oracle_map_jacobian_sign(h, center):
    eps = 1e-3
    probe = np.array([center, center + [eps, 0.0], center + [0.0, eps]])
    mapped = apply_homography(h, probe)
    j = np.column_stack([mapped[1] - mapped[0], mapped[2] - mapped[0]])
    return float(np.linalg.det(j))


def _oracle_orient_grid(grid, smooth, origin, spec):
    nx, ny = spec.corners_x, spec.corners_y
    world = np.array([(i * spec.square_size, j * spec.square_size)
                      for j in range(ny) for i in range(nx)])
    s = spec.square_size
    accepted = None
    for flip_i in (False, True):
        for flip_j in (False, True):
            cand = grid[::-1] if flip_j else grid
            cand = cand[:, ::-1] if flip_i else cand
            pixels = cand.reshape(-1, 2)
            h = estimate_homography(world, pixels)
            center = np.array([(nx - 1) * s / 2.0, (ny - 1) * s / 2.0])
            if _oracle_map_jacobian_sign(h, center) <= 0:
                continue
            inner = bilinear_sample(smooth, *(apply_homography(h, [[s / 2, s / 2]]) - origin).T)[0]
            outer = bilinear_sample(smooth,
                                    *(apply_homography(h, [[3 * s / 2, s / 2]]) - origin).T)[0]
            if outer - inner > 0.15:
                if accepted is not None:
                    raise AmbiguousGrid("two orientations both look valid")
                accepted = pixels
    if accepted is None:
        raise AmbiguousGrid("no orientation satisfies the coloring rule")
    return accepted


def _orientation_outcome(orient, *args):
    try:
        return orient(*args).tobytes()
    except AmbiguousGrid as exc:
        return str(exc)


def test_orientation_matches_four_fit_oracle(board_spec, rendered_views,
                                             monkeypatch):
    # Mirrored and transposed views show a reflected board, which no other
    # test feeds to the detector.
    outcomes = []

    def both(*args):
        outcomes.append([_orientation_outcome(orient, *args)
                         for orient in (_orient_grid, _oracle_orient_grid)])
        return _orient_grid(*args)

    monkeypatch.setattr("camkit.corners._orient_grid", both)
    for image in rendered_views[0]:
        for view in (image, image[:, ::-1], image[::-1], image.T):
            with contextlib.suppress(AmbiguousGrid):
                detect_corners(view, board_spec)
    assert len(outcomes) == 4 * len(rendered_views[0])
    for found, expected in outcomes:
        assert found == expected
