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
    render_board,
)
from camkit.corners import (
    _RELATIVE_THRESHOLD,
    _local_maxima,
    _x_junction_mask,
    corner_response,
)
from camkit.errors import BoardNotFound, CountMismatch
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


def test_detection_matches_full_frame_oracle(board_spec, rendered_views,
                                             monkeypatch):
    # The oracle filters the full frame: the structure-box helper bypassed.
    images, _ = rendered_views
    cropped = [(corner_response(img), detect_corners(img, board_spec).corners)
               for img in images]
    monkeypatch.setattr("camkit.corners.structure_box_filter",
                        lambda image, sigma, filt: filt(image))
    for image, (resp, corners) in zip(images, cropped):
        assert resp.tobytes() == corner_response(image).tobytes()
        assert corners.tobytes() == detect_corners(image, board_spec).corners.tobytes()


def test_wrong_board_size_is_count_mismatch(board_spec, ref_intrinsics):
    other = CheckerboardSpec(9, 6, 23.0)
    pose = frontoparallel_pose(other, ref_intrinsics, 40.0)
    img = render_board(other, ref_intrinsics, DistortionCoeffs(), pose,
                       IMAGE_WIDTH, IMAGE_HEIGHT)
    with pytest.raises(CountMismatch):
        detect_corners(img, board_spec)


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
        vals = bilinear_sample(img, c[None, :] + ring, fill=np.nan)
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
        keep = _x_junction_mask(smooth, points)
        assert np.array_equal(keep, _oracle_x_junction_mask(smooth, points))
        assert not keep[[-6, -5, -4, -3, -1]].any()
        assert keep.sum() >= 54  # at least the 9 x 6 interior corners
        # At a tenth of the contrast the rings fall below the contrast floor.
        faint = 0.5 + 0.1 * (smooth - 0.5)
        assert np.array_equal(_x_junction_mask(faint, points),
                              _oracle_x_junction_mask(faint, points))
