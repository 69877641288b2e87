"""Metamorphic relations: changes to the input that must leave the answer
alone, or move it by a known amount. Each relation states its tolerance."""

import numpy as np
import pytest

from camkit import detect_corners, reconstruct
from camkit.synthetic import cloud_error


def shifted(image: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """``image`` moved by whole pixels, ``dx`` right and ``dy`` down, at its
    own size: the edge rows and columns repeat into the uncovered border."""
    h, w = image.shape
    padded = np.pad(image, ((max(dy, 0), max(-dy, 0)), (max(dx, 0), max(-dx, 0))),
                    mode="edge")
    top, left = max(-dy, 0), max(-dx, 0)
    return padded[top:top + h, left:left + w]


@pytest.mark.parametrize("dx, dy", [(6, 4), (-3, 5)])
def test_corners_follow_an_integer_shift(board_spec, rendered_views, dx, dy):
    for image in rendered_views[0]:
        moved = shifted(image, dx, dy)
        assert moved.shape == image.shape
        expected = detect_corners(image, board_spec).corners + (dx, dy)
        got = detect_corners(moved, board_spec).corners
        assert np.max(np.abs(got - expected)) < 1e-9


def test_reconstruct_registers_the_reversed_capture(cube_capture, ref_intrinsics):
    scene3d, poses, images, dist = cube_capture
    scene = reconstruct(images[::-1], ref_intrinsics, dist, seed=0)
    assert sorted(scene.poses) == list(range(5))
    assert cloud_error(scene, scene3d, poses[::-1]).rms < 2.0
