import numpy as np
import pytest

from camkit import apply_homography, estimate_homography
from camkit.errors import DegenerateConfiguration
from camkit.homography import conditioning_transforms


def test_identity_from_fixed_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    h = estimate_homography(pts, pts)
    assert np.max(np.abs(h / h[2, 2] - np.eye(3))) < 1e-10


def test_recovers_known_homography():
    rng = np.random.default_rng(5)
    for _ in range(10):
        while True:
            h_true = np.eye(3) + rng.normal(0, 0.1, (3, 3))
            h_true[2, :2] = rng.normal(0, 1e-3, 2)
            h_true /= h_true[2, 2]
            if np.linalg.cond(h_true) < 100:
                break
        src = rng.uniform(-5, 5, (30, 2))
        dst = apply_homography(h_true, src)
        h = estimate_homography(src, dst)
        assert np.max(np.abs(h - h_true)) < 1e-8


def test_collinear_points_are_degenerate():
    src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    dst = src * 2.0
    with pytest.raises(DegenerateConfiguration):
        estimate_homography(src, dst)


@pytest.mark.parametrize("which", ["src", "dst", "both"])
def test_coincident_points_are_degenerate(which):
    rng = np.random.default_rng(4)
    spread = rng.uniform(0, 100, (6, 2))
    point = np.full((6, 2), 0.1)  # a mean that rounds: tiny, not zero, spread
    src = spread if which == "dst" else point
    dst = spread if which == "src" else point
    with pytest.raises(DegenerateConfiguration, match="all points coincide"):
        estimate_homography(src, dst)


def test_too_few_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateConfiguration):
        estimate_homography(pts, pts)


def test_residual_is_small_on_exact_data():
    rng = np.random.default_rng(12)
    h_true = np.array([[1.2, 0.1, 5.0], [-0.05, 0.9, -3.0], [1e-4, -2e-4, 1.0]])
    src = rng.uniform(0, 200, (54, 2))
    dst = apply_homography(h_true, src)
    h = estimate_homography(src, dst)
    assert np.max(np.linalg.norm(apply_homography(h, src) - dst, axis=1)) < 1e-8


# Oracle: the one-set similarity estimate_homography used before it shared
# the stacked conditioning with the eight-point fit, kept verbatim so the
# shared version can be checked bit for bit.

def _oracle_normalizing_transform(pts):
    centroid = pts.mean(axis=0)
    mean_dist = np.mean(np.linalg.norm(pts - centroid, axis=1))
    if mean_dist < 1e-12:
        raise DegenerateConfiguration("all points coincide")
    s = np.sqrt(2.0) / mean_dist
    return np.array([
        [s, 0.0, -s * centroid[0]],
        [0.0, s, -s * centroid[1]],
        [0.0, 0.0, 1.0],
    ])


def test_shared_conditioning_matches_the_homography_oracle():
    rng = np.random.default_rng(11)
    for n in (4, 5, 9, 54, 137, 500):
        for scale in (1e-3, 1.0, 640.0, 1e5):
            src = rng.uniform(-1, 1, (n, 2)) * scale + rng.normal(0, 3 * scale, 2)
            dst = rng.normal(0, scale, (n, 2))
            t_src, t_dst = conditioning_transforms(np.stack([src, dst]))
            assert np.array_equal(t_src, _oracle_normalizing_transform(src))
            assert np.array_equal(t_dst, _oracle_normalizing_transform(dst))
            assert np.array_equal(conditioning_transforms(src[None])[0], t_src)
    # Where the oracle raises, the scale stays finite: RANSAC samples whose
    # points coincide are fitted, not rejected.
    t = conditioning_transforms(np.zeros((1, 8, 2)))
    assert t[0, 0, 0] == t[0, 1, 1] == np.sqrt(2.0) / 1e-12
