import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camkit import apply_homography, estimate_homography
from camkit.errors import DegenerateConfiguration
from camkit.homography import (_MAX_CONDITION, _MIN_SPREAD,
                               conditioning_transforms)


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


# Oracle: the 3-D conditioning an earlier SfM resection carried inline, kept
# verbatim so the shared version can be checked bit for bit at d = 3.

def _oracle_resection_conditioning(world):
    centroid = world.mean(axis=0)
    s = np.sqrt(3.0) / np.mean(np.linalg.norm(world - centroid, axis=1))
    cond = np.diag([s, s, s, 1.0])
    cond[:3, 3] = -s * centroid
    return cond


def test_shared_conditioning_matches_the_resection_oracle():
    rng = np.random.default_rng(13)
    for n in (6, 7, 26, 42, 300):
        for scale in (1e-3, 1.0, 200.0, 1e4):
            world = rng.uniform(-1, 1, (n, 3)) * scale + rng.normal(0, 3 * scale, 3)
            other = rng.normal(0, scale, (n, 3))
            t = conditioning_transforms(np.stack([world, other]))
            assert np.array_equal(t[0], _oracle_resection_conditioning(world))
            assert np.array_equal(t[1], _oracle_resection_conditioning(other))
            assert np.array_equal(conditioning_transforms(world[None])[0], t[0])
    t = conditioning_transforms(np.zeros((1, 8, 3)))
    assert t[0, 0, 0] == t[0, 1, 1] == t[0, 2, 2] == np.sqrt(3.0) / 1e-12


# Oracle: estimate_homography as it was before it shared its DLT with SfM
# resection, kept verbatim so the fit can be checked bit for bit.

def _oracle_estimate_homography(world_xy, image_xy) -> np.ndarray:
    src = np.atleast_2d(np.asarray(world_xy, dtype=np.float64))
    dst = np.atleast_2d(np.asarray(image_xy, dtype=np.float64))
    if src.shape != dst.shape or src.shape[1] != 2:
        raise ValueError("point lists must both have shape (n, 2)")
    n = len(src)
    if n < 4:
        raise DegenerateConfiguration("need at least 4 correspondences")

    t_src, t_dst = conditioning_transforms(np.stack([src, dst]))
    if max(t_src[0, 0], t_dst[0, 0]) >= np.sqrt(2.0) / _MIN_SPREAD:
        raise DegenerateConfiguration("all points coincide")
    sn = apply_homography(t_src, src)
    dn = apply_homography(t_dst, dst)

    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    a[0::2, 0] = x
    a[0::2, 1] = y
    a[0::2, 2] = 1.0
    a[0::2, 6] = -u * x
    a[0::2, 7] = -u * y
    a[0::2, 8] = -u
    a[1::2, 3] = x
    a[1::2, 4] = y
    a[1::2, 5] = 1.0
    a[1::2, 6] = -v * x
    a[1::2, 7] = -v * y
    a[1::2, 8] = -v

    _, s, vt = np.linalg.svd(a)
    # A second (near-)zero singular value means the solution is not unique,
    # which happens exactly for degenerate (e.g. collinear) configurations.
    if s[-2] <= 1e-10 * s[0]:
        raise DegenerateConfiguration("correspondences do not determine a homography")
    h_norm = vt[-1].reshape(3, 3)

    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    if np.linalg.cond(h) >= _MAX_CONDITION:
        raise DegenerateConfiguration("estimated homography is rank deficient")
    return h


def _outcome(fit, src, dst):
    try:
        return fit(src, dst).tobytes()
    except Exception as exc:  # the oracle and the fit must fail alike
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40),
       log_scale=st.floats(-3, 5),
       shape=st.sampled_from(["generic", "noise only", "collinear src",
                              "collinear dst", "coincident src",
                              "coincident dst", "coincident both"]))
def test_homography_matches_the_pre_dlt_oracle(seed, n, log_scale, shape):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    src = rng.uniform(-1, 1, (n, 2)) * scale + rng.normal(0, scale, 2)
    h_true = np.eye(3) + rng.normal(0, 0.2, (3, 3))
    h_true[2, :2] = rng.normal(0, 1e-3, 2) / scale
    dst = apply_homography(h_true, src) + rng.normal(0, 0.5, (n, 2))
    if shape == "noise only":
        dst = rng.normal(0, scale, (n, 2))
    if shape.startswith("collinear"):
        line = rng.uniform(-1, 1, n)[:, None] * rng.normal(0, scale, 2)
        if shape.endswith("src"):
            src = line
        else:
            dst = line
    if shape.startswith("coincident"):
        if not shape.endswith("dst"):
            src = np.repeat(src[:1], n, axis=0)
        if not shape.endswith("src"):
            dst = np.repeat(dst[:1], n, axis=0)
    assert (_outcome(estimate_homography, src, dst)
            == _outcome(_oracle_estimate_homography, src, dst))
