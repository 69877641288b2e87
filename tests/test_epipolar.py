import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camkit import (
    CameraPose,
    axis_angle_to_rotation,
    eight_point,
    essential_ransac,
    recover_relative_pose,
    sampson_distance,
    triangulate_points,
)
from camkit.epipolar import (
    _fit_block,
    _fit_essential,
    _homogeneous,
    decompose_essential,
)
from camkit.geometry import pixel_to_normalized, undistort_normalized
from camkit.synthetic import pose_error
from camkit.errors import (
    CheiralityAmbiguous,
    InsufficientMatches,
    NoModelFound,
    ZeroBaseline,
)


def skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0.0]])


def synthetic_pair(rng, n, rotation=None, translation=None, outliers=0):
    """Normalized correspondences of random points seen from two poses."""
    rotation = rotation if rotation is not None else axis_angle_to_rotation(
        rng.normal(0, 0.2, 3))
    translation = translation if translation is not None else rng.normal(0, 1, 3)
    translation = translation / np.linalg.norm(translation)
    points = rng.uniform(-2, 2, (n, 3)) + [0, 0, 8]
    x1 = points[:, :2] / points[:, 2:3]
    cam2 = points @ rotation.T + translation
    x2 = cam2[:, :2] / cam2[:, 2:3]
    if outliers:
        idx = rng.choice(n, size=outliers, replace=False)
        x2[idx] = rng.uniform(-0.5, 0.5, (outliers, 2))
        inlier_mask = np.ones(n, dtype=bool)
        inlier_mask[idx] = False
        return x1, x2, CameraPose(rotation, translation), inlier_mask
    return x1, x2, CameraPose(rotation, translation), np.ones(n, dtype=bool)


def test_pure_translation_essential_matrix():
    rng = np.random.default_rng(0)
    x1, x2, _, _ = synthetic_pair(rng, 40, rotation=np.eye(3),
                                  translation=np.array([1.0, 0.0, 0.0]))
    e = eight_point(x1, x2)
    expected = skew([1.0, 0.0, 0.0])  # [[0,0,0],[0,0,-1],[0,1,0]]
    expected = expected / np.linalg.norm(expected)
    sign = np.sign(e.ravel()[np.argmax(np.abs(e))] *
                   expected.ravel()[np.argmax(np.abs(e))])
    assert np.max(np.abs(e - sign * expected)) < 1e-10


def test_epipolar_constraint_on_noiseless_data():
    rng = np.random.default_rng(4)
    x1, x2, _, _ = synthetic_pair(rng, 60)
    e = eight_point(x1, x2)
    residual = np.abs(np.sum(_homogeneous(x2) * (_homogeneous(x1) @ e.T), axis=1))
    assert residual.max() < 1e-10


def test_eight_point_needs_eight():
    rng = np.random.default_rng(1)
    x1, x2, _, _ = synthetic_pair(rng, 7)
    with pytest.raises(InsufficientMatches):
        eight_point(x1, x2)


def test_ransac_recall_with_outliers():
    rng = np.random.default_rng(23)
    n = 200
    x1, x2, _, inliers = synthetic_pair(rng, n, outliers=60)
    e, mask = essential_ransac(x1, x2, seed=7)
    recall = np.sum(mask & inliers) / inliers.sum()
    assert recall >= 0.99
    assert np.mean(mask[~inliers]) < 0.1


def test_ransac_is_deterministic():
    rng = np.random.default_rng(3)
    x1, x2, _, _ = synthetic_pair(rng, 80, outliers=20)
    e1, m1 = essential_ransac(x1, x2, seed=11)
    e2, m2 = essential_ransac(x1, x2, seed=11)
    assert np.array_equal(e1, e2)
    assert np.array_equal(m1, m2)


def test_ransac_no_model_when_everything_is_noise():
    rng = np.random.default_rng(6)
    x1 = rng.uniform(-1, 1, (30, 2))
    x2 = rng.uniform(-1, 1, (30, 2))
    with pytest.raises(NoModelFound):
        essential_ransac(x1, x2, threshold=1e-9, seed=0, max_iters=50)


def test_recover_relative_pose():
    rng = np.random.default_rng(10)
    for _ in range(5):
        x1, x2, truth, _ = synthetic_pair(rng, 50)
        e = eight_point(x1, x2)
        pose, pts, valid = recover_relative_pose(e, x1, x2)
        again, valid_again = triangulate_points(CameraPose.identity(), pose,
                                                x1, x2)
        assert np.array_equal(pts, again) and np.array_equal(valid, valid_again)
        assert valid.all()
        assert pose_error(pose, truth).rotation_deg < np.degrees(1e-6)
        direction = abs(pose.translation @ truth.translation)
        assert np.arccos(np.clip(direction, -1, 1)) < 1e-6
        assert abs(np.linalg.norm(pose.translation) - 1.0) < 1e-12


def test_recover_pose_translation_case():
    rng = np.random.default_rng(2)
    x1, x2, truth, _ = synthetic_pair(rng, 30, rotation=np.eye(3),
                                      translation=np.array([1.0, 0.0, 0.0]))
    pose, _, _ = recover_relative_pose(eight_point(x1, x2), x1, x2)
    assert np.max(np.abs(pose.rotation - np.eye(3))) < 1e-9
    assert pose.translation == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)


def test_cheirality_ambiguous_for_point_at_infinity():
    # Zero-disparity correspondences triangulate to infinity under every
    # candidate, so no decomposition can claim a majority in front.
    e = skew([1.0, 0.0, 0.0])
    x = np.array([[0.1, 0.2]])
    with pytest.raises(CheiralityAmbiguous):
        recover_relative_pose(e, x, x)


def test_triangulate_two_ray_intersection():
    pose_i = CameraPose.identity()
    pose_j = CameraPose(np.eye(3), np.array([-1.0, 0.0, 0.0]))  # center (1,0,0)
    pts, valid = triangulate_points(pose_i, pose_j,
                                    np.array([[0.0, 0.0]]),
                                    np.array([[-0.2, 0.0]]))
    assert valid[0]
    assert pts[0] == pytest.approx([0.0, 0.0, 5.0], abs=1e-9)


def test_triangulate_cube_corners():
    rng = np.random.default_rng(19)
    corners = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)], dtype=float) + [0, 0, 6]
    pose_i = CameraPose.identity()
    pose_j = CameraPose(axis_angle_to_rotation(rng.normal(0, 0.2, 3)),
                        rng.normal(0, 0.5, 3))
    x_i = corners[:, :2] / corners[:, 2:3]
    cam_j = corners @ pose_j.rotation.T + pose_j.translation
    x_j = cam_j[:, :2] / cam_j[:, 2:3]
    pts, valid = triangulate_points(pose_i, pose_j, x_i, x_j)
    assert valid.all()
    assert np.max(np.abs(pts - corners)) < 1e-8


def test_triangulate_rejects_zero_baseline():
    pose = CameraPose.identity()
    with pytest.raises(ZeroBaseline):
        triangulate_points(pose, pose, np.zeros((1, 2)), np.zeros((1, 2)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6),
       perturbed=st.booleans())
def test_every_essential_candidate_has_a_unit_baseline(seed, scale, perturbed):
    """``recover_relative_pose`` triangulates each candidate against the
    identity pose, so a camera centre of norm 1 means ZeroBaseline cannot
    fire there."""
    rng = np.random.default_rng(seed)
    e = scale * skew(rng.normal(size=3)) @ axis_angle_to_rotation(rng.normal(size=3))
    if perturbed:
        e = e + rng.normal(0, 1e-3 * scale, (3, 3))
    x = rng.normal(0, 0.3, (4, 2))
    for rot, t in decompose_essential(e):
        pose = CameraPose(rot, t)
        assert abs(np.linalg.norm(pose.center) - 1.0) <= 1e-12
        triangulate_points(CameraPose.identity(), pose, x, x)


def test_triangulate_project_pixel_roundtrip():
    # Full-precision loop through the pixel domain: project known points,
    # map the observations back to normalized rays, triangulate, reproject.
    from camkit import CameraIntrinsics, DistortionCoeffs, project

    rng = np.random.default_rng(30)
    k = CameraIntrinsics(fx=812.0, fy=805.0, cx=320.0, cy=240.0)
    d = DistortionCoeffs(k1=0.02, k2=-0.12)
    points = rng.uniform(-60, 60, (40, 3)) + [0.0, 0.0, 520.0]
    pose_i = CameraPose.identity()
    pose_j = CameraPose(axis_angle_to_rotation([0.05, -0.3, 0.02]),
                        np.array([-110.0, 6.0, 25.0]))
    px_i = project(points, pose_i, k, d)
    px_j = project(points, pose_j, k, d)
    x_i = undistort_normalized(pixel_to_normalized(px_i, k), d)
    x_j = undistort_normalized(pixel_to_normalized(px_j, k), d)
    tri, valid = triangulate_points(pose_i, pose_j, x_i, x_j)
    assert valid.all()
    back_i = project(tri, pose_i, k, d)
    back_j = project(tri, pose_j, k, d)
    assert np.max(np.linalg.norm(back_i - px_i, axis=1)) < 1e-8
    assert np.max(np.linalg.norm(back_j - px_j, axis=1)) < 1e-8


def test_sampson_distance_zero_on_exact_data():
    rng = np.random.default_rng(8)
    x1, x2, _, _ = synthetic_pair(rng, 40)
    e = eight_point(x1, x2)
    assert sampson_distance(e, x1, x2).max() < 1e-10


# Oracle: the one-sample-per-iteration RANSAC that essential_ransac batches,
# kept verbatim so the batched path can be checked bit for bit.

def _oracle_conditioning(pts):
    centroid = pts.mean(axis=0)
    scale = np.sqrt(2.0) / max(np.mean(np.linalg.norm(pts - centroid, axis=1)), 1e-12)
    return np.array([
        [scale, 0.0, -scale * centroid[0]],
        [0.0, scale, -scale * centroid[1]],
        [0.0, 0.0, 1.0],
    ])


def _oracle_homogeneous(pts):
    return np.column_stack([pts, np.ones(len(pts))])


def _oracle_eight_point(x1, x2):
    t1 = _oracle_conditioning(x1)
    t2 = _oracle_conditioning(x2)
    h1 = _oracle_homogeneous(x1) @ t1.T
    h2 = _oracle_homogeneous(x2) @ t2.T
    a = (h2[:, :, None] * h1[:, None, :]).reshape(len(x1), 9)
    _, _, vt = np.linalg.svd(a)
    e = t2.T @ vt[-1].reshape(3, 3) @ t1
    u, s, vt = np.linalg.svd(e)
    mean = (s[0] + s[1]) / 2.0
    e = u @ np.diag([mean, mean, 0.0]) @ vt
    e = e / np.linalg.norm(e)
    flat = e.ravel()
    if flat[np.argmax(np.abs(flat))] < 0:
        e = -e
    return e


def _oracle_sampson(e, x1, x2):
    h1 = _oracle_homogeneous(x1)
    h2 = _oracle_homogeneous(x2)
    ex1 = h1 @ e.T
    etx2 = h2 @ e
    num = np.sum(h2 * ex1, axis=1)
    denom = ex1[:, 0] ** 2 + ex1[:, 1] ** 2 + etx2[:, 0] ** 2 + etx2[:, 1] ** 2
    return np.abs(num) / np.sqrt(np.maximum(denom, 1e-300))


def _oracle_ransac(x1, x2, threshold=1e-3, seed=0, max_iters=1000, refits=None):
    def refit(mask):
        if refits is not None:
            refits.append(x1[mask])
        return _oracle_eight_point(x1[mask], x2[mask])

    def consensus(e):
        mask = _oracle_sampson(e, x1, x2) < threshold
        return mask, int(mask.sum())

    def locally_optimize(e, mask, count):
        for _ in range(10):
            if count < 8:
                break
            e_next = refit(mask)
            mask_next, count_next = consensus(e_next)
            if count_next <= count:
                break
            e, mask, count = e_next, mask_next, count_next
        return e, mask, count

    rng = np.random.default_rng(seed)
    best = (None, None, 0)
    for _ in range(max_iters):
        idx = rng.choice(len(x1), size=8, replace=False)
        try:
            e = _oracle_eight_point(x1[idx], x2[idx])
        except np.linalg.LinAlgError:
            continue
        mask, count = consensus(e)
        if count >= 8 and 2 * count > best[2]:
            e, mask, count = locally_optimize(e, mask, count)
            if count > best[2]:
                best = (e, mask, count)
    e, mask, count = best
    if count < 8:
        raise NoModelFound(f"best sample had {count} inliers")
    e_refit = refit(mask)
    mask_refit, count_refit = consensus(e_refit)
    if count_refit >= count:
        return e_refit, mask_refit
    return e, mask


def _outcome(ransac, x1, x2, **kwargs):
    try:
        return ransac(x1, x2, **kwargs)
    except NoModelFound:
        return "NoModelFound"


def _assert_same_fit(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40),
       points=st.integers(8, 30))
def test_stacked_fit_equals_single_fits_bitwise(seed, size, points):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0, 0.4, (size, points, 2))
    x2 = x1 + rng.normal(0, 0.05, (size, points, 2))
    stacked = _fit_essential(x1, x2)
    for b in range(size):
        assert np.array_equal(stacked[b], eight_point(x1[b], x2[b]))
        assert np.array_equal(stacked[b], _oracle_eight_point(x1[b], x2[b]))
    e = stacked[0]
    assert np.array_equal(sampson_distance(e, x1[1 % size], x2[1 % size]),
                          _oracle_sampson(e, x1[1 % size], x2[1 % size]))


@pytest.fixture(scope="module")
def cube_pairs(cube_features, ref_intrinsics, cube_capture):
    """Normalized raw matches of the pairs ``reconstruct`` runs RANSAC on."""
    from camkit import match_features

    dist = cube_capture[3]
    normalized = [
        undistort_normalized(pixel_to_normalized(feats.positions, ref_intrinsics), dist)
        for feats in cube_features]
    pairs = []
    for i, j in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]:
        raw = match_features(cube_features[i], cube_features[j])
        if len(raw) >= 8:  # reconstruct skips a pair with fewer
            pairs.append((normalized[i][raw[:, 0]],
                          normalized[j][raw[:, 1]]))
    return pairs


@pytest.mark.parametrize("seed", [0, 5])
def test_ransac_matches_per_sample_oracle_on_cube_pairs(cube_pairs, seed,
                                                        monkeypatch):
    import camkit.epipolar as epipolar

    # Every refit on a consensus set, in order: the hypotheses are visited
    # in draw order, not only to the same final answer.
    refits = []

    def recording_eight_point(a, b):
        refits.append(a)
        return eight_point(a, b)

    monkeypatch.setattr(epipolar, "eight_point", recording_eight_point)
    for x1, x2 in cube_pairs:
        want_refits = []
        want = _outcome(_oracle_ransac, x1, x2, seed=seed, max_iters=150,
                        refits=want_refits)
        refits.clear()
        _assert_same_fit(
            _outcome(essential_ransac, x1, x2, seed=seed, max_iters=150), want)
        assert len(refits) == len(want_refits)
        for got_points, want_points in zip(refits, want_refits):
            assert np.array_equal(got_points, want_points)


def test_ransac_skips_samples_with_a_nan_point():
    rng = np.random.default_rng(17)
    x1, x2, _, _ = synthetic_pair(rng, 40, outliers=10)
    x1 = x1 + rng.normal(0, 1e-4, x1.shape)
    x2[5] = np.nan
    got = essential_ransac(x1, x2, seed=3, max_iters=300)
    _assert_same_fit(got, _oracle_ransac(x1, x2, seed=3, max_iters=300))
    assert not got[1][5]


def test_fit_block_refits_one_sample_at_a_time_when_the_stack_fails(monkeypatch):
    import camkit.epipolar as epipolar

    rng = np.random.default_rng(2)
    x1 = rng.normal(0, 0.4, (6, 8, 2))
    x2 = x1 + rng.normal(0, 0.05, (6, 8, 2))
    bad = x1[3, 0].copy()
    fit = epipolar._fit_essential

    def failing_fit(a, b):
        if np.any(np.all(a[:, 0] == bad, axis=1)):
            raise np.linalg.LinAlgError("SVD did not converge")
        return fit(a, b)

    monkeypatch.setattr(epipolar, "_fit_essential", failing_fit)
    e, fitted = _fit_block(x1, x2)
    assert fitted.tolist() == [True, True, True, False, True, True]
    assert np.array_equal(e[fitted], fit(x1[fitted], x2[fitted]))
