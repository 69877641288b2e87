import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from camkit import Features, detect_features, match_features
from camkit.errors import ImageTooSmall
from camkit.features import (
    CONTRAST_THRESHOLD,
    INTERVALS,
    MATCH_RATIO,
    N_OCTAVES,
    SIGMA0,
    _descriptors,
    _orientations,
    _passes_edge_test,
    _scale_space_extrema,
)
from camkit.imageops import quadratic_peak_offset, to_float
from camkit.sfm import MAX_FEATURES


def textured_image(seed=0, size=(256, 256)):
    rng = np.random.default_rng(seed)
    img = ndimage.gaussian_filter(rng.uniform(0, 1, size), 3.0)
    img += 0.4 * ndimage.gaussian_filter(rng.uniform(0, 1, size), 8.0)
    img -= img.min()
    img /= img.max()
    return (img * 255).astype(np.uint8)


def _take(feats, rows):
    """The features of ``feats`` at ``rows``."""
    return Features(*(getattr(feats, f.name)[rows] for f in fields(Features)))


def test_uniform_image_has_no_features():
    feats = detect_features(np.full((64, 64), 77, dtype=np.uint8))
    assert len(feats) == 0
    assert feats.positions.shape == (0, 2)
    assert feats.descriptors.shape == (0, 64)
    assert feats.scales.shape == feats.orientations.shape == feats.responses.shape == (0,)


def test_small_image_rejected():
    with pytest.raises(ImageTooSmall):
        detect_features(np.zeros((31, 64), dtype=np.uint8))


def test_textured_image_yields_features():
    feats = detect_features(textured_image(), max_features=500)
    assert len(feats) >= 100
    for descriptor, scale in zip(feats.descriptors[:20], feats.scales[:20]):
        assert abs(np.linalg.norm(descriptor) - 1.0) < 1e-6
        assert scale > 0


def test_feature_count_is_rotation_tolerant():
    img = textured_image(3)
    a = len(detect_features(img, max_features=2000))
    b = len(detect_features(np.rot90(img).copy(), max_features=2000))
    assert abs(a - b) <= 0.2 * max(a, b)


def test_max_features_cap():
    feats = detect_features(textured_image(1), max_features=25)
    assert len(feats) == 25
    responses = feats.responses.tolist()
    assert responses == sorted(responses, reverse=True)


def test_max_features_cut_keeps_the_strongest():
    img = textured_image(1)
    every = detect_features(img, max_features=100_000)
    cut = detect_features(img, max_features=25)
    assert len(every) > 25
    for f in fields(Features):
        assert getattr(cut, f.name).tobytes() == getattr(every, f.name)[:25].tobytes()
    assert cut.responses.min() >= every.responses[25:].max()


def test_response_ties_are_ordered_by_v_then_u():
    # A lattice of equal blobs: the 36 away from the border tie exactly.
    yy, xx = np.mgrid[:256, :256]
    img = sum(np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / 18.0)
              for cy in range(16, 256, 32) for cx in range(16, 256, 32))
    feats = detect_features((img / img.max() * 200).astype(np.uint8))
    tied = feats.responses == feats.responses[0]
    assert tied.sum() >= 36
    u, v = feats.positions[tied].T
    assert len(set(u.tolist())) > 1 and len(set(v.tolist())) > 1
    assert np.array_equal(np.lexsort((u, v)), np.arange(len(u)))


def random_features(rng, n):
    positions, descriptors = np.empty((n, 2)), np.empty((n, 64))
    for i in range(n):
        d = rng.normal(size=64)
        positions[i] = rng.uniform(0, 100, 2)
        descriptors[i] = d / np.linalg.norm(d)
    return Features(positions, np.ones(n), np.zeros(n), descriptors, np.zeros(n))


def test_identical_lists_match_identically():
    feats = random_features(np.random.default_rng(5), 40)
    pairs = match_features(feats, feats)
    assert len(pairs) == 40
    assert np.array_equal(pairs[:, 0], pairs[:, 1])


def test_disjoint_descriptors_rarely_match():
    rng = np.random.default_rng(9)
    a = random_features(rng, 100)
    b = random_features(rng, 100)
    assert len(match_features(a, b)) < 5


def test_matching_recovers_permutation():
    rng = np.random.default_rng(2)
    a = random_features(rng, 30)
    perm = rng.permutation(30)
    b = _take(a, perm)
    pairs = match_features(a, b)
    assert len(pairs) == 30
    for i, j in pairs:
        assert perm[j] == i


def test_matching_is_symmetric():
    rng = np.random.default_rng(12)
    feats_a = detect_features(textured_image(20), max_features=200)
    feats_b = detect_features(
        np.clip(textured_image(20).astype(int)
                + rng.integers(-6, 7, (256, 256)), 0, 255).astype(np.uint8),
        max_features=200)
    ab = match_features(feats_a, feats_b)
    ba = match_features(feats_b, feats_a)
    assert {(i, j) for i, j in ab} == {(j, i) for i, j in ba}


def test_matching_equals_the_per_pair_loop(cube_features):
    for a, b in [(cube_features[0], cube_features[1]),
                 (cube_features[2], cube_features[4]),
                 (_take(cube_features[3], slice(1)), cube_features[4])]:
        da, db = a.descriptors, b.descriptors
        d2 = np.maximum(np.sum(da * da, axis=1)[:, None]
                        + np.sum(db * db, axis=1)[None, :]
                        - 2.0 * (da @ db.T), 0.0)
        order_a = np.argsort(d2, axis=1)
        order_b = np.argsort(d2.T, axis=1)
        dist = np.sqrt(d2)
        want = []
        for i in range(len(a)):
            j = order_a[i, 0]
            if order_b[j, 0] != i:
                continue
            second_a = dist[i, order_a[i, 1]] if len(b) > 1 else np.inf
            second_b = dist[order_b[j, 1], j] if len(a) > 1 else np.inf
            if dist[i, j] < 0.8 * second_a and dist[i, j] < 0.8 * second_b:
                want.append([i, int(j)])
        got = match_features(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == want


def _oracle_match_features(a, b):
    """match_features with a full argsort, kept verbatim."""
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2), dtype=np.int64)
    da, db = a.descriptors, b.descriptors
    d2 = np.maximum(
        np.sum(da * da, axis=1)[:, None]
        + np.sum(db * db, axis=1)[None, :]
        - 2.0 * (da @ db.T),
        0.0,
    )

    def nearest_two(dist):
        order = np.argsort(dist, axis=1)
        j1 = order[:, 0]
        d1 = np.sqrt(dist[np.arange(len(dist)), j1])
        if dist.shape[1] > 1:
            d2nd = np.sqrt(dist[np.arange(len(dist)), order[:, 1]])
        else:
            d2nd = np.full(len(dist), np.inf)
        return j1, d1, d2nd

    fwd, d1a, d2a = nearest_two(d2)
    bwd, d1b, d2b = nearest_two(d2.T)

    ia = np.arange(len(fwd))
    ok_a = np.where(np.isfinite(d2a), d1a < MATCH_RATIO * d2a, True)
    ok_b = np.where(np.isfinite(d2b), d1b < MATCH_RATIO * d2b, True)
    keep = (bwd[fwd] == ia) & ok_a & ok_b[fwd]
    return np.column_stack([ia[keep], fwd[keep]]).astype(np.int64)


@pytest.mark.parametrize("n_a, n_b", [(60, 45), (1, 30), (30, 1), (1, 1), (2, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_matching_equals_the_argsort_version(seed, n_a, n_b):
    # b starts with copies of part of a under noise that puts the ratio test
    # on either side of MATCH_RATIO, and each side repeats some of its rows,
    # so nearest and second-nearest distances tie.
    rng = np.random.default_rng(seed)
    a = random_features(rng, n_a)
    b = random_features(rng, n_b)
    shared = rng.choice(n_a, (min(n_a, n_b) + 1) // 2, replace=False)
    b.descriptors[:shared.size] = a.descriptors[shared] + rng.normal(
        0.0, rng.uniform(0.0, 0.2, (shared.size, 1)), (shared.size, 64))
    for feats in (a, b):
        n = len(feats)
        feats.descriptors[rng.integers(0, n, n // 4)] = feats.descriptors[
            rng.integers(0, n, n // 4)]
    got = match_features(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == _oracle_match_features(a, b).tolist()


def test_empty_input_gives_empty_result():
    feats = random_features(np.random.default_rng(0), 4)
    none = _take(feats, slice(0))
    assert match_features(none, feats).shape == (0, 2)
    assert match_features(feats, none).shape == (0, 2)


# Oracles: the per-keypoint orientation and descriptor and the filter-based
# extremum test that detect_features batches, kept verbatim so the batched
# versions can be checked bit for bit.

def _oracle_orientation(gx, gy, u, v, sigma):
    h, w = gx.shape
    radius = max(3, int(round(4.0 * sigma)))
    u0, v0 = int(round(u)), int(round(v))
    x0, x1 = max(u0 - radius, 0), min(u0 + radius + 1, w)
    y0, y1 = max(v0 - radius, 0), min(v0 + radius + 1, h)
    px = gx[y0:y1, x0:x1]
    py = gy[y0:y1, x0:x1]
    yy, xx = np.mgrid[y0:y1, x0:x1]
    d2 = (xx - u) ** 2 + (yy - v) ** 2
    weight = np.exp(-d2 / (2.0 * (1.5 * sigma) ** 2))
    mag = np.hypot(px, py) * weight
    ang = np.arctan2(py, px)
    nbins = 36
    bins = np.floor((ang + np.pi) / (2 * np.pi) * nbins).astype(np.int64) % nbins
    hist = np.bincount(bins.ravel(), weights=mag.ravel(), minlength=nbins)
    kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    for _ in range(2):
        hist = np.convolve(np.concatenate([hist[-2:], hist, hist[:2]]),
                           kernel, mode="valid")[:nbins]
    peak = int(np.argmax(hist))
    left = hist[(peak - 1) % nbins]
    right = hist[(peak + 1) % nbins]
    denom = left - 2 * hist[peak] + right
    shift = 0.0 if abs(denom) < 1e-12 else 0.5 * (left - right) / denom
    return float((peak + 0.5 + shift) / nbins * 2 * np.pi - np.pi)


def _oracle_descriptor(gx, gy, u, v, sigma, orientation):
    grid, nbins = 4, 4
    cell = 3.0 * sigma
    half = grid / 2.0
    coords = (np.arange(grid * 4) + 0.5) / 4.0 - half
    sx, sy = np.meshgrid(coords, coords)
    sx = sx.ravel()
    sy = sy.ravel()
    cos_o, sin_o = np.cos(orientation), np.sin(orientation)
    pu = u + cell * (cos_o * sx - sin_o * sy)
    pv = v + cell * (sin_o * sx + cos_o * sy)
    h, w = gx.shape
    if pu.min() < 1 or pu.max() > w - 2 or pv.min() < 1 or pv.max() > h - 2:
        return None
    u0 = pu.astype(np.int64)
    v0 = pv.astype(np.int64)
    fu = pu - u0
    fv = pv - v0

    def bil(img):
        return (img[v0, u0] * (1 - fu) * (1 - fv)
                + img[v0, u0 + 1] * fu * (1 - fv)
                + img[v0 + 1, u0] * (1 - fu) * fv
                + img[v0 + 1, u0 + 1] * fu * fv)

    gxi = bil(gx)
    gyi = bil(gy)
    mag = np.hypot(gxi, gyi)
    mag *= np.exp(-(sx ** 2 + sy ** 2) / (2.0 * half ** 2))
    ang = np.arctan2(gyi, gxi) - orientation
    cell_i = np.clip(np.floor(sx + half).astype(np.int64), 0, grid - 1)
    cell_j = np.clip(np.floor(sy + half).astype(np.int64), 0, grid - 1)
    obin = (ang + 2 * np.pi) % (2 * np.pi) / (2 * np.pi) * nbins
    b0 = np.floor(obin).astype(np.int64) % nbins
    fb = obin - np.floor(obin)
    desc = np.zeros((grid, grid, nbins))
    np.add.at(desc, (cell_j, cell_i, b0), mag * (1 - fb))
    np.add.at(desc, (cell_j, cell_i, (b0 + 1) % nbins), mag * fb)
    vec = desc.ravel()
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        return None
    return vec / norm


def _oracle_extrema(dog):
    maxf = ndimage.maximum_filter(dog, size=3, mode="nearest")
    minf = ndimage.minimum_filter(dog, size=3, mode="nearest")
    peaks = ((dog == maxf) | (dog == minf)) & (np.abs(dog) > CONTRAST_THRESHOLD)
    peaks[0] = peaks[-1] = False
    peaks[:, :2, :] = peaks[:, -2:, :] = False
    peaks[:, :, :2] = peaks[:, :, -2:] = False
    return np.argwhere(peaks)


def _gaussian_pyramid(img):
    """Every Gaussian level of every octave at once, as detect_features
    built them before it streamed the pyramid, kept verbatim."""
    step = 2.0 ** (1.0 / INTERVALS)
    sigmas = [SIGMA0 * step ** i for i in range(INTERVALS + 3)]
    octaves = []
    base = ndimage.gaussian_filter(img, SIGMA0, mode="nearest")
    for _ in range(N_OCTAVES):
        levels = [base]
        for i in range(1, len(sigmas)):
            inc = np.sqrt(sigmas[i] ** 2 - sigmas[i - 1] ** 2)
            levels.append(ndimage.gaussian_filter(levels[-1], inc, mode="nearest"))
        octaves.append(levels)
        base = levels[INTERVALS][::2, ::2]
    return octaves


def _gradients(level):
    return (ndimage.sobel(level, axis=1, mode="nearest") / 8.0,
            ndimage.sobel(level, axis=0, mode="nearest") / 8.0)


def test_batched_orientation_and_descriptor_match_per_keypoint_oracle(
        cube_capture, cube_features):
    for view in (0, 3):
        pyramid = _gaussian_pyramid(to_float(cube_capture[2][view]))
        feats = cube_features[view]
        by_level = {}
        for k, scale in enumerate(feats.scales):
            # scale = SIGMA0 * 2 ** (level / 3 + octave), level in 1..3
            step = int(round(3 * np.log2(scale / SIGMA0)))
            octave = (step - 1) // 3
            by_level.setdefault((octave, step - 3 * octave), []).append(k)
        for (octave, level), rows in by_level.items():
            gx, gy = _gradients(pyramid[octave][level])
            # The same expression as detect_features.
            sigma = SIGMA0 * (2.0 ** (1.0 / 3)) ** level
            for k in rows:
                u, v = feats.positions[k] / 2 ** octave
                theta = _oracle_orientation(gx, gy, u, v, sigma)
                assert theta == feats.orientations[k]
                assert np.array_equal(
                    _oracle_descriptor(gx, gy, u, v, sigma, theta), feats.descriptors[k])

            # Keypoints whose descriptor grid leaves the image are dropped.
            h, w = gx.shape
            u = np.array([2.0, w / 2, w - 3.0, 40.5, w / 3])
            v = np.array([h / 2, 2.5, h / 2, h - 2.0, h / 3])
            thetas = _orientations(gx, gy, u, v, sigma)
            descs, ok = _descriptors(gx, gy, u, v, sigma, thetas)
            for i in range(len(u)):
                assert thetas[i] == _oracle_orientation(gx, gy, u[i], v[i], sigma)
                want = _oracle_descriptor(gx, gy, u[i], v[i], sigma, thetas[i])
                assert ok[i] == (want is not None)
                if ok[i]:
                    assert np.array_equal(descs[i], want)


def test_extremum_test_matches_the_filter_version(cube_capture):
    pyramid = _gaussian_pyramid(to_float(cube_capture[2][1]))
    stacks = [np.stack([b - a for a, b in zip(levels, levels[1:])])
              for levels in pyramid]
    rng = np.random.default_rng(0)
    # Coarsely quantized stacks: many ties between a voxel and its neighbors.
    stacks += [rng.integers(-3, 4, (5, 20, 24)) * 0.01 for _ in range(5)]
    for dog in stacks:
        got = _scale_space_extrema(dog)
        assert np.array_equal(got, _oracle_extrema(dog))


# Oracle: the per-keypoint assembly that detect_features replaced with one
# record, kept verbatim with its Feature objects and Python sort key.

@dataclass(frozen=True)
class Feature:
    """One interest point: position (pixels), scale, orientation, descriptor."""

    position: np.ndarray  # (2,) u, v
    scale: float
    orientation: float  # radians
    descriptor: np.ndarray  # (64,), unit L2 norm
    response: float = 0.0


def _oracle_detect_features(image, max_features=1000):
    img = to_float(image)
    step = 2.0 ** (1.0 / INTERVALS)
    pyramid = _gaussian_pyramid(img)
    found = []
    for octave, levels in enumerate(pyramid):
        if min(levels[0].shape) < 16:
            break
        dog = np.stack([levels[i + 1] - levels[i] for i in range(len(levels) - 1)])
        cand = _scale_space_extrema(dog)
        cand = cand[_passes_edge_test(dog, cand)]
        level, v, u = cand.T
        patches = sliding_window_view(dog, (3, 3), axis=(1, 2))[level, v - 1, u - 1]
        refined = np.column_stack([u, v]) + quadratic_peak_offset(patches)
        responses = np.abs(dog[level, v, u])
        # Extrema come sorted by level, so level by level keeps their order.
        for li in np.unique(level):
            at = np.flatnonzero(level == li)
            uo, vo = refined[at].T
            sigma_oct = SIGMA0 * step ** li
            gx = ndimage.sobel(levels[li], axis=1, mode="nearest") / 8.0
            gy = ndimage.sobel(levels[li], axis=0, mode="nearest") / 8.0
            thetas = _orientations(gx, gy, uo, vo, sigma_oct)
            descs, ok = _descriptors(gx, gy, uo, vo, sigma_oct, thetas)
            for k in np.flatnonzero(ok):
                found.append(Feature(
                    position=np.array([uo[k], vo[k]]) * (2 ** octave),
                    scale=sigma_oct * (2 ** octave),
                    orientation=float(thetas[k]),
                    descriptor=descs[k],
                    response=float(responses[at[k]]),
                ))

    found.sort(key=lambda f: (-f.response, f.position[1], f.position[0]))
    return found[:max_features]


def assert_equals_oracle(got, image, max_features):
    """``got`` holds every array of the oracle's features of ``image``, bit
    for bit, dtypes and shapes included."""
    want = _oracle_detect_features(image, max_features)
    columns = {"positions": ([f.position for f in want], (2,)),
               "scales": ([f.scale for f in want], ()),
               "orientations": ([f.orientation for f in want], ()),
               "descriptors": ([f.descriptor for f in want], (64,)),
               "responses": ([f.response for f in want], ())}
    for name, (column, row_shape) in columns.items():
        expected = np.array(column, dtype=np.float64).reshape((len(want),) + row_shape)
        assert getattr(got, name).dtype == np.float64
        assert getattr(got, name).tobytes() == expected.tobytes(), name
        assert getattr(got, name).shape == expected.shape, name
    return len(want)


def test_record_matches_the_per_keypoint_assembly(cube_capture, cube_features):
    cases = [(cube_capture[2][0], MAX_FEATURES, cube_features[0]),
             (cube_capture[2][3], MAX_FEATURES, cube_features[3])]
    cases += [(textured_image(seed), 1000, detect_features(textured_image(seed)))
              for seed in (0, 20)]
    for image, max_features, got in cases:
        assert assert_equals_oracle(got, image, max_features) > 100


def test_streamed_pyramid_matches_the_whole_pyramid(cube_capture, cube_features,
                                                    rendered_views):
    # The oracle builds every level of the pyramid before detecting.
    for image, feats in zip(cube_capture[2], cube_features):
        assert assert_equals_oracle(feats, image, MAX_FEATURES) > 100
    for image in rendered_views[0][:6]:
        assert assert_equals_oracle(detect_features(image, MAX_FEATURES), image,
                                    MAX_FEATURES) > 50
    # 40x33 and the 32x32 minimum stop after two octaves: the third would be
    # below 16 pixels a side. A blob near the centre gives them features.
    for shape, sigma, centre in (((33, 40), 2.0, (19.5, 16.0)),
                                 ((32, 32), 2.5, (16.0, 16.0))):
        yy, xx = np.mgrid[:shape[0], :shape[1]]
        d2 = (xx - centre[0]) ** 2 + (yy - centre[1]) ** 2
        image = (40 + 180 * np.exp(-d2 / (2 * sigma ** 2))).astype(np.uint8)
        assert assert_equals_oracle(detect_features(image), image, 1000) > 0
    uniform = np.full((48, 40), 200, dtype=np.uint8)
    assert assert_equals_oracle(detect_features(uniform), uniform, 1000) == 0


def test_detection_holds_a_few_image_sized_arrays(cube_capture):
    # The whole pyramid of a 640x480 view peaked at 18.6 float64 images.
    image = cube_capture[2][0]
    tracemalloc.start()
    try:
        detect_features(image, MAX_FEATURES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * image.size * np.dtype(np.float64).itemsize
