from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from camkit.imageops import (
    _QUAD_PINV,
    bilinear_sample,
    quadratic_peak_offset,
    structure_box,
    to_float,
    window_extrema,
)


# Oracle: the one-patch-at-a-time peak fit that quadratic_peak_offset
# batches, kept verbatim so the batched version can be checked bit for bit.

def _oracle_peak_offset(patch):
    a, b, c, d, e, _ = _QUAD_PINV @ np.asarray(patch, dtype=np.float64).ravel()
    hess = np.array([[2 * a, c], [c, 2 * b]])
    if abs(np.linalg.det(hess)) < 1e-18:
        return np.zeros(2)
    return np.clip(np.linalg.solve(hess, [-d, -e]), -1.0, 1.0)


def test_batched_peak_offset_matches_per_patch_oracle():
    rng = np.random.default_rng(3)
    patches = np.concatenate([
        rng.normal(size=(600, 3, 3)),
        rng.normal(size=(100, 3, 3)) * 1e-10,
        rng.integers(-2, 3, size=(300, 3, 3)).astype(float),
        np.zeros((5, 3, 3)),
        np.ones((5, 3, 3)),
        # A ridge along v: the fit's Hessian is singular up to rounding.
        np.tile(np.array([[0.0, 1.0, 0.0]] * 3), (5, 1, 1)),
    ])
    got = quadratic_peak_offset(patches)
    want = np.array([_oracle_peak_offset(p) for p in patches])
    assert np.array_equal(got, want)
    singular = np.all(want == 0, axis=1)
    assert singular[-15:-5].all() and not singular[:600].any()


def test_peak_offset_of_an_empty_stack():
    assert quadratic_peak_offset(np.zeros((0, 3, 3))).shape == (0, 2)


def _patch_image(shape, background, box, seed):
    image = np.full(shape, background, dtype=np.uint8)
    r0, r1, c0, c1 = box
    image[r0:r1, c0:c1] = np.random.default_rng(seed).integers(
        0, 256, size=(r1 - r0, c1 - c0))
    return image


@st.composite
def _patch_images(draw):
    """A random uint8 patch on a random constant background."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    r1, c1 = draw(st.integers(r0 + 1, h)), draw(st.integers(c0 + 1, w))
    return _patch_image((h, w), draw(st.integers(0, 255)), (r0, r1, c0, c1),
                        draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=80, deadline=None)
@given(image=_patch_images())
@example(image=_patch_image((30, 40), 9, (0, 5, 10, 20), 1))     # top edge
@example(image=_patch_image((30, 40), 9, (20, 30, 10, 20), 2))   # bottom edge
@example(image=_patch_image((30, 40), 9, (10, 20, 0, 6), 3))     # left edge
@example(image=_patch_image((30, 40), 9, (10, 20, 31, 40), 4))   # right edge
@example(image=np.pad(np.full((1, 1), 200, dtype=np.uint8), 15,
                      constant_values=17))                        # one pixel
@example(image=np.full((25, 35), 77, dtype=np.uint8))             # constant
@example(image=_patch_image((5, 7), 40, (1, 4, 2, 6), 5))         # < halo
def test_structure_box_crop_filters_like_the_full_frame(image):
    # The corner response's three derivatives at sigma 2 and the smoothing
    # at sigma 1, each bit for bit on the crop grown by its filter radius.
    img = to_float(image)
    for sigma, order in [(2.0, (0, 2)), (2.0, (2, 0)), (2.0, (1, 1)), (1.0, 0)]:
        filt = partial(ndimage.gaussian_filter, sigma=sigma, order=order,
                       mode="nearest")
        box = structure_box(image, int(4 * sigma + 0.5))
        assert filt(img[box]).tobytes() == filt(img)[box].tobytes()


def test_structure_box_grows_and_clips_the_box():
    image = _patch_image((100, 120), 30, (40, 50, 60, 65), 6)
    # The 10 x 5 patch and the background ring next to it make a 12 x 7
    # structure box at rows 39-50 and columns 59-65.
    assert structure_box(image, 0) == (slice(39, 51), slice(59, 66))
    assert structure_box(image, 8) == (slice(31, 59), slice(51, 74))
    assert structure_box(image, 60) == (slice(0, 100), slice(0, 120))
    # An image without structure keeps its top-left pixel as the box.
    assert structure_box(np.full((30, 40), 5, np.uint8), 4) == (slice(0, 5), slice(0, 5))


# Oracle: the sampler with two-index gathers and range tests, kept verbatim
# from before it gathered from the flat image.

def _oracle_bilinear_sample(img, pts, fill):
    h, w = img.shape
    u, v = pts[..., 0], pts[..., 1]
    inside = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.clip(u, 0, w - 1)
    vc = np.clip(v, 0, h - 1)
    u0 = np.clip(np.floor(uc).astype(np.int64), 0, max(w - 2, 0))
    v0 = np.clip(np.floor(vc).astype(np.int64), 0, max(h - 2, 0))
    fu = uc - u0
    fv = vc - v0
    u1, v1 = np.minimum(u0 + 1, w - 1), np.minimum(v0 + 1, h - 1)
    out = (img[v0, u0] * (1 - fu) * (1 - fv) + img[v0, u1] * fu * (1 - fv)
           + img[v1, u0] * (1 - fu) * fv + img[v1, u1] * fu * fv)
    return np.where(inside, out, fill)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (48, 64)])
@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_bilinear_sample_matches_the_two_index_oracle(shape, fill):
    rng = np.random.default_rng(6)
    h, w = shape
    img = rng.uniform(size=shape)
    pts = np.concatenate([rng.uniform(-2.0, max(h, w) + 1.0, (3000, 2)),
                          rng.integers(-1, max(h, w) + 1, (300, 2)).astype(float),
                          [[w - 1, h - 1], [w - 1 + 1e-12, 0.0], [-1e-300, 0.0]]])
    for points in (pts, pts[:3297].reshape(-1, 7, 2)):
        expected = _oracle_bilinear_sample(img, points, fill)
        got = bilinear_sample(img, points[..., 0], points[..., 1], fill)
        assert got.tobytes() == expected.tobytes()


def test_single_point_sample_is_a_zero_d_one_row_sample():
    rng = np.random.default_rng(4)
    image = rng.uniform(size=(12, 17))
    for point in rng.uniform(-2.0, 19.0, (500, 2)):
        single = bilinear_sample(image, *point, fill=np.nan)
        assert single.shape == ()
        row = bilinear_sample(image, point[:1], point[1:], fill=np.nan)
        assert single.tobytes() == row[0].tobytes()


def test_bilinear_sample_takes_u_and_v_as_a_pair():
    # u and v of any one shape give samples of that shape, each the sample
    # of its point in a flat batch.
    rng = np.random.default_rng(5)
    image = rng.uniform(size=(12, 17))
    u, v = rng.uniform(-2.0, 19.0, (2, 40, 3))
    pair = bilinear_sample(image, u, v, fill=np.nan)
    assert pair.shape == (40, 3)
    flat = bilinear_sample(image, u.ravel(), v.ravel(), fill=np.nan)
    assert pair.tobytes() == flat.reshape(40, 3).tobytes()


# Oracle: the extremum test as whole-image maximum and minimum filters.

def _oracle_window_extrema(values, at, radius):
    index = tuple(np.transpose(at))
    size = 2 * radius + 1
    return ((values == ndimage.maximum_filter(values, size=size))[index],
            (values == ndimage.minimum_filter(values, size=size))[index])


@pytest.mark.parametrize("shape, radius", [((40, 50), 3), ((40, 50), 1),
                                           ((5, 20, 24), 1), ((9, 14, 16), 2)])
@pytest.mark.parametrize("quantised", [False, True], ids=["continuous", "quantised"])
def test_window_extrema_match_the_filter_oracle(shape, radius, quantised):
    rng = np.random.default_rng(8)
    # Coarsely quantised values tie with their neighbours everywhere.
    values = (rng.integers(-3, 4, shape) * 0.01 if quantised
              else rng.normal(size=shape))
    # Every index whose window lies inside, in a random order.
    at = rng.permutation(np.argwhere(np.ones(np.subtract(shape, 2 * radius), bool))
                         + radius)
    is_max, is_min = window_extrema(values, at, radius)
    want_max, want_min = _oracle_window_extrema(values, at, radius)
    assert np.array_equal(is_max, want_max)
    assert np.array_equal(is_min, want_min)
    assert is_max.any() and is_min.any()
    if quantised:  # some maxima tie with a neighbour
        second = ndimage.rank_filter(values, -2, size=2 * radius + 1)[tuple(at.T)]
        assert (is_max & (second == values[tuple(at.T)])).any()


def test_window_extrema_of_no_indices():
    is_max, is_min = window_extrema(np.zeros((5, 6)), np.empty((0, 2), np.int64), 1)
    assert is_max.shape == is_min.shape == (0,)
