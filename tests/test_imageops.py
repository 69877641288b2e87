from functools import partial

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from camkit.imageops import (
    _QUAD_PINV,
    quadratic_peak_offset,
    structure_box_filter,
    to_float,
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
def test_structure_box_filter_matches_full_frame(image):
    # The corner response's three derivatives at sigma 2 and the smoothing
    # at sigma 1, each bit for bit.
    img = to_float(image)
    for sigma, order in [(2.0, (0, 2)), (2.0, (2, 0)), (2.0, (1, 1)), (1.0, 0)]:
        filt = partial(ndimage.gaussian_filter, sigma=sigma, order=order,
                       mode="nearest")
        got = structure_box_filter(img, sigma, filt)
        want = filt(img)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_structure_box_filter_filters_only_the_grown_box():
    image = _patch_image((100, 120), 30, (40, 50, 60, 65), 6)
    shapes = []

    def filt(crop):
        shapes.append(crop.shape)
        return ndimage.gaussian_filter(crop, 2.0, mode="nearest")

    structure_box_filter(to_float(image), 2.0, filt)
    structure_box_filter(to_float(image), 1.0, filt)
    # The 10 x 5 patch and the background ring next to it make a 12 x 7
    # structure box, grown by int(4 sigma + 0.5) = 8 and 4 pixels a side.
    assert shapes == [(28, 23), (20, 15)]
