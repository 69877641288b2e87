import numpy as np

from camkit.imageops import _QUAD_PINV, quadratic_peak_offset


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
