import warnings

import numpy as np
import pytest

from camkit import CameraPose
from camkit.synthetic import CubeScene


def _oracle_slab_hits(scene, origins, dirs):
    """Slab test with NaN-skipping reductions: a ray parallel to a slab whose
    origin lies on one of its planes gives 0 * inf = NaN there, which
    nanmax/nanmin ignore."""
    half = scene.edge / 2.0
    with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN rows
        inv = 1.0 / dirs
        t_lo = (-half - origins) * inv
        t_hi = (half - origins) * inv
        t_near = np.nanmax(np.minimum(t_lo, t_hi), axis=1)
        t_far = np.nanmin(np.maximum(t_lo, t_hi), axis=1)
        pts = origins + dirs * t_near[:, None]
    return pts, (t_near < t_far) & (t_near > 1e-9)


def _random_rays(scene, rng, n=4000):
    half = scene.edge / 2.0
    dirs = rng.normal(size=(n, 3))
    dirs[rng.random(dirs.shape) < 0.3] = 0.0
    origins = rng.uniform(-3 * half, 3 * half, size=dirs.shape)
    on_plane = rng.random(dirs.shape) < 0.3
    origins[on_plane] = rng.choice([-half, half], size=on_plane.sum())
    return origins, dirs


def _axis_aligned_rays(scene):
    """A camera looking straight down -z from above the x = +half face plane,
    its rays on a grid whose middle row and column have exact zeros."""
    pose = CameraPose(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
    center = np.array([scene.edge / 2.0, 0.0, 3.0 * scene.edge])
    grid = np.arange(-20, 21) / 20.0
    xs, ys = np.meshgrid(grid, grid)
    dirs_cam = np.column_stack([xs.ravel(), ys.ravel(), np.ones(xs.size)])
    dirs = dirs_cam @ pose.rotation
    return np.broadcast_to(center, dirs.shape), dirs


@pytest.mark.parametrize("rays", ["random", "axis-aligned"])
def test_slab_test_matches_nan_skipping_oracle(rays):
    scene = CubeScene(edge=200.0)
    if rays == "random":
        origins, dirs = _random_rays(scene, np.random.default_rng(3))
    else:
        origins, dirs = _axis_aligned_rays(scene)
    expected_pts, expected_hit = _oracle_slab_hits(scene, origins, dirs)
    with np.errstate(invalid="ignore"):
        pts, _, hit = scene.intersect(origins, dirs)
        zero_times_inf = (dirs == 0) & (np.abs(origins) == scene.edge / 2.0)
    assert np.array_equal(hit, expected_hit)
    assert np.array_equal(pts, expected_pts, equal_nan=True)
    # The cases exercise the NaN entries, on rays that hit and rays that miss.
    assert (zero_times_inf.any(axis=1) & hit).any()
    assert (zero_times_inf.any(axis=1) & ~hit).any()


# Oracle: the cube texture's own bilinear interpolation, kept verbatim from
# before CubeScene._noise went through imageops.bilinear_sample.

def _oracle_noise(grid, s, t):
    n = grid.shape[0] - 1
    gs = np.clip(s * n, 0, n - 1e-9)
    gt = np.clip(t * n, 0, n - 1e-9)
    i0 = gs.astype(np.int64)
    j0 = gt.astype(np.int64)
    fs = gs - i0
    ft = gt - j0
    return (grid[i0, j0] * (1 - fs) * (1 - ft)
            + grid[i0 + 1, j0] * fs * (1 - ft)
            + grid[i0, j0 + 1] * (1 - fs) * ft
            + grid[i0 + 1, j0 + 1] * fs * ft)


@pytest.mark.parametrize("octave", ["_coarse", "_mid", "_fine"])
def test_texture_noise_matches_the_written_out_interpolation(octave):
    scene = CubeScene()
    rng = np.random.default_rng(12)
    random = rng.uniform(0.0, 1.0, (2, 5000))
    corners = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    for grid in getattr(scene, octave):
        for s, t in (random, corners):
            assert scene._noise(grid, s, t).tobytes() == _oracle_noise(grid, s, t).tobytes()


@pytest.mark.parametrize("edge", [0.0, -1.0, np.inf, np.nan])
def test_cube_edge_must_be_finite_and_positive(edge):
    with pytest.raises(ValueError, match="edge"):
        CubeScene(edge=edge)
