"""Scale-space blob features with orientation and a 64-d gradient descriptor.

Interest points are extrema of a difference-of-Gaussians pyramid over three
octaves. Each feature gets a dominant gradient orientation and a descriptor
built from a 4x4 spatial grid of 4-bin gradient-orientation histograms
(64 dimensions, L2-normalized), sampled in a frame rotated to the feature
orientation so matching tolerates in-plane rotation and moderate scale
change. The extremum tests and sub-pixel peak fits of one octave, and the
orientations and descriptors of one pyramid level, are computed for all
their keypoints at once with the primitives of :mod:`camkit.imageops` that
corner detection also uses, bit for bit as one keypoint at a time would give
them. An image's features are one :class:`Features` record of arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .errors import ImageTooSmall
from .imageops import bilinear_sample, quadratic_peak_offset, to_float, window_extrema

N_OCTAVES = 3
INTERVALS = 3
SIGMA0 = 1.6
CONTRAST_THRESHOLD = 0.015
EDGE_RATIO = 10.0
DESCRIPTOR_GRID = 4
DESCRIPTOR_BINS = 4
MIN_IMAGE_SIDE = 32
MATCH_RATIO = 0.8


@dataclass(frozen=True)
class Features:
    """An image's interest points as parallel arrays, one row per feature."""

    positions: np.ndarray  # (n, 2) u, v in pixels
    scales: np.ndarray  # (n,)
    orientations: np.ndarray  # (n,) radians
    descriptors: np.ndarray  # (n, 64), unit L2 norm
    responses: np.ndarray  # (n,) |DoG| at the extremum

    def __len__(self) -> int:
        return len(self.positions)


def _gaussian_pyramid(img: np.ndarray) -> list[list[np.ndarray]]:
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


def _scale_space_extrema(dog: np.ndarray) -> np.ndarray:
    """(level, v, u) indices of 26-neighborhood extrema above threshold.

    Only interior voxels (not the first or last level, nor within two pixels
    of the border) can be extrema, so their 3x3x3 neighborhoods never leave
    the stack; the 26 neighbors are compared only at interior voxels above
    the contrast threshold. Rows come in C order of the stack.
    """
    strong = np.abs(dog[1:-1, 2:-2, 2:-2]) > CONTRAST_THRESHOLD
    cand = np.argwhere(strong) + [1, 2, 2]
    is_max, is_min = window_extrema(dog, cand, 1)
    return cand[is_max | is_min]


def _passes_edge_test(dog: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Mask of the (level, v, u) extrema whose principal curvature ratio in
    the image plane is below ``EDGE_RATIO``."""
    li, v, u = cand.T

    def at(dv, du):
        return dog[li, v + dv, u + du]

    dxx = at(0, 1) - 2 * at(0, 0) + at(0, -1)
    dyy = at(1, 0) - 2 * at(0, 0) + at(-1, 0)
    dxy = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / 4.0
    det = dxx * dyy - dxy * dxy
    trace = dxx + dyy
    with np.errstate(divide="ignore", invalid="ignore"):
        return (det > 0) & (trace * trace / det < (EDGE_RATIO + 1.0) ** 2 / EDGE_RATIO)


def _orientations(gx: np.ndarray, gy: np.ndarray, u: np.ndarray,
                  v: np.ndarray, sigma: float) -> np.ndarray:
    """Dominant gradient orientation of each keypoint of one level.

    One 36-bin histogram per keypoint of Gaussian-weighted gradient
    magnitudes over the part of its window inside the image, accumulated in
    row-major window order; then a circular smoothing and a parabolic peak.
    """
    h, w = gx.shape
    radius = max(3, int(round(4.0 * sigma)))
    offsets = np.arange(-radius, radius + 1)
    xx = np.rint(u).astype(np.int64)[:, None, None] + offsets[None, None, :]
    yy = np.rint(v).astype(np.int64)[:, None, None] + offsets[None, :, None]
    xx, yy = np.broadcast_arrays(xx, yy)
    inside = (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h)
    key = np.broadcast_to(np.arange(len(u))[:, None, None], inside.shape)[inside]
    xx = xx[inside]
    yy = yy[inside]
    px = gx[yy, xx]
    py = gy[yy, xx]
    d2 = (xx - u[key]) ** 2 + (yy - v[key]) ** 2
    weight = np.exp(-d2 / (2.0 * (1.5 * sigma) ** 2))
    mag = np.hypot(px, py) * weight
    ang = np.arctan2(py, px)

    nbins = 36
    bins = np.floor((ang + np.pi) / (2 * np.pi) * nbins).astype(np.int64) % nbins
    hists = np.bincount(key * nbins + bins, weights=mag,
                        minlength=len(u) * nbins).reshape(len(u), nbins)
    kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    for _ in range(2):
        padded = np.concatenate([hists[:, -2:], hists, hists[:, :2]], axis=1)
        # The taps summed in turn, as np.convolve sums them for one histogram.
        hists = sum(padded[:, t:t + nbins] * kernel[t] for t in range(len(kernel)))
    rows = np.arange(len(u))
    peak = np.argmax(hists, axis=1)
    left = hists[rows, (peak - 1) % nbins]
    right = hists[rows, (peak + 1) % nbins]
    denom = left - 2 * hists[rows, peak] + right
    shift = np.divide(0.5 * (left - right), denom, out=np.zeros(len(u)),
                      where=np.abs(denom) >= 1e-12)
    return (peak + 0.5 + shift) / nbins * 2 * np.pi - np.pi


def _descriptors(gx: np.ndarray, gy: np.ndarray, u: np.ndarray, v: np.ndarray,
                 sigma: float, orientation: np.ndarray):
    """Descriptors of the keypoints of one level; returns ``(desc, ok)``.

    ``desc`` is ``(N, 64)``; ``ok`` is False where the rotated sampling grid
    leaves the image or the gradient histogram is empty, and those rows are
    meaningless.
    """
    grid = DESCRIPTOR_GRID
    nbins = DESCRIPTOR_BINS
    cell = 3.0 * sigma
    half = grid / 2.0
    samples = np.arange(grid * 4)  # 4 samples per cell edge
    coords = (samples + 0.5) / 4.0 - half  # cell units, centered
    sx, sy = np.meshgrid(coords, coords)
    sx = sx.ravel()
    sy = sy.ravel()

    # cos and sin one value at a time: some numpy builds evaluate them on
    # arrays with SIMD kernels that round differently from the scalar path.
    cos_o = np.array([np.cos(o) for o in orientation])[:, None]
    sin_o = np.array([np.sin(o) for o in orientation])[:, None]
    du = cell * (cos_o * sx - sin_o * sy)
    dv = cell * (sin_o * sx + cos_o * sy)
    pu = u[:, None] + du
    pv = v[:, None] + dv
    h, w = gx.shape
    ok = ((pu.min(axis=1) >= 1) & (pu.max(axis=1) <= w - 2)
          & (pv.min(axis=1) >= 1) & (pv.max(axis=1) <= h - 2))
    pu = pu[ok]
    pv = pv[ok]

    gxi = bilinear_sample(gx, pu, pv)
    gyi = bilinear_sample(gy, pu, pv)
    mag = np.hypot(gxi, gyi)
    mag *= np.exp(-(sx ** 2 + sy ** 2) / (2.0 * half ** 2))
    ang = np.arctan2(gyi, gxi) - orientation[ok, None]

    cell_i = np.clip(np.floor(sx + half).astype(np.int64), 0, grid - 1)
    cell_j = np.clip(np.floor(sy + half).astype(np.int64), 0, grid - 1)
    obin = (ang + 2 * np.pi) % (2 * np.pi) / (2 * np.pi) * nbins
    b0 = np.floor(obin).astype(np.int64) % nbins
    fb = obin - np.floor(obin)

    key = np.arange(len(pu))[:, None]
    desc = np.zeros((len(pu), grid, grid, nbins))
    np.add.at(desc, (key, cell_j, cell_i, b0), mag * (1 - fb))
    np.add.at(desc, (key, cell_j, cell_i, (b0 + 1) % nbins), mag * fb)
    vec = desc.reshape(len(pu), grid * grid * nbins)
    # Per-row dot products, the BLAS ddot that np.linalg.norm uses on a vector.
    norm = np.sqrt(vec[:, None, :] @ vec[:, :, None])[:, 0]
    out = np.zeros((len(u), grid * grid * nbins))
    out[ok] = vec / np.maximum(norm, 1e-12)
    ok[ok] = norm[:, 0] >= 1e-12
    return out, ok


def detect_features(image: np.ndarray, max_features: int = 1000) -> Features:
    """Detect up to ``max_features`` scale-space features, strongest first.

    Sub-pixel offsets are fitted for all extrema of an octave at once, and
    orientations and descriptors for all keypoints of one pyramid level at
    once; the features are sorted by descending response, then v, then u.

    Raises ImageTooSmall below 32x32. A featureless (uniform) image yields no
    features.
    """
    img = to_float(image)
    if img.shape[0] < MIN_IMAGE_SIDE or img.shape[1] < MIN_IMAGE_SIDE:
        raise ImageTooSmall(f"image {img.shape[1]}x{img.shape[0]} is below "
                            f"{MIN_IMAGE_SIDE}x{MIN_IMAGE_SIDE}")

    step = 2.0 ** (1.0 / INTERVALS)
    pyramid = _gaussian_pyramid(img)
    # Features' arrays for each pyramid level, after empty ones.
    found = [(np.empty((0, 2)), np.empty(0), np.empty(0), np.empty((0, 64)), np.empty(0))]
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
            found.append((refined[at[ok]] * 2 ** octave,
                          np.full(np.count_nonzero(ok), sigma_oct * 2 ** octave),
                          thetas[ok], descs[ok], responses[at[ok]]))

    arrays = [np.concatenate(column) for column in zip(*found)]
    positions, responses = arrays[0], arrays[-1]
    order = np.lexsort((positions[:, 0], positions[:, 1], -responses))  # stable
    return Features(*(a[order[:max_features]] for a in arrays))


def match_features(a: Features, b: Features) -> np.ndarray:
    """Mutual-nearest-neighbor descriptor matching with a ratio test.

    Returns an (m, 2) array of (index in a, index in b) pairs, sorted by the
    first index. A pair is kept only when each side is the other's nearest
    neighbor and passes the nearest/second-nearest ratio test at
    ``MATCH_RATIO``, which makes the result symmetric in ``a`` and ``b``.
    """
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
        # Tied nearest neighbours fail the ratio test, so their order is free.
        order = np.argpartition(dist, min(1, dist.shape[1] - 1), axis=1)
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
