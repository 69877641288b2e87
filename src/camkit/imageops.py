"""Small shared raster helpers: Gaussian filtering of an image's structure
box, and sub-pixel peak fits and bilinear samples, each over a whole batch of
patches or points."""

from __future__ import annotations

import numpy as np

# Pseudo-inverse of the quadratic design [x^2, y^2, xy, x, y, 1] on the 3x3
# offset stencil, computed once at import.
_STENCIL = np.array([(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)], dtype=float)
_QUAD_PINV = np.linalg.pinv(np.column_stack([
    _STENCIL[:, 0] ** 2,
    _STENCIL[:, 1] ** 2,
    _STENCIL[:, 0] * _STENCIL[:, 1],
    _STENCIL[:, 0],
    _STENCIL[:, 1],
    np.ones(9),
]))


def quadratic_peak_offset(patches: np.ndarray) -> np.ndarray:
    """Subpixel offsets of the extrema of the LSQ quadratic fits to an
    ``(n, 3, 3)`` stack of patches, as an ``(n, 2)`` array.

    Offsets are clamped to [-1, 1] per axis; a singular fit gives (0, 0).
    Each patch gets the same BLAS and LAPACK calls as it would alone, so its
    offset does not depend on the rest of the stack.
    """
    patches = np.asarray(patches, dtype=np.float64).reshape(-1, 9, 1)
    a, b, c, d, e, _ = (_QUAD_PINV @ patches)[:, :, 0].T  # one gemv per patch
    hess = np.stack([2 * a, c, c, 2 * b], axis=1).reshape(-1, 2, 2)
    rhs = np.stack([-d, -e], axis=1)[:, :, None]
    regular = ~(np.abs(np.linalg.det(hess)) < 1e-18)
    offsets = np.zeros((len(patches), 2))
    offsets[regular] = np.linalg.solve(hess[regular], rhs[regular])[:, :, 0]
    return np.clip(offsets, -1.0, 1.0)


def to_float(image: np.ndarray) -> np.ndarray:
    """uint8 image to float64 in [0, 1]; float input passes through."""
    img = np.asarray(image)
    if img.dtype == np.uint8:
        return img.astype(np.float64) / 255.0
    return img.astype(np.float64)


def structure_box_filter(image: np.ndarray, sigma: float, filt) -> np.ndarray:
    """``filt(image)``, computed only on the image's structure box.

    The structure box bounds the pixels that differ from a 4-neighbour.
    Outside it the image is the box's nearest-neighbour extension, so a
    ``mode="nearest"`` separable filter run on the box grown by the
    Gaussian radius ``int(4 * sigma + 0.5)`` equals the full-frame filter
    there bit for bit, and beyond it equals the grown box's edge values.
    ``filt`` may therefore apply ``mode="nearest"`` Gaussian filters of at
    most ``sigma`` at scipy's default truncation to the 2-D float array it
    gets, then combine them pixel by pixel. An image without structure
    filters its corner; a noisy one filters the full frame.
    """
    h, w = image.shape
    dx = image[:, 1:] != image[:, :-1]  # steps between columns c and c + 1
    dy = image[1:] != image[:-1]  # steps between rows r and r + 1
    step_r, step_c = dy.any(axis=1), dx.any(axis=0)
    rows, cols = dx.any(axis=1), dy.any(axis=0)
    rows[:-1] |= step_r
    rows[1:] |= step_r
    cols[:-1] |= step_c
    cols[1:] |= step_c
    r = np.flatnonzero(rows)
    c = np.flatnonzero(cols)
    halo = int(4 * sigma + 0.5)
    r0, r1 = (r[0], r[-1] + 1) if len(r) else (0, 1)
    c0, c1 = (c[0], c[-1] + 1) if len(c) else (0, 1)
    r0, r1 = max(r0 - halo, 0), min(r1 + halo, h)
    c0, c1 = max(c0 - halo, 0), min(c1 + halo, w)
    out = filt(image[r0:r1, c0:c1])
    return np.pad(out, ((r0, h - r1), (c0, w - c1)), mode="edge")


def bilinear_sample(image: np.ndarray, points, fill: float = 0.0) -> np.ndarray:
    """Sample a float image at (u, v) positions with bilinear interpolation.

    Points outside ``[0, w-1] x [0, h-1]`` return ``fill``. ``points`` has
    shape (..., 2) with u along columns, v along rows; the result has shape
    (...), one value per point.
    """
    img = np.asarray(image, dtype=np.float64)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    h, w = img.shape
    u, v = pts[..., 0], pts[..., 1]

    inside = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.clip(u, 0, w - 1)
    vc = np.clip(v, 0, h - 1)
    u0 = np.clip(np.floor(uc).astype(np.int64), 0, max(w - 2, 0))
    v0 = np.clip(np.floor(vc).astype(np.int64), 0, max(h - 2, 0))
    fu = uc - u0
    fv = vc - v0

    i00 = img[v0, u0]
    i01 = img[v0, np.minimum(u0 + 1, w - 1)]
    i10 = img[np.minimum(v0 + 1, h - 1), u0]
    i11 = img[np.minimum(v0 + 1, h - 1), np.minimum(u0 + 1, w - 1)]
    out = (i00 * (1 - fu) * (1 - fv) + i01 * fu * (1 - fv)
           + i10 * (1 - fu) * fv + i11 * fu * fv)
    return np.where(inside, out, fill)
