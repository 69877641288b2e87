"""Small shared raster helpers for corner and feature detection: the crop of
an image's structure box, and window-extremum tests, sub-pixel peak fits and
bilinear samples, each over a whole batch of positions, patches or points."""

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
    """uint8 image to float64 in [0, 1]; other input passes through as
    float64, not copied if it already is. Callers must not write to it."""
    img = np.asarray(image)
    if img.dtype == np.uint8:
        return img.astype(np.float64) / 255.0
    return np.asarray(img, dtype=np.float64)


def structure_box(image: np.ndarray, halo: int) -> tuple[slice, slice]:
    """Row and column slices of the image's structure box grown by ``halo``
    pixels a side and clipped to the image.

    The structure box bounds the pixels that differ from a 4-neighbour; an
    image without structure has its top-left pixel as the box. Outside the
    box each row and column repeats its nearest box pixel, so
    ``mode="nearest"`` separable filters run on the crop equal the
    full-frame filters on it, bit for bit; ``halo`` keeps the pixels near
    the box where a filtered image still varies.
    """
    image = np.asarray(image)
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
    r0, r1 = (r[0], r[-1] + 1) if len(r) else (0, 1)
    c0, c1 = (c[0], c[-1] + 1) if len(c) else (0, 1)
    return (slice(int(max(r0 - halo, 0)), int(min(r1 + halo, h))),
            slice(int(max(c0 - halo, 0)), int(min(c1 + halo, w))))


def window_extrema(values: np.ndarray, at: np.ndarray, radius: int):
    """Masks ``(is_max, is_min)`` of the ``(n, ndim)`` indices ``at`` whose
    entry is the maximum, or the minimum, ties included, of its window of
    ``2 radius + 1`` entries a side. Each window must lie inside ``values``."""
    values = np.ascontiguousarray(values)
    flat = values.ravel()
    center_at = np.ravel_multi_index(np.transpose(at), values.shape)
    center = flat[center_at]
    # The window as flat offsets from its centre, which passes both tests.
    span = np.indices((2 * radius + 1,) * values.ndim).reshape(values.ndim, -1) - radius
    is_max, is_min = np.ones((2, len(center)), dtype=bool)
    for offset in span.T @ np.array(values.strides) // values.itemsize:
        neighbour = flat[center_at + offset]
        is_max &= center >= neighbour
        is_min &= center <= neighbour
    return is_max, is_min


def bilinear_sample(image, u, v, fill: float = 0.0) -> np.ndarray:
    """Bilinear samples of a float image at ``(u, v)``, u along columns and v
    along rows: arrays of one shape, which the result takes. Points outside
    ``[0, w-1] x [0, h-1]`` return ``fill``."""
    img = np.asarray(image, dtype=np.float64)
    u, v = (np.asarray(c, dtype=np.float64) for c in (u, v))
    h, w = img.shape

    uc = np.clip(u, 0, w - 1)
    vc = np.clip(v, 0, h - 1)
    inside = (uc == u) & (vc == v)  # clipping moves outside points; NaN equals nothing
    # Each cell's top-left node (the cast floors the non-negative uc, vc); the
    # other three lie du, dv and du + dv entries on in the flat image.
    u0 = np.clip(uc.astype(np.int64), 0, max(w - 2, 0))
    v0 = np.clip(vc.astype(np.int64), 0, max(h - 2, 0))
    fu, fv = uc - u0, vc - v0
    gu, gv = 1 - fu, 1 - fv

    flat = img.ravel()
    i00 = v0 * w + u0
    du, dv = int(w > 1), w * int(h > 1)
    out = (flat[i00] * gu * gv + flat[i00 + du] * fu * gv
           + flat[i00 + dv] * gu * fv + flat[i00 + (du + dv)] * fu * fv)
    return np.where(inside, out, fill)
