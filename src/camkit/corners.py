"""Checkerboard corner detection with subpixel refinement.

Pipeline: saddle-point corner response (negated Hessian determinant, which
peaks sharply at X-junction centers where gradient-based responses plateau),
non-maximum suppression, quadratic-surface subpixel refinement on the
response, an intensity ring test that keeps only X-junctions (interior
corners), then greedy lattice growth from the strongest corner to establish
the grid ordering. The response and the ring test's smoothing filter only
the image's structure box (the pixels that differ from a neighbour, grown by
the filter radius) and edge-pad the result: the same arrays as full-frame
filtering, from a tenth to a fifth of the pixels of a board render. The
subpixel refinement and the ring test each handle all candidates at once,
through the batched helpers of :mod:`camkit.imageops`. The 180-degree
ambiguity of the asymmetric board is resolved by requiring the square
diagonally inward from the origin corner to be black.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .board import CheckerboardSpec, CornerGrid
from .errors import AmbiguousGrid, BoardNotFound, CountMismatch
from .homography import apply_homography, estimate_homography
from .imageops import (bilinear_sample, quadratic_peak_offset,
                       structure_box_filter, to_float)

_RESPONSE_FLOOR = 1e-9
_RELATIVE_THRESHOLD = 5e-3
_RESPONSE_SIGMA = 2.0
_SMOOTH_SIGMA = 1.0
_RING_RADIUS = 4.0
_RING_SAMPLES = 16
_RING_ANGLES = 2 * np.pi * np.arange(_RING_SAMPLES) / _RING_SAMPLES
_RING = _RING_RADIUS * np.column_stack([np.cos(_RING_ANGLES), np.sin(_RING_ANGLES)])


def corner_response(image: np.ndarray) -> np.ndarray:
    """Saddle-point response of a grayscale image: ``Ixy^2 - Ixx Iyy``.

    This is the negated determinant of the Hessian smoothed by a Gaussian of
    ``_RESPONSE_SIGMA`` = 2 pixels. It is rotation invariant, strongly
    positive exactly at checkerboard X-junction centers, negative at blobs,
    and near zero along straight edges. The filters run on the image's
    structure box, with the same output as on the full frame.
    """
    return structure_box_filter(to_float(image), _RESPONSE_SIGMA, _saddle)


def _saddle(img: np.ndarray) -> np.ndarray:
    ixx = ndimage.gaussian_filter(img, _RESPONSE_SIGMA, order=(0, 2), mode="nearest")
    iyy = ndimage.gaussian_filter(img, _RESPONSE_SIGMA, order=(2, 0), mode="nearest")
    ixy = ndimage.gaussian_filter(img, _RESPONSE_SIGMA, order=(1, 1), mode="nearest")
    return ixy * ixy - ixx * iyy


def _smooth(img: np.ndarray) -> np.ndarray:
    return ndimage.gaussian_filter(img, _SMOOTH_SIGMA, mode="nearest")


def _local_maxima(resp: np.ndarray, radius: int, threshold: float) -> np.ndarray:
    footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    peaks = (resp == ndimage.maximum_filter(resp, footprint=footprint)) & (resp > threshold)
    peaks[:radius + 1, :] = False
    peaks[-radius - 1:, :] = False
    peaks[:, :radius + 1] = False
    peaks[:, -radius - 1:] = False
    vs, us = np.nonzero(peaks)
    return np.column_stack([us, vs])


def _x_junction_mask(img: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Keep candidates whose surrounding intensity ring is point-symmetric.

    Interior board corners see the same color on opposite sides of the ring;
    L-junctions on the board boundary (and the margin's outer corners) do
    not, so this separates the interior grid from everything else. A ring
    that leaves the image rejects its candidate.
    """
    vals = bilinear_sample(img, candidates[:, None, :] + _RING, fill=np.nan)
    contrast = vals.max(axis=1) - vals.min(axis=1)
    half = _RING_SAMPLES // 2
    asym = np.mean(np.abs(vals[:, :half] - vals[:, half:]), axis=1)
    return (~np.isnan(vals).any(axis=1) & (contrast >= 0.15)
            & (asym < 0.3 * contrast))


def _grow_lattice(points: np.ndarray, responses: np.ndarray,
                  min_separation: float) -> dict[tuple[int, int], int]:
    """Greedy BFS assignment of candidates to integer lattice coordinates."""
    seed = int(np.argmax(responses))
    rel = points - points[seed]
    dist = np.linalg.norm(rel, axis=1)
    order = np.argsort(dist)

    va = None
    vb = None
    for idx in order[1:]:
        v = rel[idx]
        if dist[idx] < min_separation:
            continue
        if va is None:
            va = v
            continue
        sin_angle = abs(va[0] * v[1] - va[1] * v[0]) / (np.linalg.norm(va) * dist[idx])
        if sin_angle > 0.5:
            vb = v
            break
    if va is None or vb is None:
        raise BoardNotFound("not enough corner candidates to seed a lattice")

    base = {(1, 0): va, (-1, 0): -va, (0, 1): vb, (0, -1): -vb}
    lattice: dict[tuple[int, int], int] = {(0, 0): seed}
    claimed = np.zeros(len(points), dtype=bool)
    claimed[seed] = True
    queue = deque([(0, 0)])
    while queue:
        p, q = queue.popleft()
        here = points[lattice[(p, q)]]
        for dp, dq in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cell = (p + dp, q + dq)
            if cell in lattice:
                continue
            behind = (p - dp, q - dq)
            if behind in lattice:
                predicted = 2.0 * here - points[lattice[behind]]
            else:
                predicted = here + base[(dp, dq)]
            gaps = np.linalg.norm(points - predicted, axis=1)
            gaps[claimed] = np.inf
            j = int(np.argmin(gaps))
            if gaps[j] < 0.3 * np.linalg.norm(predicted - here):
                lattice[cell] = j
                claimed[j] = True
                queue.append(cell)
    return lattice


def _map_jacobian_sign(h: np.ndarray, center: np.ndarray) -> float:
    eps = 1e-3
    probe = np.array([center, center + [eps, 0.0], center + [0.0, eps]])
    mapped = apply_homography(h, probe)
    j = np.column_stack([mapped[1] - mapped[0], mapped[2] - mapped[0]])
    return float(np.linalg.det(j))


def detect_corners(image: np.ndarray, spec: CheckerboardSpec,
                   view_id: str = "") -> CornerGrid:
    """Find all interior corners of ``spec``'s board in a grayscale image.

    Returns a CornerGrid ordered consistently with
    :func:`camkit.board.board_world_points`. Raises BoardNotFound when too
    few candidates exist, AmbiguousGrid when no single consistent ordering
    exists, and CountMismatch when a complete grid of the wrong size is
    found.
    """
    img = to_float(image)
    resp = corner_response(img)
    max_resp = float(resp.max())
    if max_resp <= _RESPONSE_FLOOR:
        raise BoardNotFound("no corner response above the noise floor")

    candidates = _local_maxima(resp, radius=3, threshold=_RELATIVE_THRESHOLD * max_resp)
    if len(candidates) < 4:
        raise BoardNotFound(f"only {len(candidates)} corner candidates")

    us, vs = candidates.T
    patches = sliding_window_view(resp, (3, 3))[vs - 1, us - 1]
    refined = candidates + quadratic_peak_offset(patches)

    smooth = structure_box_filter(img, _SMOOTH_SIGMA, _smooth)
    keep = _x_junction_mask(smooth, refined)
    refined = refined[keep]
    if len(refined) < 4:
        raise BoardNotFound("too few X-junction candidates")
    responses = resp[candidates[keep][:, 1], candidates[keep][:, 0]]

    lattice = _grow_lattice(refined, responses, min_separation=4.0)
    if len(lattice) < 4:
        raise BoardNotFound("lattice growth collapsed")

    ps = [c[0] for c in lattice]
    qs = [c[1] for c in lattice]
    p0, p1 = min(ps), max(ps)
    q0, q1 = min(qs), max(qs)
    dims = (p1 - p0 + 1, q1 - q0 + 1)
    if len(lattice) != dims[0] * dims[1]:
        raise AmbiguousGrid(
            f"assembled {len(lattice)} corners in a {dims[0]}x{dims[1]} bounding box"
        )

    nx, ny = spec.corners_x, spec.corners_y
    if dims == (nx, ny):
        cell_of = lambda p, q: (p - p0, q - q0)
    elif dims == (ny, nx):
        cell_of = lambda p, q: (q - q0, p - p0)
    else:
        raise CountMismatch(f"found a {dims[0]}x{dims[1]} grid, expected {nx}x{ny}")

    grid = np.empty((ny, nx, 2))
    for (p, q), idx in lattice.items():
        i, j = cell_of(p, q)
        grid[j, i] = refined[idx]

    world = np.array([(i * spec.square_size, j * spec.square_size)
                      for j in range(ny) for i in range(nx)])
    s = spec.square_size
    accepted = None
    for flip_i in (False, True):
        for flip_j in (False, True):
            cand = grid[::-1] if flip_j else grid
            cand = cand[:, ::-1] if flip_i else cand
            pixels = cand.reshape(-1, 2)
            h = estimate_homography(world, pixels)
            center = np.array([(nx - 1) * s / 2.0, (ny - 1) * s / 2.0])
            if _map_jacobian_sign(h, center) <= 0:
                continue
            inner = bilinear_sample(smooth, apply_homography(h, [[s / 2, s / 2]]))[0]
            outer = bilinear_sample(smooth, apply_homography(h, [[3 * s / 2, s / 2]]))[0]
            if inner < 0.4 and outer > 0.6:
                if accepted is not None:
                    raise AmbiguousGrid("two orientations both look valid")
                accepted = pixels
    if accepted is None:
        raise AmbiguousGrid("no orientation satisfies the coloring rule")
    return CornerGrid(corners=accepted, view_id=view_id)
