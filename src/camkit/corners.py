"""Checkerboard corner detection with subpixel refinement.

Pipeline: saddle-point corner response (negated Hessian determinant, which
peaks sharply at X-junction centers where gradient-based responses plateau),
non-maximum suppression, quadratic-surface subpixel refinement on the
response, an intensity ring test that keeps only X-junctions (interior
corners), then greedy lattice growth from the strongest corner to establish
the grid ordering. Every step works on one crop of the image: its structure
box (the pixels that differ from a neighbour) grown by ``_HALO``, the reach
of the filters, suppression and ring test, from a tenth to a fifth of the
pixels of a board render. Beyond the box each row and column repeats its
nearest box pixel, so filtering the crop gives the full-frame values on it,
and detection finds the corners that full-frame filtering would; the crop's
origin is added back to the candidates before the subpixel offsets. The
suppression, the subpixel refinement and the ring test each handle all
candidates at once, through the batched helpers of :mod:`camkit.imageops`
that feature detection also uses.

Orientation: one homography H maps the board's corners to the grid as
assembled. Reversing the grid's rows or columns reflects the board frame
about its centre, so the sign of ``det(H) w`` there (the Jacobian
determinant is ``det(H) / w^3``), flipped once per reversal, keeps two of
the four orderings; the board's is the one whose square diagonally inward
from the origin corner reads ``_MIN_CONTRAST`` darker than the one beside it.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy import ndimage

from .board import CheckerboardSpec, CornerGrid, board_world_points
from .errors import AmbiguousGrid, BoardNotFound, CountMismatch
from .homography import apply_homography, estimate_homography
from .imageops import bilinear_sample, quadratic_peak_offset, structure_box, to_float, window_extrema

_RESPONSE_FLOOR = 1e-9
_RELATIVE_THRESHOLD = 5e-3
_RESPONSE_SIGMA = 2.0
_SMOOTH_SIGMA = 1.0
_RING_RADIUS = 4.0
_RING_SAMPLES = 16
_RING_ANGLES = 2 * np.pi * np.arange(_RING_SAMPLES) / _RING_SAMPLES
_RING = _RING_RADIUS * np.column_stack([np.cos(_RING_ANGLES), np.sin(_RING_ANGLES)])
# The least smoothed grey-level difference (on [0, 1]) that tells black from
# white, across a candidate's ring and between the squares that orient a grid.
_MIN_CONTRAST = 0.15
# Detection reads the image's structure box grown by this many pixels: the
# response filter's radius (8), the suppression reach (radius + 1 = 4) and
# the ring test's reach (4, plus 1 for the bilinear neighbour).
_HALO = 17


def corner_response(image: np.ndarray) -> np.ndarray:
    """Saddle-point response of a grayscale image: ``Ixy^2 - Ixx Iyy``.

    This is the negated determinant of the Hessian smoothed by a Gaussian of
    ``_RESPONSE_SIGMA`` = 2 pixels. It is rotation invariant, strongly
    positive exactly at checkerboard X-junction centers, negative at blobs,
    and near zero along straight edges.
    """
    img = to_float(image)
    ixx = ndimage.gaussian_filter(img, _RESPONSE_SIGMA, order=(0, 2), mode="nearest")
    iyy = ndimage.gaussian_filter(img, _RESPONSE_SIGMA, order=(2, 0), mode="nearest")
    ixy = ndimage.gaussian_filter(img, _RESPONSE_SIGMA, order=(1, 1), mode="nearest")
    return ixy * ixy - ixx * iyy


def _local_maxima(resp: np.ndarray, radius: int, threshold: float) -> np.ndarray:
    """(u, v) pixels above ``threshold`` and at least ``radius + 1`` from the
    border that are the maximum of their ``(2 radius + 1)``-square window,
    in row-major order; only those pixels are compared with their window."""
    b = radius + 1
    cand = np.argwhere(resp[b:-b, b:-b] > threshold) + b
    return cand[window_extrema(resp, cand, radius)[0], ::-1]


def _x_junction_mask(img: np.ndarray, origin, candidates: np.ndarray) -> np.ndarray:
    """Keep candidates whose surrounding intensity ring is point-symmetric.

    Interior board corners see the same color on opposite sides of the ring;
    L-junctions on the board boundary (and the margin's outer corners) do
    not, so this separates the interior grid from everything else. ``img``
    is a crop whose pixel (0, 0) is at ``origin``; a ring that leaves it
    rejects its candidate.
    """
    ring = candidates[:, None, :] + _RING - origin
    vals = bilinear_sample(img, ring[..., 0], ring[..., 1], fill=np.nan)
    contrast = vals.max(axis=1) - vals.min(axis=1)
    half = _RING_SAMPLES // 2
    asym = np.mean(np.abs(vals[:, :half] - vals[:, half:]), axis=1)
    return (~np.isnan(vals).any(axis=1) & (contrast >= _MIN_CONTRAST)
            & (asym < 0.3 * contrast))


def _grow_lattice(points: np.ndarray, responses: np.ndarray, min_separation: float,
                  smooth: np.ndarray, origin) -> dict[tuple[int, int], int]:
    """Greedy BFS assignment of candidates to integer lattice coordinates.

    A basis step from the seed counts only if ``smooth``, the smoothed crop
    whose pixel (0, 0) is at ``origin``, reads the seed's level at its midpoint
    within a quarter of the seed ring's contrast: an axis step's midpoint is
    on a black-white edge, a diagonal's inside a square."""
    seed = int(np.argmax(responses))
    rel = points - points[seed]
    dist = np.linalg.norm(rel, axis=1)
    order = np.argsort(dist)
    here = points[seed] - origin
    contrast = np.ptp(bilinear_sample(smooth, *(here + _RING).T))
    mids = bilinear_sample(smooth, *(here + rel / 2).T)  # mids[seed]: the seed's level
    on_edge = np.abs(mids - mids[seed]) < 0.25 * contrast

    va = vb = None
    for idx in order[1:]:
        v = rel[idx]
        if dist[idx] < min_separation or not on_edge[idx]:
            continue
        if va is None:
            va = v
        elif abs(va[0] * v[1] - va[1] * v[0]) / (np.linalg.norm(va) * dist[idx]) > 0.5:
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


def detect_corners(image: np.ndarray, spec: CheckerboardSpec,
                   view_id: str = "") -> CornerGrid:
    """Find all interior corners of ``spec``'s board in a grayscale image.

    Returns a CornerGrid ordered consistently with
    :func:`camkit.board.board_world_points`. Raises BoardNotFound when too
    few candidates exist, AmbiguousGrid when no single consistent ordering
    exists, and CountMismatch when a complete grid of the wrong size is
    found.
    """
    rows, cols = structure_box(image, _HALO)
    img = to_float(np.asarray(image)[rows, cols])
    origin = np.array([cols.start, rows.start])  # the (u, v) of img[0, 0]
    resp = corner_response(img)
    max_resp = float(resp.max())
    if max_resp <= _RESPONSE_FLOOR:
        raise BoardNotFound("no corner response above the noise floor")

    candidates = _local_maxima(resp, radius=3, threshold=_RELATIVE_THRESHOLD * max_resp)
    if len(candidates) < 4:
        raise BoardNotFound(f"only {len(candidates)} corner candidates")

    us, vs = candidates.T
    step = np.arange(-1, 2)
    patches = resp[vs[:, None, None] + step[:, None], us[:, None, None] + step]
    # Frame coordinates before the offsets, so that corners round as they do
    # on the full frame; crop samples subtract the origin last, exactly.
    refined = (candidates + origin) + quadratic_peak_offset(patches)

    smooth = ndimage.gaussian_filter(img, _SMOOTH_SIGMA, mode="nearest")
    keep = _x_junction_mask(smooth, origin, refined)
    refined = refined[keep]
    if len(refined) < 4:
        raise BoardNotFound("too few X-junction candidates")
    responses = resp[vs[keep], us[keep]]

    lattice = _grow_lattice(refined, responses, 4.0, smooth, origin)
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
    if dims not in ((nx, ny), (ny, nx)):
        raise CountMismatch(f"found a {dims[0]}x{dims[1]} grid, expected {nx}x{ny}")

    grid = np.empty((dims[1], dims[0], 2))
    for (p, q), idx in lattice.items():
        grid[q - q0, p - p0] = refined[idx]
    if dims != (nx, ny):
        grid = grid.transpose(1, 0, 2)

    return CornerGrid(corners=_orient_grid(grid, smooth, origin, spec), view_id=view_id)


def _orient_grid(grid: np.ndarray, smooth: np.ndarray, origin,
                 spec: CheckerboardSpec) -> np.ndarray:
    """The corners of an assembled ``(ny, nx, 2)`` grid in board order.

    ``smooth`` is the smoothed crop whose pixel (0, 0) is at ``origin``."""
    world = board_world_points(spec)[:, :2]
    far = world[-1]  # the corner opposite the origin
    h = estimate_homography(world, grid.reshape(-1, 2))
    handed = np.linalg.det(h) * (h[2] @ np.append(far / 2.0, 1.0))
    probes = spec.square_size * np.array([[0.5, 0.5], [1.5, 0.5]])
    accepted = None
    for flip_i in (False, True):
        for flip_j in (False, True):
            if handed * (-1) ** (flip_i + flip_j) <= 0:
                continue
            mirrored = np.where([flip_i, flip_j], far - probes, probes)
            inner, outer = bilinear_sample(smooth, *(apply_homography(h, mirrored) - origin).T)
            if outer - inner > _MIN_CONTRAST:
                if accepted is not None:
                    raise AmbiguousGrid("two orientations both look valid")
                cand = grid[::-1] if flip_j else grid
                accepted = (cand[:, ::-1] if flip_i else cand).reshape(-1, 2)
    if accepted is None:
        raise AmbiguousGrid("no orientation satisfies the coloring rule")
    return accepted
