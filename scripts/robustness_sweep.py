#!/usr/bin/env python3
"""Robustness sweep of the cube reconstruction over a grid of generator seeds.

Each cell renders a ring of cube views (``sample_ring_poses``: radius
450 mm, looking at the cube's centre) with one texture seed, ring start and
lens, then runs ``reconstruct`` at one RANSAC seed under the true
calibration. The default grid is texture seeds 7, 11 and 3 x ring starts of
21, 111, 201 and 291 degrees x no lens and the README lens x RANSAC seeds
0-3, with 5 views over 48 degrees at 30 degrees of elevation: 96 cells.
Every axis can be narrowed, or the ring changed, from the command line.

One row per cell: the outcome (``ok`` when every view registers, else the
exception's type), the failing view and the exception's reason, the number
of valid points, the mean reprojection error in px, the RMS of
``camkit.synthetic.cloud_error`` in mm and the wall time of ``reconstruct``
in seconds. The last line is a summary: the number of cells that register
every view, and the failures by type.

Usage: python scripts/robustness_sweep.py [--textures 7 11 3]
    [--starts 21 111 201 291] [--lenses none readme] [--seeds 0 1 2 3]
    [--views 5] [--sweep 48] [--elevation 30]
"""

import argparse
import time
from collections import Counter

from camkit import CameraIntrinsics, DistortionCoeffs, reconstruct
from camkit.errors import CamkitError
from camkit.synthetic import (
    CubeScene,
    cloud_error,
    render_cube_view,
    sample_ring_poses,
)

WIDTH, HEIGHT = 640, 480
K = CameraIntrinsics(fx=839.3458, fy=839.5573, cx=332.3661, cy=259.5099)
LENSES = {"none": DistortionCoeffs(),
          "readme": DistortionCoeffs(k1=0.0101, k2=-0.1883)}


def sweep(textures, starts, lenses, seeds, n_views, sweep_deg, elevation_deg):
    """Yield ``(texture, start, lens, seed, outcome, seconds)`` for every
    cell, where ``outcome`` is the reconstructed scene with its
    ``cloud_error``, or the exception ``reconstruct`` raised, and ``seconds``
    the wall time of that ``reconstruct`` call. Each ring is rendered once for
    all of its RANSAC seeds."""
    for texture in textures:
        cube = CubeScene(edge=200.0, texture_seed=texture)
        for start in starts:
            poses = sample_ring_poses(n_views, radius=450.0,
                                      elevation_deg=elevation_deg,
                                      sweep_deg=sweep_deg, start_deg=start)
            for lens in lenses:
                images = [render_cube_view(cube, K, LENSES[lens], p, WIDTH, HEIGHT)
                          for p in poses]
                for seed in seeds:
                    began = time.perf_counter()
                    try:
                        outcome = reconstruct(images, K, LENSES[lens], seed=seed)
                    except CamkitError as exc:
                        outcome = exc
                    seconds = time.perf_counter() - began
                    if not isinstance(outcome, CamkitError):
                        outcome = (outcome, cloud_error(outcome, cube, poses))
                    yield texture, start, lens, seed, outcome, seconds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--textures", type=int, nargs="+", default=[7, 11, 3])
    parser.add_argument("--starts", type=float, nargs="+",
                        default=[21.0, 111.0, 201.0, 291.0])
    parser.add_argument("--lenses", nargs="+", choices=sorted(LENSES),
                        default=["none", "readme"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--views", type=int, default=5)
    parser.add_argument("--sweep", type=float, default=48.0)
    parser.add_argument("--elevation", type=float, default=30.0)
    args = parser.parse_args()

    print(f"{'texture':>7} {'start':>5} {'lens':>6} {'seed':>4} {'outcome':<20} "
          f"{'view':>4} {'points':>6} {'mean px':>9} {'rms mm':>8} {'recon s':>7}  reason")
    cells, failures = 0, Counter()
    for texture, start, lens, seed, outcome, seconds in sweep(
            args.textures, args.starts, args.lenses, args.seeds, args.views,
            args.sweep, args.elevation):
        cells += 1
        head = f"{texture:7d} {start:5.0f} {lens:>6} {seed:4d}"
        if isinstance(outcome, CamkitError):
            failures[type(outcome).__name__] += 1
            view = getattr(outcome, "view_id", None)
            print(f"{head} {type(outcome).__name__:<20} "
                  f"{'-' if view is None else view:>4} {'-':>6} {'-':>9} {'-':>8} "
                  f"{seconds:7.3f}  {outcome}")
            continue
        scene, err = outcome
        print(f"{head} {'ok':<20} {'-':>4} {len(scene.valid_tracks()):6d} "
              f"{scene.mean_reprojection_error:9.6f} {err.rms:8.4f} {seconds:7.3f}")
    failed = ", ".join(f"{name} {n}" for name, n in sorted(failures.items()))
    print(f"summary: {cells - sum(failures.values())} of {cells} cells register "
          f"{args.views} of {args.views} views; failed: {failed or 'none'}")


if __name__ == "__main__":
    main()
