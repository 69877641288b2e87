#!/usr/bin/env python3
"""Bundle-adjustment scaling curve: seconds per LM iteration against points.

Builds seeded scenes in which every point is seen by every view: 5-view
arcs (60 degree sweep) at 500, 1000, 1500 and 3000 points, then a closed
20-view ring around 10 000 points. With ``--sparse VIEWS ...`` it then
builds a closed ring of each given view count in which every point is seen
by 4 consecutive views only, with 5000 points per 24 views (24 x 5000,
48 x 10 000 and 96 x 20 000 are the sparse-visibility rows of the ROADMAP's
profile). Observations carry 0.5 px noise, the
starting points 2 mm per coordinate, and the poses start at the truth.
Each scene is adjusted once with ``bundle_adjust`` and ``LmConfig()``; the
script prints the time to converge, the LM iterations and termination
reason, the seconds per iteration, the final mean reprojection error and
the process's peak resident set so far (``ru_maxrss``), so each row's
memory is read next to its time: the rows run in order of size, so a row's
peak is its scene's unless an earlier row's was larger.

Usage: python scripts/ba_scaling.py [--seed 0] [--no-ring] [--sparse VIEWS ...]
"""

import argparse
import resource
import time

import numpy as np

from camkit import (
    CameraIntrinsics,
    DistortionCoeffs,
    LmConfig,
    SfmScene,
    Track,
    bundle_adjust,
    project,
)
from camkit.synthetic import sample_ring_poses

SIZES = (500, 1000, 1500, 3000)
RING_VIEWS = 20
RING_POINTS = 10_000
SPARSE_SEEN_BY = 4
SPARSE_POINTS = 5000  # per 24 views


def make_scene(n_views: int, n_points: int, sweep_deg: float, seen_by: int,
               rng: np.random.Generator) -> SfmScene:
    """Views on an arc of radius 500 mm around points in a 200 mm box,
    expressed in the first camera's frame as incremental SfM leaves it.

    Point i is seen by the ``seen_by`` views from view ``i % n_views`` on,
    around the ring; ``seen_by=n_views`` has every view see every point."""
    k = CameraIntrinsics(fx=839.3458, fy=839.5573, cx=332.3661, cy=259.5099)
    dist = DistortionCoeffs(k1=0.0101, k2=-0.1883)
    ring = sample_ring_poses(n_views, radius=500.0, elevation_deg=25.0,
                             sweep_deg=sweep_deg,
                             start_deg=float(rng.uniform(0.0, 360.0)))
    first = ring[0]
    poses = {v: pose.compose(first.inverse()) for v, pose in enumerate(ring)}
    truth = first.transform(rng.uniform(-100.0, 100.0, size=(n_points, 3)))
    features = {v: project(truth, pose, k, dist)
                + rng.normal(0.0, 0.5, size=(n_points, 2))
                for v, pose in poses.items()}
    start = truth + rng.normal(0.0, 2.0, size=truth.shape)
    observations = [tuple(sorted(((i + k) % n_views, i) for k in range(seen_by)))
                    for i in range(n_points)]
    tracks = [Track(observations=obs, point=point, valid=True)
              for obs, point in zip(observations, start)]
    return SfmScene(intrinsics=k, distortion=dist, poses=poses,
                    view_order=tuple(range(n_views)), tracks=tracks,
                    features=features,
                    intensities={v: np.zeros(n_points) for v in poses})


def adjust(scene: SfmScene):
    """Run ``bundle_adjust``; return its scene, LM report and seconds."""
    start = time.perf_counter()
    adjusted = bundle_adjust(scene, LmConfig())
    seconds = time.perf_counter() - start
    return adjusted, adjusted.lm_report, seconds


def peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-ring", action="store_true",
                        help="skip the 20-view ring")
    parser.add_argument("--sparse", type=int, nargs="+", default=[], metavar="VIEWS",
                        help="closed rings of these view counts, each point "
                             f"seen by {SPARSE_SEEN_BY} consecutive views")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    cases = [(5, n, 60.0, 5) for n in SIZES]
    if not args.no_ring:
        cases.append((RING_VIEWS, RING_POINTS, 360.0 * (1 - 1 / RING_VIEWS),
                      RING_VIEWS))
    cases += [(v, SPARSE_POINTS * v // 24, 360.0 * (1 - 1 / v), SPARSE_SEEN_BY)
              for v in args.sparse]
    print(f"{'views':>5} {'points':>6} {'observations':>12} {'converge_s':>10} "
          f"{'iters':>5} {'s_per_iter':>10} {'reason':>9} {'error_px':>8} "
          f"{'peak_rss_mb':>11}")
    for n_views, n_points, sweep, seen_by in cases:
        scene = make_scene(n_views, n_points, sweep, seen_by, rng)
        adjusted, report, seconds = adjust(scene)
        observations = sum(len(t.observations) for t in scene.tracks)
        print(f"{n_views:>5} {n_points:>6} {observations:>12} "
              f"{seconds:>10.3f} {report.iterations:>5} "
              f"{seconds / report.iterations:>10.4f} {report.reason:>9} "
              f"{adjusted.mean_reprojection_error:>8.4f} {peak_rss_mb():>11.1f}",
              flush=True)


if __name__ == "__main__":
    main()
