#!/usr/bin/env python3
"""Reconstruct the synthetic textured cube and measure accuracy against the
known geometry.

Renders a 5-view corner-on capture of a 200 mm cube, runs the incremental
reconstruction, aligns the cloud to ground truth by a similarity fit, counts
the points within 2 % of the edge of the cube's surface
(``camkit.synthetic.cloud_error``), and writes the point cloud as PLY. The
last line is the process's peak resident set (``ru_maxrss``) in MB.

Usage: python scripts/reconstruct_cube.py [--out cube.ply] [--seed 0]
"""

import argparse
import resource
import time

import numpy as np

from camkit import (
    CameraIntrinsics,
    DistortionCoeffs,
    export_point_cloud,
    reconstruct,
)
from camkit.fileio import write_ply
from camkit.synthetic import (
    CubeScene,
    cloud_error,
    render_cube_view,
    sample_ring_poses,
)

EDGE = 200.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="cube.ply")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    intrinsics = CameraIntrinsics(fx=839.3458, fy=839.5573,
                                  cx=332.3661, cy=259.5099)
    dist = DistortionCoeffs()
    cube = CubeScene(edge=EDGE, texture_seed=7)
    poses = sample_ring_poses(5, radius=450.0, elevation_deg=30.0,
                              sweep_deg=48.0, start_deg=21.0)

    t0 = time.time()
    images = [render_cube_view(cube, intrinsics, dist, p, 640, 480)
              for p in poses]
    print(f"rendered 5 views in {time.time() - t0:.1f} s")

    t0 = time.time()
    scene = reconstruct(images, intrinsics, dist, seed=args.seed)
    print(f"reconstructed in {time.time() - t0:.1f} s: "
          f"{len(scene.poses)}/5 views, {len(scene.valid_tracks())} points, "
          f"mean reprojection {scene.mean_reprojection_error:.3f} px")

    err = cloud_error(scene, cube, poses)
    on_surface = np.mean(err.surface_distance < 0.02 * EDGE)
    print(f"similarity-aligned RMS: {err.rms:.3f} mm "
          f"({100 * err.rms / EDGE:.2f}% of edge); "
          f"{100 * on_surface:.1f}% of points within 2% of the cube's surface")

    write_ply(export_point_cloud(scene), args.out)
    print(f"wrote {args.out}")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")


if __name__ == "__main__":
    main()
