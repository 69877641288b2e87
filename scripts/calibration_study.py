#!/usr/bin/env python3
"""Synthetic calibration study: render a board dataset with a known camera,
run the full detect-and-calibrate pipeline, and report parameter recovery at
several corner-noise levels.

Usage: python scripts/calibration_study.py [--views 20] [--seed 42] [--render]

With --render the corners come from the actual corner detector on rendered
images (slower); otherwise they are synthesized directly from the projection
model, which isolates the estimator from the detector. With --render the
second-to-last line gives the seconds the first view's render took, which
include building the ray grid's tile bounds, and the mean of the later
views'. The last line is the process's peak resident set (``ru_maxrss``) in
MB.
"""

import argparse
import resource
import time

import numpy as np

from camkit import (
    CalibrationDataset,
    CameraIntrinsics,
    CheckerboardSpec,
    DistortionCoeffs,
    calibrate,
    detect_corners,
    render_board,
)
from camkit.synthetic import sample_board_poses, synthesize_corner_views

WIDTH, HEIGHT = 640, 480


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--views", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--render", action="store_true",
                        help="detect corners on rendered images")
    args = parser.parse_args()

    spec = CheckerboardSpec(squares_x=10, squares_y=7, square_size=23.0)
    truth_k = CameraIntrinsics(fx=839.3458, fy=839.5573,
                               cx=332.3661, cy=259.5099)
    truth_d = DistortionCoeffs(k1=0.0101, k2=-0.1883)
    rng = np.random.default_rng(args.seed)
    poses = sample_board_poses(spec, truth_k, truth_d, WIDTH, HEIGHT,
                               args.views, rng)

    print(f"{args.views} views, board {spec.squares_x}x{spec.squares_y} "
          f"@ {spec.square_size} mm")
    header = f"{'noise':>6} {'fx':>10} {'fy':>10} {'cx':>9} {'cy':>9} " \
             f"{'k1':>9} {'k2':>9} {'mean err':>9} {'secs':>6}"
    print(header)
    truth_row = (f"{'truth':>6} {truth_k.fx:10.4f} {truth_k.fy:10.4f} "
                 f"{truth_k.cx:9.4f} {truth_k.cy:9.4f} {truth_d.k1:9.5f} "
                 f"{truth_d.k2:9.5f}")
    print(truth_row)

    render_s = []
    for noise in (0.0, 0.25, 0.5, 1.0):
        t0 = time.time()
        if args.render and noise == 0.0:
            grids = []
            for pose in poses:
                start = time.perf_counter()
                img = render_board(spec, truth_k, truth_d, pose, WIDTH, HEIGHT)
                render_s.append(time.perf_counter() - start)
                grids.append(detect_corners(img, spec))
        else:
            grids = synthesize_corner_views(spec, truth_k, truth_d, poses,
                                            noise_sigma=noise, rng=rng)
        dataset = CalibrationDataset(spec=spec, views=tuple(grids),
                                     image_width=WIDTH, image_height=HEIGHT)
        result = calibrate(dataset)
        k, d = result.intrinsics, result.distortion
        label = "detect" if (args.render and noise == 0.0) else f"{noise:.2f}"
        print(f"{label:>6} {k.fx:10.4f} {k.fy:10.4f} {k.cx:9.4f} {k.cy:9.4f} "
              f"{d.k1:9.5f} {d.k2:9.5f} {result.overall_error:9.5f} "
              f"{time.time() - t0:6.1f}")
        stderr = result.intrinsic_stderr
        print(f"{'+/-':>6} {stderr['fx']:10.4f} {stderr['fy']:10.4f} "
              f"{stderr['cx']:9.4f} {stderr['cy']:9.4f} "
              f"{result.distortion_stderr['k1']:9.5f} "
              f"{result.distortion_stderr['k2']:9.5f}")
    if render_s:
        print(f"render {render_s[0]:.3f} s first view, "
              f"{np.mean(render_s[1:]):.3f} s mean of later views")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")


if __name__ == "__main__":
    main()
