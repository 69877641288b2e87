#!/usr/bin/env python3
"""Calibration scaling curve: seconds and LM iterations against view count.

For 10, 20, 40, 80 and 160 views of the README board (10x7 squares of
23 mm) it draws poses with ``sample_board_poses`` and synthesizes their
corners from the projection model with 0.1 px noise (seed 42 for each view
count), so the estimator is timed without the detector. Each dataset is
calibrated three times with the defaults; the script prints the best time,
the LM iterations and termination reason, the seconds per iteration and
the error of the calibrated fx in pixels.

Usage: python scripts/calibrate_scaling.py
"""

import time

import numpy as np

from camkit import (
    CalibrationDataset,
    CameraIntrinsics,
    CheckerboardSpec,
    DistortionCoeffs,
    calibrate,
)
from camkit.synthetic import sample_board_poses, synthesize_corner_views

VIEWS = (10, 20, 40, 80, 160)
REPEATS = 3
WIDTH, HEIGHT = 640, 480
SPEC = CheckerboardSpec(squares_x=10, squares_y=7, square_size=23.0)
TRUTH_K = CameraIntrinsics(fx=839.3458, fy=839.5573, cx=332.3661, cy=259.5099)
TRUTH_D = DistortionCoeffs(k1=0.0101, k2=-0.1883)


def make_dataset(n_views: int) -> CalibrationDataset:
    rng = np.random.default_rng(42)
    poses = sample_board_poses(SPEC, TRUTH_K, TRUTH_D, WIDTH, HEIGHT, n_views, rng)
    grids = synthesize_corner_views(SPEC, TRUTH_K, TRUTH_D, poses,
                                    noise_sigma=0.1, rng=rng)
    return CalibrationDataset(spec=SPEC, views=tuple(grids),
                              image_width=WIDTH, image_height=HEIGHT)


def timed_calibrate(dataset: CalibrationDataset):
    """Run ``calibrate``; return its result, LM report and seconds."""
    start = time.perf_counter()
    result = calibrate(dataset)
    seconds = time.perf_counter() - start
    return result, result.lm_report, seconds


def main():
    print(f"{'views':>5} {'corners':>7} {'calibrate_s':>11} {'iters':>5} "
          f"{'s_per_iter':>10} {'reason':>9} {'fx_err_px':>10}")
    for n_views in VIEWS:
        dataset = make_dataset(n_views)
        runs = [timed_calibrate(dataset) for _ in range(REPEATS)]
        result, report, seconds = min(runs, key=lambda run: run[2])
        print(f"{n_views:>5} {n_views * SPEC.corner_count:>7} {seconds:>11.3f} "
              f"{report.iterations:>5} {seconds / report.iterations:>10.4f} "
              f"{report.reason:>9} {result.intrinsics.fx - TRUTH_K.fx:>10.4f}",
              flush=True)


if __name__ == "__main__":
    main()
