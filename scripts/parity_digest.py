#!/usr/bin/env python3
"""SHA-256 digests of the board path's outputs, for comparing two trees.

Prints a host line first: the Python, numpy and scipy versions, numpy's BLAS
name and build configuration (``blas unknown`` before numpy 1.25, which has no
``np.show_config(mode="dicts")``), the machine, the CPU count and the BLAS
thread variables. Then one digest for each of:

- ``detect_corners`` over 252 images: the 20 README views of pose seeds
  40-49, 24 README views (pose seed 42) blurred at sigma 0.7-3 with noise of
  5 grey levels and requantised to uint8, 4 head-on boards whose squares
  (40-70 px) reach the frame edge, 4 head-on 64x48 frames, and the 20 README
  views of pose seed 42 at half exposure (``np.rint(0.5 * I)``). Each image
  adds its corners, or its exception's type and message;
- ``calibrate`` on the detected corners of the 20 README views (seed 42);
- ``estimate_board_pose`` on those views under that calibration;
- every file the README's CLI workflow writes, by name and bytes: the README
  board spec rendered with ``--seed 42`` and re-rendered from its
  ``ground_truth.json``, ``calibrate --report``, ``pose``, ``undistort`` and
  ``extrinsics`` on it in pattern and in camera mode, the acceptance cube
  capture, and ``sfm`` on that capture under an exact calibration (README
  intrinsics, zero distortion).
  The workflow runs in-process through ``camkit.cli.run_cli`` in a temporary
  directory;
- ``bundle_adjust`` on the seeded 5-view ring scenes of the benchmark's
  ``ba-scale`` shape (60 degree arc, every point in every view, 0.5 px noise,
  points 2 mm off) at 250, 500 and 1000 points, built by
  ``ba_scaling.make_scene`` from seed 0 with no image work: each scene adds
  its adjusted poses, points, track validity and mean error, or its
  exception's type and message;
- ``render_cube_view`` over 40 views: the acceptance cube ring (5 views,
  48 degree sweep) for texture seeds 7 and 11, starting at 21 and at 201
  degrees, through a lens without distortion and through the README lens.
  Each view adds its image bytes;
- ``detect_features`` (at ``reconstruct``'s feature budget) on those 40
  renders: each view adds its features' positions, scales, orientations,
  descriptors and responses, and each pair of adjacent views in a ring then
  adds its ``match_features`` result;
- ``lm matrix``: six Levenberg-Marquardt solves through a matrix Jacobian,
  which no other line reaches. Five take central differences: the linear
  problem ``x - (1, 2)`` of the acceptance suite, Rosenbrock from (-1.2, 1),
  (3, -3) and (0, 0), and the 3-residual problem with a nonzero residual at
  its optimum from ``tests/test_optimize.py``. The sixth is ``refine_pose``'s
  problem on the first README view (seed 42) under the calibration above,
  from its homography start, given its block Jacobian as a dense matrix.
  Each solve adds its params, final cost, iterations and reason;
- ``reconstruct`` at RANSAC seed 0 on the 8 rings of those renders, under
  their true calibration: each ring adds its view order, poses, track points
  (NaN where a track has none), track validity and mean error, or its
  exception's type and message.

A refactor that must not move any output prints the same nine digests as
its parent. Digests compare only under an equal host line: the solvers'
last bits follow the BLAS build and its thread count, so the
``bundle_adjust`` digest differs between one and two OpenBLAS threads on the
same machine.

Usage: python scripts/parity_digest.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import scipy

from camkit import (
    CalibrationDataset,
    CameraIntrinsics,
    CheckerboardSpec,
    DistortionCoeffs,
    LeastSquaresProblem,
    LmConfig,
    board_world_points,
    bundle_adjust,
    calibrate,
    detect_corners,
    detect_features,
    estimate_board_pose,
    levenberg_marquardt,
    match_features,
    reconstruct,
    render_board,
)
from camkit.calibrate import extrinsics_from_homography
from camkit.cli import run_cli
from camkit.errors import CamkitError
from camkit.geometry import (
    normalized_to_pixel,
    pixel_to_normalized,
    reprojection_problem,
    undistort_normalized,
)
from camkit.homography import estimate_homography
from camkit.sfm import MAX_FEATURES
from camkit.synthetic import (
    CubeScene,
    frontoparallel_pose,
    render_cube_view,
    sample_board_poses,
    sample_ring_poses,
)

from ba_scaling import make_scene  # scripts/ba_scaling.py, beside this script

WIDTH, HEIGHT = 640, 480
SPEC = CheckerboardSpec(squares_x=10, squares_y=7, square_size=23.0)
K = CameraIntrinsics(fx=839.3458, fy=839.5573, cx=332.3661, cy=259.5099)
DIST = DistortionCoeffs(k1=0.0101, k2=-0.1883)
BA_POINTS = (250, 500, 1000)
CUBE_RINGS = [(seed, start, lens) for seed in (7, 11) for start in (21.0, 201.0)
              for lens in (DistortionCoeffs(), DIST)]


def readme_views(seed):
    poses = sample_board_poses(SPEC, K, DIST, WIDTH, HEIGHT, 20,
                               np.random.default_rng(seed))
    return [render_board(SPEC, K, DIST, pose, WIDTH, HEIGHT) for pose in poses]


def blur(image, sigma):
    """Separable Gaussian blur truncated at 4 sigma, edges repeated."""
    r = int(4 * sigma + 0.5)
    kernel = np.exp(-np.arange(-r, r + 1) ** 2 / (2 * sigma ** 2))
    kernel /= kernel.sum()
    out = np.asarray(image, dtype=np.float64)
    for axis in (0, 1):
        padded = np.pad(out, [(r, r) if a == axis else (0, 0) for a in (0, 1)],
                        mode="edge")
        n = out.shape[axis]
        out = sum(w * padded.take(np.arange(i, i + n), axis=axis)
                  for i, w in enumerate(kernel))
    return out


def degraded(images):
    rng = np.random.default_rng(7)
    out = []
    for i, sigma in enumerate(np.linspace(0.7, 3.0, 24)):
        blurred = blur(images[i % len(images)], sigma)
        noisy = blurred + rng.normal(0.0, 5.0, blurred.shape)
        out.append(np.clip(np.rint(noisy), 0, 255).astype(np.uint8))
    return out


def head_on(square_pxs, intrinsics, width, height):
    return [render_board(SPEC, intrinsics, DistortionCoeffs(),
                         frontoparallel_pose(SPEC, intrinsics, s), width, height)
            for s in square_pxs]


def cli_workflow(root):
    """Run the README's CLI workflow in ``root``; return the files it wrote."""
    camera = {"image_size": {"width": WIDTH, "height": HEIGHT},
              "intrinsics": {"fx": K.fx, "fy": K.fy, "cx": K.cx, "cy": K.cy}}
    inputs = {
        "board_spec.json": dict(
            board={"squares_x": 10, "squares_y": 7, "square_size": 23.0},
            **camera, distortion={"k1": DIST.k1, "k2": DIST.k2}, views=20),
        "cube_spec.json": dict(cube={"edge": 200.0, "texture_seed": 7},
                               **camera, views=5),
        "cube_calib.json": dict(
            schema_version=1, image_size=camera["image_size"],
            intrinsics=dict(camera["intrinsics"], skew=0.0),
            distortion={"k1": 0.0, "k2": 0.0}, views=[], overall_mean_error=0.0,
            stderr={"intrinsics": {}, "distortion": {}}),
    }
    for name, doc in inputs.items():
        (root / name).write_text(json.dumps(doc))
    commands = [
        "render-board {r}/board_spec.json --out {r}/views --seed 42",
        "render-board {r}/views/ground_truth.json --out {r}/again",
        "calibrate {r}/views --board 10x7:23mm --out {r}/calib.json"
        " --report {r}/errors.csv",
        "pose {r}/views/view_000.pgm --calib {r}/calib.json --board 10x7:23mm"
        " --out {r}/pose.json",
        "undistort {r}/views/view_000.pgm --calib {r}/calib.json --out {r}/flat.pgm",
        "extrinsics --calib {r}/calib.json --board 10x7:23mm --mode pattern"
        " --out {r}/scene.json",
        "extrinsics --calib {r}/calib.json --board 10x7:23mm --mode camera"
        " --out {r}/scene_camera.json",
        "render-scene {r}/cube_spec.json --out {r}/capture",
        "sfm {r}/capture --calib {r}/cube_calib.json --out {r}/cloud.ply --seed 0",
    ]
    for command in commands:
        argv = [token.format(r=root) for token in command.split()]
        with contextlib.redirect_stdout(io.StringIO()):
            if run_cli(argv) != 0:
                raise SystemExit(f"camkit {command} failed")
    return sorted(p for p in root.rglob("*") if p.is_file())


def cube_rings():
    """The renders of each ring in ``CUBE_RINGS``, one list per ring."""
    rings = []
    for seed, start, lens in CUBE_RINGS:
        scene = CubeScene(edge=200.0, texture_seed=seed)
        rings.append([render_cube_view(scene, K, lens, pose, WIDTH, HEIGHT)
                      for pose in sample_ring_poses(5, radius=450.0, elevation_deg=30.0,
                                                    sweep_deg=48.0, start_deg=start)])
    return rings


def features_digest(rings):
    """The digest of the features of every render and the matches of each
    adjacent pair of views in a ring."""
    digest = hashlib.sha256()
    for ring in rings:
        feats = [detect_features(image, MAX_FEATURES) for image in ring]
        for f in feats:
            add(digest, f.positions, f.scales, f.orientations, f.descriptors, f.responses)
        for a, b in zip(feats, feats[1:]):
            add(digest, match_features(a, b))
    return digest.hexdigest()


def reconstruct_digest(rings):
    """The digest of ``reconstruct`` at RANSAC seed 0 on every ring."""
    digest = hashlib.sha256()
    for (_, _, lens), ring in zip(CUBE_RINGS, rings):
        try:
            scene = reconstruct(ring, K, lens, seed=0)
        except CamkitError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        add(digest, scene.view_order)
        for v in scene.view_order:
            add(digest, scene.poses[v].rotation, scene.poses[v].translation)
        add(digest, [np.full(3, np.nan) if t.point is None else t.point
                     for t in scene.tracks],
            [t.valid for t in scene.tracks], [scene.mean_reprojection_error])
    return digest.hexdigest()


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def inconsistent(x):
    return np.array([x[0] ** 2 - 2.0, x[0] * x[1] - 1.0, x[1] - 0.5])


def lm_matrix_digest(grid, intrinsics, dist):
    """The digest of the ``lm matrix`` solves; ``grid`` holds the corners of
    the view that ``refine_pose``'s problem is built on."""
    world = board_world_points(SPEC)
    ideal = normalized_to_pixel(undistort_normalized(
        pixel_to_normalized(grid.corners, intrinsics), dist), intrinsics)
    start = extrinsics_from_homography(
        intrinsics, estimate_homography(world[:, :2], ideal))
    pose, pose0, _ = reprojection_problem(
        world, [start], intrinsics, dist, np.zeros(len(world), dtype=np.int64),
        np.arange(len(world)), grid.corners, free_poses=True)
    solves = [(LeastSquaresProblem(lambda x: x - np.array([1.0, 2.0])), np.zeros(2))]
    solves += [(LeastSquaresProblem(rosenbrock), np.array(x0))
               for x0 in ([-1.2, 1.0], [3.0, -3.0], [0.0, 0.0])]
    solves += [(LeastSquaresProblem(inconsistent), np.ones(2)),
               (LeastSquaresProblem(pose.residual,
                                    lambda x: np.asarray(pose.jacobian(x))), pose0)]
    digest = hashlib.sha256()
    for problem, x0 in solves:
        report = levenberg_marquardt(problem, x0)
        add(digest, report.params, [report.final_cost, report.iterations])
        digest.update(report.reason.encode())
    return digest.hexdigest()


def host_line():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} [{blas.get('openblas configuration', blas.get('version'))}]"
    except TypeError:  # numpy < 1.25: show_config() takes no mode
        blas = "unknown"
    threads = "  ".join(f"{name}={os.environ.get(name, '-')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"host  python {platform.python_version()}  numpy {np.__version__}  "
            f"scipy {scipy.__version__}  blas {blas}  "
            f"{platform.machine()}  cpus {os.cpu_count()}  {threads}")


def add(digest, *arrays):
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())


def main():
    print(host_line())
    readme = readme_views(42)
    small = CameraIntrinsics(fx=K.fx / 10, fy=K.fy / 10, cx=K.cx / 10, cy=K.cy / 10)
    images = [img for seed in range(40, 50)
              for img in (readme if seed == 42 else readme_views(seed))]
    images += degraded(readme)
    images += head_on((40.0, 50.0, 60.0, 70.0), K, WIDTH, HEIGHT)
    images += head_on((3.0, 4.0, 5.0, 6.0), small, 64, 48)
    images += [np.rint(0.5 * image).astype(np.uint8) for image in readme]

    corners = hashlib.sha256()
    for image in images:
        try:
            add(corners, detect_corners(image, SPEC).corners)
        except CamkitError as exc:
            corners.update(f"{type(exc).__name__}: {exc}".encode())
    print(f"detect_corners      {len(images)} images  {corners.hexdigest()}")

    grids = [detect_corners(image, SPEC) for image in readme]
    result = calibrate(CalibrationDataset(SPEC, tuple(grids), WIDTH, HEIGHT))
    calib = hashlib.sha256()
    k, d = result.intrinsics, result.distortion
    add(calib, [k.fx, k.fy, k.cx, k.cy, k.skew, d.k1, d.k2, d.k3, d.p1, d.p2],
        result.per_view_errors, [result.overall_error], result.pose_stderr,
        list(result.intrinsic_stderr.values()), list(result.distortion_stderr.values()))
    for pose in result.poses:
        add(calib, pose.rotation, pose.translation)
    print(f"calibrate           {len(grids)} views   {calib.hexdigest()}")

    poses = hashlib.sha256()
    for grid in grids:
        pose, err = estimate_board_pose(k, d, grid, SPEC)
        add(poses, pose.rotation, pose.translation, [err])
    print(f"estimate_board_pose {len(grids)} views   {poses.hexdigest()}")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = hashlib.sha256()
        paths = cli_workflow(root)
        for path in paths:
            data = path.read_bytes()
            files.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
            files.update(data)
    print(f"cli workflow        {len(paths)} files   {files.hexdigest()}")

    rng = np.random.default_rng(0)
    adjusted = hashlib.sha256()
    for n_points in BA_POINTS:
        try:
            scene = bundle_adjust(make_scene(5, n_points, 60.0, 5, rng), LmConfig())
        except CamkitError as exc:
            adjusted.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        for v in scene.view_order:
            add(adjusted, scene.poses[v].rotation, scene.poses[v].translation)
        add(adjusted, [t.point for t in scene.tracks], [t.valid for t in scene.tracks],
            [scene.mean_reprojection_error])
    print(f"bundle_adjust       {len(BA_POINTS)} scenes  {adjusted.hexdigest()}")

    rings = cube_rings()
    renders = hashlib.sha256()
    for ring in rings:
        for image in ring:
            renders.update(image.tobytes())
    n_views = sum(map(len, rings))
    print(f"render_cube_view    {n_views} views   {renders.hexdigest()}")
    print(f"detect_features     {n_views} views   {features_digest(rings)}")
    print(f"lm matrix           6 solves  {lm_matrix_digest(grids[0], k, d)}")
    print(f"reconstruct         {len(rings)} rings   {reconstruct_digest(rings)}")


if __name__ == "__main__":
    main()
