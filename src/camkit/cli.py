"""Command-line entry points.

Exit codes: 0 success, 1 usage error (bad flags, unknown command), 2
processing error (a pipeline stage failed; the message names the stage and
the offending view or image).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .board import CheckerboardSpec, render_board
from .calibrate import CalibrationDataset, calibrate, undistort_image
from .corners import detect_corners
from .errors import CamkitError, IoFailure
from .pose import estimate_board_pose, export_extrinsics_scene
from .sfm import export_point_cloud, reconstruct
from .synthetic import (
    CubeScene,
    render_cube_view,
    sample_board_poses,
    sample_ring_poses,
)

IMAGE_SUFFIXES = (".pgm", ".ppm", ".pnm")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_board(text: str) -> CheckerboardSpec:
    m = re.fullmatch(r"(\d+)x(\d+):([0-9.]+)mm", text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"board must look like 10x7:23mm, got {text!r}")
    return CheckerboardSpec(int(m.group(1)), int(m.group(2)), float(m.group(3)))


def _parse_seed(text: str) -> int:
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="camkit",
                     description="Checkerboard calibration, pose estimation, "
                                 "and sparse 3D reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="calibrate a camera from board images")
    p.add_argument("images", help="directory of .pgm/.ppm board images")
    p.add_argument("--board", type=_parse_board, required=True,
                   metavar="WxH:SIZEmm")
    p.add_argument("--out", required=True, help="calibration JSON output path")
    p.add_argument("--report", help="per-view error report CSV path")
    p.add_argument("--estimate-skew", action="store_true")
    p.add_argument("--tangential", action="store_true",
                   help="also estimate tangential coefficients")

    p = sub.add_parser("pose", help="estimate the board pose in one image")
    p.add_argument("image")
    p.add_argument("--calib", required=True)
    p.add_argument("--board", type=_parse_board, required=True,
                   metavar="WxH:SIZEmm")
    p.add_argument("--out", required=True)

    p = sub.add_parser("undistort", help="remove lens distortion from an image")
    p.add_argument("image")
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sfm", help="reconstruct a sparse point cloud")
    p.add_argument("images", help="directory of ordered capture images")
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True, help="PLY output path")
    p.add_argument("--scene", help="scene JSON output path "
                                   "(default: OUT with .scene.json)")
    p.add_argument("--seed", type=int, default=0)

    for name, what in (("render-board", "calibration dataset"),
                       ("render-scene", "textured-cube capture")):
        p = sub.add_parser(name, help=f"render a synthetic {what}")
        p.add_argument("spec", help="ground-truth spec JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_parse_seed, default=0)

    p = sub.add_parser("extrinsics", help="export the extrinsics visualization")
    p.add_argument("--calib", required=True)
    p.add_argument("--board", type=_parse_board, required=True,
                   metavar="WxH:SIZEmm")
    p.add_argument("--mode", choices=("pattern", "camera"), required=True)
    p.add_argument("--out", required=True)
    return parser


def _list_images(directory: str) -> list[Path]:
    root = Path(directory)
    if not root.is_dir():
        raise IoFailure(f"{directory} is not a directory")
    paths = sorted(p for p in root.iterdir()
                   if p.suffix.lower() in IMAGE_SUFFIXES)
    if not paths:
        raise IoFailure(f"no {'/'.join(IMAGE_SUFFIXES)} images in {directory}")
    return paths


def _read_sized(path, size, owner: str) -> np.ndarray:
    """The image at ``path``; IoFailure unless it is ``size`` (width, height)
    pixels, the size of ``owner``. Any size passes when ``size`` is None."""
    image = fileio.read_image(path)
    got = (image.shape[1], image.shape[0])
    if size is not None and got != size:
        raise IoFailure(f"image {Path(path).name} is {got[0]}x{got[1]}, "
                        f"not the {size[0]}x{size[1]} of {owner}")
    return image


def _detect(image: np.ndarray, board: CheckerboardSpec, name: str):
    try:
        return detect_corners(image, board, view_id=name)
    except CamkitError as exc:
        raise type(exc)(f"corner detection failed on {name}: {exc}") from exc


def _detect_all(paths: list[Path], board: CheckerboardSpec):
    grids = []
    size = None
    for path in paths:
        image = _read_sized(path, size, "the first image")
        size = (image.shape[1], image.shape[0])
        grids.append(_detect(image, board, path.name))
    return grids, size


def _cmd_calibrate(args) -> int:
    paths = _list_images(args.images)
    grids, size = _detect_all(paths, args.board)
    dataset = CalibrationDataset(spec=args.board, views=tuple(grids),
                                 image_width=size[0], image_height=size[1])
    result = calibrate(dataset, estimate_skew=args.estimate_skew,
                       estimate_tangential=args.tangential)
    fileio.write_calibration(result, args.out)
    if args.report:
        lines = ["view,image,mean_error_px"]
        for i, (path, err) in enumerate(zip(paths, result.per_view_errors)):
            lines.append(f"{i},{path.name},{float(err)!r}")
        lines.append(f"overall,,{result.overall_error!r}")
        Path(args.report).write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"calibrated {len(paths)} views: overall mean error "
          f"{result.overall_error:.6f} px -> {args.out}")
    return 0


def _cmd_pose(args) -> int:
    size, intrinsics, distortion = fileio.read_camera(args.calib)
    image = _read_sized(args.image, size, "the calibration")
    name = Path(args.image).name
    pose, err = estimate_board_pose(intrinsics, distortion,
                                    _detect(image, args.board, name), args.board)
    fileio.write_pose(pose, err, args.out)
    print(f"pose of {name}: mean reprojection {err:.4f} px -> {args.out}")
    return 0


def _cmd_undistort(args) -> int:
    size, intrinsics, distortion = fileio.read_camera(args.calib)
    image = _read_sized(args.image, size, "the calibration")
    fileio.write_image(undistort_image(image, intrinsics, distortion), args.out)
    print(f"undistorted {Path(args.image).name} -> {args.out}")
    return 0


def _cmd_sfm(args) -> int:
    size, intrinsics, distortion = fileio.read_camera(args.calib)
    paths = _list_images(args.images)
    images = [_read_sized(p, size, "the calibration") for p in paths]
    scene = reconstruct(images, intrinsics, distortion, args.seed)
    cloud = export_point_cloud(scene)
    fileio.write_ply(cloud, args.out)
    scene_path = args.scene or str(Path(args.out).with_suffix(".scene.json"))
    fileio.write_sfm_scene(scene, scene_path)
    print(f"reconstructed {len(scene.poses)}/{len(images)} views, "
          f"{len(cloud)} points, mean reprojection "
          f"{scene.mean_reprojection_error:.4f} px -> {args.out}")
    return 0


def _cmd_render(args) -> int:
    subject = "board" if args.command == "render-board" else "cube"
    spec = fileio.read_render_spec(args.spec, subject)
    width, height = spec["image_size"]
    intrinsics, dist, poses = spec["intrinsics"], spec["distortion"], spec["poses"]
    if subject == "board":
        target, renderer = spec["board"], render_board
        if poses is None:
            poses = sample_board_poses(target, intrinsics, dist, width, height,
                                       spec["views"],
                                       np.random.default_rng(args.seed))
    else:
        target, renderer = CubeScene(**spec["cube"]), render_cube_view
        if poses is None:
            poses = sample_ring_poses(spec["views"], **spec["ring"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"view_{i:03d}.pgm" for i in range(len(poses))]
    for name, pose in zip(names, poses):
        fileio.write_image(renderer(target, intrinsics, dist, pose, width, height),
                           out / name)
    fileio.write_ground_truth(out / "ground_truth.json", spec, poses, names)
    print(f"rendered {len(poses)} {subject} views into {out}")
    return 0


def _cmd_extrinsics(args) -> int:
    calib = fileio.read_calibration(args.calib)
    scene = export_extrinsics_scene(calib, args.board, args.mode)
    fileio.write_extrinsics_scene(scene, args.out)
    n = len(scene.poses)
    print(f"exported {args.mode}-centric scene with {n} views -> {args.out}")
    return 0


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "pose": _cmd_pose,
    "undistort": _cmd_undistort,
    "sfm": _cmd_sfm,
    "render-board": _cmd_render,
    "render-scene": _cmd_render,
    "extrinsics": _cmd_extrinsics,
}


def run_cli(argv: list[str]) -> int:
    """Parse and execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CamkitError as exc:
        print(f"error [{args.command}] {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error [{args.command}] IoFailure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
