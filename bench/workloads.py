"""The benchmark's three workloads: inputs made from a seed, one timed pass,
and the correctness gates on every output.

``board`` and ``sfm-cube`` drive ``camkit.cli.run_cli`` in-process, so they
time what a ``camkit`` user runs minus interpreter start-up; ``ba-scale``
calls the public ``camkit.bundle_adjust``. Every callee is looked up at call
time (``camkit.cli.run_cli``, not an imported name), so a traced pass sees
the wrappers that :mod:`spans` installs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import camkit
import camkit.cli
import camkit.synthetic
from camkit.errors import CamkitError

WIDTH, HEIGHT = 640, 480
# The README's reference webcam.
REF_K = {"fx": 839.3458, "fy": 839.5573, "cx": 332.3661, "cy": 259.5099}
REF_DIST = {"k1": 0.0101, "k2": -0.1883}
BOARD = {"squares_x": 10, "squares_y": 7, "square_size": 23.0}
BOARD_FLAG = "10x7:23mm"
BOARD_VIEWS = 20
ROUNDS = 5  # of one calibrate and a pose call per view
CUBE_EDGE = 200.0
CUBE_VIEWS = 5
BA_SIZES = (250, 500, 1000)
BA_VIEWS = 5
ICP_ROUNDS = 10


@dataclass
class Ops:
    """Attempted and failed operations; a failed gate, a raised CamkitError
    or a non-zero CLI exit each fail the operation they belong to."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{op}: {'; '.join(problems)}")
        return not problems


def cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one camkit command in-process: (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = camkit.cli.run_cli(argv)
        seconds = perf_counter() - start
    return code, seconds, err.getvalue().strip()


def _exit_problems(code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"exit {code}: {err.splitlines()[-1] if err else ''}"]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _rotation(axis_angle) -> np.ndarray:
    return camkit.axis_angle_to_rotation(np.asarray(axis_angle, dtype=np.float64))


def _rotation_error_deg(r_a: np.ndarray, r_b: np.ndarray) -> float:
    cos = (np.trace(r_a @ r_b.T) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def _center(pose_doc: dict) -> np.ndarray:
    rot = _rotation(pose_doc["axis_angle"])
    return -rot.T @ np.asarray(pose_doc["translation"], dtype=np.float64)


def warm_up(images: bool) -> None:
    """First calls that load lazily initialised code: LAPACK through the
    solver and, for image workloads, the lens model on a small render."""
    problem = camkit.LeastSquaresProblem(lambda x: x - np.array([1.0, 2.0]))
    camkit.levenberg_marquardt(problem, np.zeros(2))
    if images:
        k = camkit.CameraIntrinsics(fx=80.0, fy=80.0, cx=32.0, cy=24.0)
        spec = camkit.CheckerboardSpec(**BOARD)
        pose = camkit.synthetic.frontoparallel_pose(spec, k, 6.0)
        camkit.render_board(spec, k, camkit.DistortionCoeffs(**REF_DIST),
                            pose, 64, 48)


class Board:
    """Render 20 board views, then five rounds of calibrating from them and
    estimating the pose of every view, all through the CLI.

    The views are the README's (pose seed 42) for every benchmark seed:
    corner detection currently fails on some other pose seeds (README.md,
    Defects), and a pass with failed operations times nothing useful.
    """

    name = "board"
    images = True
    GATED = {"pass_s": "pass_wall_s", "solve_s": "rounds_s",
             "err_px": "calib_err_px", "err_mm": "pose_err_mm"}

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.spec = workdir / "board_spec.json"

    def setup(self) -> None:
        _write_json(self.spec, {
            "board": BOARD,
            "image_size": {"width": WIDTH, "height": HEIGHT},
            "intrinsics": REF_K,
            "distortion": REF_DIST,
            "views": BOARD_VIEWS,
        })

    def run_pass(self, ops: Ops, tag: str) -> dict:
        views = self.dir / f"views_{tag}"
        calib = self.dir / f"calib_{tag}.json"
        result = {"render_view_s": [], "calibrate_s": [], "calib_err_px": [],
                  "pose_ms": []}
        start = perf_counter()

        code, secs, err = cli(["render-board", str(self.spec), "--out", str(views),
                               "--seed", "42"])
        problems = _exit_problems(code, err)
        images = sorted(views.glob("view_*.pgm"))
        if not problems and len(images) != BOARD_VIEWS:
            problems.append(f"{len(images)} images written")
        if ops.record("render-board", problems):
            result["render_view_s"].append(secs / BOARD_VIEWS)
        truth = (_read_json(views / "ground_truth.json")["poses"]
                 if not problems else [])

        # Each round calibrates once and then poses every view. The rounds
        # together are the gated solve time: a single calibrate lasts about
        # a second, short enough for a busy neighbour to move it by a third.
        pose_out = self.dir / f"pose_{tag}.json"
        offsets = []
        rounds_start = perf_counter()
        for _ in range(ROUNDS):
            code, secs, err = cli(["calibrate", str(views), "--board", BOARD_FLAG,
                                   "--out", str(calib)])
            problems = _exit_problems(code, err)
            if not problems:
                problems = self._calibration_problems(_read_json(calib), result)
            if ops.record("calibrate", problems):
                result["calibrate_s"].append(secs)

            for image, true_pose in zip(images, truth):
                code, secs, err = cli(["pose", str(image), "--calib", str(calib),
                                       "--board", BOARD_FLAG, "--out", str(pose_out)])
                problems = _exit_problems(code, err)
                if not problems:
                    problems = self._pose_problems(_read_json(pose_out), true_pose,
                                                   offsets)
                if ops.record(f"pose {image.name}", problems):
                    result["pose_ms"].append(1e3 * secs)

        end = perf_counter()
        result["rounds_s"] = [end - rounds_start]
        result["pass_wall_s"] = [end - start]
        result["pose_err_mm"] = [_rms(offsets)] if offsets else []
        return result

    @staticmethod
    def _calibration_problems(doc: dict, result: dict) -> list[str]:
        problems = []
        # The CLI fails unless every view yields exactly 54 corners, so 20
        # stored views means 20 complete detections.
        if len(doc["views"]) != BOARD_VIEWS:
            problems.append(f"{len(doc['views'])} of {BOARD_VIEWS} views calibrated")
        k = doc["intrinsics"]
        for axis in ("fx", "fy"):
            rel = abs(k[axis] / REF_K[axis] - 1.0)
            if rel > 1e-3:
                problems.append(f"{axis} off by {rel:.2e} relative")
        for axis in ("cx", "cy"):
            off = abs(k[axis] - REF_K[axis])
            if off > 0.5:
                problems.append(f"{axis} off by {off:.3f} px")
        err = float(doc["overall_mean_error"])
        if not err < 0.1:
            problems.append(f"calibration error {err:.4f} px")
        result["calib_err_px"].append(err)
        return problems

    @staticmethod
    def _pose_problems(doc: dict, truth: dict, offsets: list) -> list[str]:
        problems = []
        angle = _rotation_error_deg(_rotation(doc["axis_angle"]),
                                    _rotation(truth["axis_angle"]))
        if angle > 0.1:
            problems.append(f"rotation off by {angle:.4f} deg")
        t_true = np.asarray(truth["translation"])
        offset = float(np.linalg.norm(np.asarray(doc["translation"]) - t_true))
        offsets.append(offset)
        rel = offset / np.linalg.norm(t_true)
        if rel > 1e-3:
            problems.append(f"translation off by {100 * rel:.4f} %")
        return problems


class SfmCube:
    """Render the acceptance cube capture and reconstruct it with ``sfm``.

    The capture and the RANSAC seed ignore the benchmark seed: about one
    seeded variant in five -- another texture, ring angle or RANSAC seed --
    currently aborts registration (README.md, Defects). Seed them once
    registration degrades instead of aborting.
    """

    name = "sfm-cube"
    images = True
    GATED = {"pass_s": "pass_wall_s", "solve_s": "sfm_s",
             "err_px": "sfm_err_px", "err_mm": "sfm_surface_mm"}

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.spec = workdir / "cube_spec.json"
        self.calib = workdir / "cube_calib.json"

    def setup(self) -> None:
        _write_json(self.spec, {
            "cube": {"edge": CUBE_EDGE, "texture_seed": 7},
            "image_size": {"width": WIDTH, "height": HEIGHT},
            "intrinsics": REF_K,
            "views": CUBE_VIEWS,
            "ring": {"radius": 450.0, "elevation_deg": 30.0, "sweep_deg": 48.0,
                     "start_deg": 21.0},
        })
        # sfm reads intrinsics from a calibration file; this one is exact.
        _write_json(self.calib, {
            "schema_version": 1,
            "image_size": {"width": WIDTH, "height": HEIGHT},
            "intrinsics": dict(REF_K, skew=0.0),
            "distortion": {"k1": 0.0, "k2": 0.0},
            "views": [],
            "overall_mean_error": 0.0,
            "stderr": {"intrinsics": {}, "distortion": {}},
        })

    def run_pass(self, ops: Ops, tag: str) -> dict:
        capture = self.dir / f"capture_{tag}"
        cloud = self.dir / f"cloud_{tag}.ply"
        scene = self.dir / f"cloud_{tag}.scene.json"
        result = {"render_view_s": [], "sfm_s": [], "sfm_err_px": [],
                  "sfm_points": [], "sfm_surface_mm": [], "sfm_centres_surface_mm": []}
        start = perf_counter()

        code, secs, err = cli(["render-scene", str(self.spec), "--out", str(capture)])
        problems = _exit_problems(code, err)
        n_images = len(list(capture.glob("view_*.pgm")))
        if not problems and n_images != CUBE_VIEWS:
            problems.append(f"{n_images} images written")
        if ops.record("render-scene", problems):
            result["render_view_s"].append(secs / CUBE_VIEWS)

        code, secs, err = cli(["sfm", str(capture), "--calib", str(self.calib),
                               "--out", str(cloud), "--seed", "0"])
        problems = _exit_problems(code, err)
        if not problems:
            problems = self._scene_problems(
                _read_json(scene), _read_ply(cloud),
                _read_json(capture / "ground_truth.json")["poses"], result)
        if ops.record("sfm", problems):
            result["sfm_s"].append(secs)

        result["pass_wall_s"] = [perf_counter() - start]
        return result

    @staticmethod
    def _scene_problems(scene: dict, points: np.ndarray, truth: list,
                        result: dict) -> list[str]:
        problems = []
        registered = sorted(int(v) for v in scene["views"])
        if registered != list(range(CUBE_VIEWS)):
            problems.append(f"{len(registered)}/{CUBE_VIEWS} views registered")
            return problems
        err = float(scene["mean_reprojection_error"])
        if not err < 0.5:
            problems.append(f"reprojection error {err:.4f} px")
        # Start from the similarity that maps the reconstructed camera
        # centres onto the true ones, then refine it on the cube itself:
        # the centres alone leave the cloud a percent or so off in scale.
        centres = np.array([_center(scene["views"][str(v)]) for v in registered])
        true_centres = np.array([_center(p) for p in truth])
        s, rot, t = camkit.similarity_align(centres, true_centres)
        half = CUBE_EDGE / 2.0
        result["sfm_centres_surface_mm"].append(_rms(
            _cube_surface_distance(s * points @ rot.T + t, half)))
        for _ in range(ICP_ROUNDS):
            target = _closest_on_cube(s * points @ rot.T + t, half)
            s, rot, t = camkit.similarity_align(points, target)
        distance = _cube_surface_distance(s * points @ rot.T + t, half)
        on_face = float(np.mean(distance < 0.02 * CUBE_EDGE))
        if on_face < 0.9:
            problems.append(f"only {100 * on_face:.1f} % of points on a face")
        result["sfm_err_px"].append(err)
        result["sfm_points"].append(len(points))
        result["sfm_surface_mm"].append(_rms(distance))
        return problems


def _read_ply(path: Path) -> np.ndarray:
    """Vertex positions of an ASCII PLY written by ``camkit sfm``."""
    lines = path.read_text(encoding="ascii").splitlines()
    count = next(int(line.split()[2]) for line in lines
                 if line.startswith("element vertex"))
    body = lines[lines.index("end_header") + 1:][:count]
    return np.array([[float(v) for v in line.split()[:3]] for line in body])


def _rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(values))))


def _cube_surface_distance(points: np.ndarray, half: float) -> np.ndarray:
    """Distance from each point to the surface of the cube ``[-half, half]^3``."""
    return np.linalg.norm(points - _closest_on_cube(points, half), axis=1)


def _closest_on_cube(points: np.ndarray, half: float) -> np.ndarray:
    """The nearest point on the surface of the cube ``[-half, half]^3``."""
    closest = np.clip(points, -half, half)
    inside = np.all(np.abs(points) < half, axis=1)
    axis = np.argmax(np.abs(points[inside]), axis=1)
    rows = np.flatnonzero(inside)
    closest[rows, axis] = np.copysign(half, points[rows, axis])
    return closest


class BaScale:
    """Bundle adjustment to convergence on seeded 5-view scenes of 250, 500
    and 1000 points, every point seen in every view.

    The seed moves the converged iteration count between 5 and 6, a fifth of
    the solve time, so the gated times are per LM iteration; time to
    converge and the iteration counts are reported beside them.
    """

    name = "ba-scale"
    images = False
    GATED = {"pass_s": "ba_iter_pass_s", "solve_s": "ba_iter_s.p1000",
             "err_px": "ba_err_px", "err_mm": "ba_err_mm"}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.scenes: list = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.scenes = [_ba_scene(n, rng) for n in BA_SIZES]

    def run_pass(self, ops: Ops, tag: str) -> dict:
        result = {"ba_iter_pass_s": [], "ba_err_px": [], "ba_err_mm": []}
        start = perf_counter()
        per_iteration, err_px, err_mm = [], [], []
        for (scene, truth), n in zip(self.scenes, BA_SIZES):
            reports = []
            problems = []
            with _capture_lm_reports(reports):
                try:
                    begin = perf_counter()
                    adjusted = camkit.bundle_adjust(scene, camkit.LmConfig())
                    secs = perf_counter() - begin
                except CamkitError as exc:
                    problems.append(f"{type(exc).__name__}: {exc}")
            if not problems:
                report = reports[-1]
                if not report.final_cost <= report.initial_cost:
                    problems.append(f"cost rose {report.initial_cost:.6g} -> "
                                    f"{report.final_cost:.6g}")
                if report.reason == "max-iter":
                    problems.append(f"stopped at max-iter after {report.iterations}")
            if ops.record(f"bundle_adjust p{n}", problems):
                result[f"ba_s.p{n}"] = [secs]
                result[f"ba_iterations.p{n}"] = [report.iterations]
                result[f"ba_iter_s.p{n}"] = [secs / report.iterations]
                per_iteration.append(secs / report.iterations)
                err_px.append(adjusted.mean_reprojection_error)
                err_mm.append(_aligned_rms(
                    np.array([t.point for t in adjusted.tracks]), truth))
        result["pass_wall_s"] = [perf_counter() - start]
        if len(per_iteration) == len(BA_SIZES):
            result["ba_iter_pass_s"].append(sum(per_iteration))
            result["ba_err_px"].append(float(np.mean(err_px)))
            result["ba_err_mm"].append(float(np.mean(err_mm)))
        return result


def _aligned_rms(points: np.ndarray, truth: np.ndarray) -> float:
    """RMS point error after the best similarity onto the truth, which
    removes the gauge the adjustment is free to choose."""
    s, rot, t = camkit.similarity_align(points, truth)
    aligned = s * points @ rot.T + t
    return float(np.sqrt(np.mean(np.sum((aligned - truth) ** 2, axis=1))))


@contextlib.contextmanager
def _capture_lm_reports(reports: list):
    """Keep the LmReport that ``bundle_adjust`` discards: the gates need its
    final cost and termination reason."""
    sfm = camkit.sfm
    solver = sfm.levenberg_marquardt

    def solve(*args, **kwargs):
        report = solver(*args, **kwargs)
        reports.append(report)
        return report

    sfm.levenberg_marquardt = solve
    try:
        yield
    finally:
        sfm.levenberg_marquardt = solver


def _ba_scene(n_points: int, rng: np.random.Generator):
    """A 5-view ring around points in a 200 mm box, expressed in the first
    camera's frame as incremental SfM leaves it. Observations carry 0.5 px
    noise and the starting points 2 mm per coordinate; poses start true.
    Returns (scene, true points)."""
    k = camkit.CameraIntrinsics(**REF_K)
    dist = camkit.DistortionCoeffs(**REF_DIST)
    ring = camkit.synthetic.sample_ring_poses(
        BA_VIEWS, radius=500.0, elevation_deg=25.0, sweep_deg=60.0,
        start_deg=float(rng.uniform(0.0, 360.0)))
    first = ring[0]
    poses = [pose.compose(first.inverse()) for pose in ring]
    truth = first.transform(rng.uniform(-100.0, 100.0, size=(n_points, 3)))
    features = {v: camkit.project(truth, pose, k, dist)
                + rng.normal(0.0, 0.5, size=(n_points, 2))
                for v, pose in enumerate(poses)}
    start = truth + rng.normal(0.0, 2.0, size=truth.shape)
    tracks = [camkit.Track(observations=tuple((v, i) for v in range(BA_VIEWS)),
                           point=start[i].copy(), valid=True)
              for i in range(n_points)]
    scene = camkit.SfmScene(
        intrinsics=k, distortion=dist, poses=dict(enumerate(poses)),
        view_order=tuple(range(BA_VIEWS)), tracks=tracks, features=features,
        intensities={v: np.zeros(n_points) for v in range(BA_VIEWS)})
    return scene, truth


WORKLOADS = {w.name: w for w in (Board, SfmCube, BaScale)}
