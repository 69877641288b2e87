"""File formats: portable graymap/pixmap images, ASCII PLY, and JSON schemas
for calibration results, poses, visualization scenes, and synthetic ground
truth.

A PNM header is the magic ``P5`` or ``P6``, then width, height and maxval as
decimal numbers, then one whitespace byte before the raster. Whitespace or
comments (``#`` to the end of the line) may follow the magic and must
separate the numbers; maxval must be 255 and the dimensions positive.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .board import CheckerboardSpec
from .calibrate import CalibrationResult
from .errors import (
    CorruptFile,
    CorruptHeader,
    InvalidRotation,
    IoFailure,
    SchemaMismatch,
    TruncatedData,
    UnsupportedFormat,
)
from .geometry import (
    DISTORTION_NAMES,
    INTRINSIC_NAMES,
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    axis_angle_to_rotation,
    rotation_to_axis_angle,
)
from .pose import ExtrinsicsScene
from .sfm import PointCloud, SfmScene

CALIBRATION_SCHEMA_VERSION = 1


# --- portable graymap / pixmap ----------------------------------------------

_SEP = rb"\s|#[^\r\n]*[\r\n]"
_PNM_HEADER = re.compile(rb"(P[56])(?:%s)*(\d+)(?:%s)+(\d+)(?:%s)+(\d+)\s"
                         % ((_SEP,) * 3))


def _parse_pnm_header(data: bytes):
    if len(data) < 2:
        raise CorruptHeader("file too short for a PNM header")
    if data[:2] not in (b"P5", b"P6"):
        raise UnsupportedFormat(f"unsupported magic {data[:2]!r}; only P5/P6 binary maps")
    m = _PNM_HEADER.match(data)
    if m is None:
        raise CorruptHeader("malformed width/height/maxval header")
    try:
        width, height, maxval = map(int, m.group(2, 3, 4))
    except ValueError as exc:  # past the interpreter's int digit limit
        raise CorruptHeader(f"header number too long: {exc}") from exc
    if maxval != 255:
        raise UnsupportedFormat(f"only maxval 255 supported, got {maxval}")
    if width <= 0 or height <= 0:
        raise CorruptHeader(f"invalid dimensions {width}x{height}")
    return m.group(1), width, height, m.end()


def read_image(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file as a grayscale uint8 array.

    Color input is converted by integer luma: ``(299 r + 587 g + 114 b +
    500) // 1000``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    magic, width, height, pos = _parse_pnm_header(data)
    channels = 1 if magic == b"P5" else 3
    needed = width * height * channels
    raster = data[pos:pos + needed]
    if len(raster) < needed:
        raise TruncatedData(
            f"expected {needed} raster bytes, found {len(raster)}")
    pixels = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return pixels.reshape(height, width).copy()
    rgb = pixels.reshape(height, width, 3).astype(np.uint32)
    gray = (299 * rgb[:, :, 0] + 587 * rgb[:, :, 1] + 114 * rgb[:, :, 2] + 500) // 1000
    return gray.astype(np.uint8)


def write_image(image: np.ndarray, path) -> None:
    """Write a grayscale uint8 array as binary PGM; bit-exact round trip."""
    img = np.asarray(image)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("image must be a 2-d uint8 array")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + img.tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# --- PLY ---------------------------------------------------------------------

def format_ply(cloud: PointCloud) -> str:
    """The exact ASCII PLY text for a point cloud (6 significant digits)."""
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar intensity",
        "end_header",
    ]
    for (x, y, z), value in zip(cloud.positions, cloud.intensity):
        gray = int(np.clip(round(value), 0, 255))
        lines.append(f"{x:#.6g} {y:#.6g} {z:#.6g} {gray}")
    return "\n".join(lines) + "\n"


def write_ply(cloud: PointCloud, path) -> None:
    try:
        Path(path).write_text(format_ply(cloud), encoding="ascii")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# --- JSON helpers -------------------------------------------------------------

def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaMismatch(f"{context}: missing field {key!r}")
    return doc[key]


def _whole(doc: dict, key: str, context: str, default: int | None = None) -> int:
    """Field ``key`` of ``doc`` (``default`` when absent, if given) as an int:
    a JSON number with no fractional part. Raises SchemaMismatch for anything
    else (2.5, true, "3")."""
    value = _require(doc, key, context) if default is None else doc.get(key, default)
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise SchemaMismatch(f"{context}: {key} must be a whole number, got {value!r}")
    return int(value)


def _real(doc: dict, key: str, context: str, default: float | None = None) -> float:
    """Field ``key`` of ``doc`` (``default`` when absent, if given) as a float:
    a JSON number. Raises SchemaMismatch for anything else (true, "3")."""
    value = _require(doc, key, context) if default is None else doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaMismatch(f"{context}: {key} must be a number, got {value!r}")
    return float(value)


@contextmanager
def _schema(context: str):
    """Report a value that the camkit types reject, or that does not convert
    to the expected number, as a SchemaMismatch of the document."""
    try:
        yield
    except (TypeError, ValueError, OverflowError, InvalidRotation) as exc:
        raise SchemaMismatch(f"{context}: {exc}") from exc


def _intrinsics_to_json(k: CameraIntrinsics) -> dict:
    mat = k.matrix()
    return dict(asdict(k), matrix=mat.tolist(), matrix_transposed=mat.T.tolist())


def _camera_from_json(doc: dict, context: str):
    """The camera block of a calibration or render spec: ``image_size``
    (width, height), ``intrinsics`` and ``distortion`` (zero when absent).
    Raises SchemaMismatch unless the size is positive."""
    size = _require(doc, "image_size", context)
    width = _whole(size, "width", context)
    height = _whole(size, "height", context)
    if width < 1 or height < 1:
        raise SchemaMismatch(f"{context}: image size must be positive, "
                             f"got {width}x{height}")
    k = _require(doc, "intrinsics", context)
    d = doc.get("distortion", {"k1": 0.0, "k2": 0.0})
    return (width, height), CameraIntrinsics(
        fx=_real(k, "fx", context), fy=_real(k, "fy", context),
        cx=_real(k, "cx", context), cy=_real(k, "cy", context),
        skew=_real(k, "skew", context, 0.0),
    ), DistortionCoeffs(
        k1=_real(d, "k1", context), k2=_real(d, "k2", context),
        k3=_real(d, "k3", context, 0.0), p1=_real(d, "p1", context, 0.0),
        p2=_real(d, "p2", context, 0.0),
    )


def _stderr_from_json(doc: dict, key: str, names, context: str) -> dict:
    """The standard errors ``doc[key]``, keyed by names from ``names``."""
    stderr = _require(doc, key, context)
    if not isinstance(stderr, dict) or not set(stderr) <= set(names):
        raise SchemaMismatch(f"{context}: {key} standard errors need names from {names}")
    return {name: _real(stderr, name, context) for name in stderr}


def _pose_to_json(pose: CameraPose) -> dict:
    return {
        "axis_angle": rotation_to_axis_angle(pose.rotation).tolist(),
        "rotation": pose.rotation.tolist(),
        "translation": pose.translation.tolist(),
    }


def _poses_from_json(docs, context: str) -> list[CameraPose]:
    """Read poses from their ``axis_angle``, converted in one batched call,
    or from their ``rotation`` matrix when a document lists one: axis-angle
    to matrix and back is not exact, so only the matrix a file was written
    from reads back as that pose. Raises SchemaMismatch when the two
    disagree beyond 1e-12."""
    rvecs = [np.array(_require(doc, "axis_angle", context), dtype=np.float64)
             for doc in docs]
    if any(rvec.shape != (3,) for rvec in rvecs):
        raise SchemaMismatch(f"{context}: a pose's axis_angle must list 3 numbers")
    rotations = axis_angle_to_rotation(np.reshape(rvecs, (-1, 3)))
    poses = []
    for doc, rotation in zip(docs, rotations):
        t = np.array(_require(doc, "translation", context), dtype=np.float64)
        if "rotation" in doc:
            listed = np.array(doc["rotation"], dtype=np.float64)
            if listed.shape != (3, 3) or not np.max(np.abs(listed - rotation)) <= 1e-12:
                raise SchemaMismatch(f"{context}: a pose's rotation does not match "
                                     f"its axis_angle")
            rotation = listed
        poses.append(CameraPose(rotation, t))
    return poses


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise CorruptFile(f"{path} is not valid JSON: {exc}") from exc


def _dump_json(doc: dict, path) -> None:
    try:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# --- calibration files --------------------------------------------------------

def write_calibration(result: CalibrationResult, path) -> None:
    """Persist a calibration to JSON.

    The intrinsic matrix is stored both in the canonical row-major layout
    and transposed (focal lengths on the diagonal, principal point in the
    third row), and all numeric fields survive a load round trip to 1e-12.
    """
    doc = {
        "schema_version": CALIBRATION_SCHEMA_VERSION,
        "image_size": {"width": result.image_size[0],
                       "height": result.image_size[1]},
        "error_metric": result.error_metric,
        "intrinsics": _intrinsics_to_json(result.intrinsics),
        "distortion": asdict(result.distortion),
        "views": [
            dict(_pose_to_json(pose),
                 mean_error=float(err),
                 stderr=stderr.tolist())
            for pose, err, stderr in zip(result.poses, result.per_view_errors,
                                         result.pose_stderr)
        ],
        "overall_mean_error": result.overall_error,
        "stderr": {
            "intrinsics": dict(result.intrinsic_stderr),
            "distortion": dict(result.distortion_stderr),
        },
    }
    _dump_json(doc, path)


def read_camera(path) -> tuple[tuple[int, int], CameraIntrinsics, DistortionCoeffs]:
    """The ``(image_size, intrinsics, distortion)`` of a calibration JSON,
    checked as by :func:`read_calibration` but without reading the views."""
    return _calibration_camera(_load_json(path), str(path))


def _calibration_camera(doc: dict, ctx: str):
    version = _require(doc, "schema_version", ctx)
    if version != CALIBRATION_SCHEMA_VERSION:
        raise SchemaMismatch(f"{ctx}: unsupported schema version {version}")
    _require(doc, "distortion", ctx)  # optional in render specs only
    with _schema(ctx):
        return _camera_from_json(doc, ctx)


def read_calibration(path) -> CalibrationResult:
    """Load a calibration JSON written by :func:`write_calibration`.

    Raises CorruptFile for undecodable files and SchemaMismatch for missing
    fields, values the camera model rejects, malformed standard errors (NaN
    is legal), an image size that is not positive or no views. The result's
    ``lm_report`` is None: a file holds no solve.
    """
    doc = _load_json(path)
    ctx = str(path)
    image_size, intrinsics, distortion = _calibration_camera(doc, ctx)
    with _schema(ctx):
        views = _require(doc, "views", ctx)
        if not views:
            raise SchemaMismatch(f"{ctx}: need at least one view, got 0")
        poses = _poses_from_json(views, ctx)
        errors = [_real(view, "mean_error", ctx) for view in views]
        pose_stderr = [np.array(view.get("stderr", [np.nan] * 6), dtype=np.float64)
                       for view in views]
        if any(row.shape != (6,) for row in pose_stderr):
            raise SchemaMismatch(f"{ctx}: a view's stderr must list 6 numbers")
        stderr = _require(doc, "stderr", ctx)
        return CalibrationResult(
            intrinsics=intrinsics,
            distortion=distortion,
            poses=tuple(poses),
            per_view_errors=np.array(errors, dtype=np.float64),
            overall_error=_real(doc, "overall_mean_error", ctx),
            intrinsic_stderr=_stderr_from_json(stderr, "intrinsics", INTRINSIC_NAMES,
                                               ctx),
            distortion_stderr=_stderr_from_json(stderr, "distortion", DISTORTION_NAMES,
                                                ctx),
            pose_stderr=np.array(pose_stderr).reshape(-1, 6),
            image_size=image_size,
            error_metric=doc.get("error_metric", "mean_euclidean"),
        )


# --- other outputs ------------------------------------------------------------

def write_pose(pose: CameraPose, mean_error: float, path) -> None:
    doc = dict(_pose_to_json(pose),
               camera_center=pose.center.tolist(),
               mean_error=mean_error,
               units="mm")
    _dump_json(doc, path)


def write_extrinsics_scene(scene: ExtrinsicsScene, path) -> None:
    key = "cameras" if scene.mode == "pattern" else "boards"
    doc = {"mode": scene.mode, "units": "mm", "cameras": [], "boards": []}
    for pose, outline in zip(scene.poses, scene.outlines):
        if key == "cameras":
            shape = dict(apex=pose.translation.tolist(), base=outline.tolist())
        else:
            shape = dict(corners=outline.tolist())
        doc[key].append(dict(_pose_to_json(pose), **shape))
    _dump_json(doc, path)


def write_sfm_scene(scene: SfmScene, path) -> None:
    doc = {
        "units": "mm",
        "view_order": list(scene.view_order),
        "views": {
            str(v): _pose_to_json(pose) for v, pose in sorted(scene.poses.items())
        },
        "n_tracks": len(scene.tracks),
        "n_points": len(scene.valid_tracks()),
        "mean_reprojection_error": scene.mean_reprojection_error,
    }
    _dump_json(doc, path)


# --- synthetic ground truth ---------------------------------------------------

def write_ground_truth(path, spec: dict, poses, images: list[str]) -> None:
    """Write the render spec ``spec`` (as :func:`read_render_spec` returns it)
    with the rendered ``poses`` listed and the image file names."""
    doc = {
        "image_size": dict(zip(("width", "height"), spec["image_size"])),
        "intrinsics": _intrinsics_to_json(spec["intrinsics"]),
        "distortion": asdict(spec["distortion"]),
        "poses": [_pose_to_json(p) for p in poses],
        "images": images,
    }
    if "board" in spec:
        doc["board"] = asdict(spec["board"])
    else:
        doc["cube"] = spec["cube"]
    _dump_json(doc, path)


def read_render_spec(path, subject: str) -> dict:
    """Load a render spec for ``subject`` ("board" or "cube").

    A ``ground_truth.json`` written by a render is itself a render spec: its
    listed poses re-render the same capture.

    Returns plain objects: ``image_size`` (width, height), ``intrinsics``,
    ``distortion`` (zero when absent), ``poses`` (a list of CameraPose, or
    None when the spec gives a view count), ``views`` (that count, or None)
    and the subject: a CheckerboardSpec under ``board``, or
    ``{"edge", "texture_seed"}`` under ``cube`` (texture seed 7 when absent).
    A cube spec also has ``ring``: the :func:`~camkit.synthetic.sample_ring_poses`
    keywords ``radius``, ``elevation_deg``, ``sweep_deg`` and ``start_deg``
    as floats, 2.5 x edge, 30, 48 and 21 when absent. Raises SchemaMismatch
    for missing fields, for values the camera model or board rejects, and
    unless the image size, the view count, the cube edge and the ring radius
    are positive, the cube edge and the ring values finite and the texture
    seed not negative.
    """
    doc = _load_json(path)
    ctx = str(path)
    with _schema(ctx):
        out = dict(zip(("image_size", "intrinsics", "distortion"),
                       _camera_from_json(doc, ctx)))
        section = _require(doc, subject, ctx)
        if subject == "board":
            out["board"] = CheckerboardSpec(
                squares_x=_whole(section, "squares_x", ctx),
                squares_y=_whole(section, "squares_y", ctx),
                square_size=_real(section, "square_size", ctx),
            )
        else:
            edge = _real(section, "edge", ctx)
            out["cube"] = {"edge": edge,
                           "texture_seed": _whole(section, "texture_seed", ctx, 7)}
            ring = dict(doc.get("ring", {}))
            out["ring"] = {key: _real(ring, key, ctx, default) for key, default in (
                ("radius", 2.5 * edge), ("elevation_deg", 30.0),
                ("sweep_deg", 48.0), ("start_deg", 21.0))}
        if "poses" in doc:
            out["poses"] = _poses_from_json(doc["poses"], ctx)
            out["views"] = None
        else:
            out["poses"] = None
            out["views"] = _whole(doc, "views", ctx)
    n_views = len(out["poses"]) if out["views"] is None else out["views"]
    if n_views < 1:
        raise SchemaMismatch(f"{ctx}: need at least one view, got {n_views}")
    if subject == "cube":
        edge, seed = out["cube"]["edge"], out["cube"]["texture_seed"]
        if not 0 < edge < np.inf or seed < 0:
            raise SchemaMismatch(f"{ctx}: need a finite positive cube edge and a "
                                 f"non-negative texture seed, got {edge} and {seed}")
        ring = out["ring"]
        if not (np.all(np.isfinite(list(ring.values()))) and ring["radius"] > 0):
            raise SchemaMismatch(f"{ctx}: need a finite positive ring radius and "
                                 f"finite ring angles, got {ring}")
    return out
