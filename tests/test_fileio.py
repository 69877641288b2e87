import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camkit import (
    CalibrationDataset,
    CameraIntrinsics,
    CameraPose,
    DistortionCoeffs,
    PointCloud,
    axis_angle_to_rotation,
    board_outline,
    calibrate,
    export_extrinsics_scene,
    pixel_to_normalized,
)
from camkit.errors import (
    CorruptFile,
    CorruptHeader,
    SchemaMismatch,
    TruncatedData,
    UnsupportedFormat,
)
from camkit.fileio import (
    _dump_json,
    _parse_pnm_header,
    _pose_to_json,
    format_ply,
    read_calibration,
    read_camera,
    read_image,
    read_render_spec,
    write_calibration,
    write_extrinsics_scene,
    write_image,
    write_ply,
)
from camkit.synthetic import sample_board_poses, synthesize_corner_views

from conftest import IMAGE_HEIGHT, IMAGE_WIDTH


def test_pgm_roundtrip_is_bit_exact(tmp_path):
    img = np.array([[0, 128], [255, 7]], dtype=np.uint8)
    path = tmp_path / "tiny.pgm"
    write_image(img, path)
    assert np.array_equal(read_image(path), img)


def test_pgm_roundtrip_random(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(37, 61), dtype=np.uint8)
    path = tmp_path / "r.pgm"
    write_image(img, path)
    assert np.array_equal(read_image(path), img)


def test_ppm_luma_conversion(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    assert read_image(path)[0, 0] == 76
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([0, 255, 0]))
    assert read_image(path)[0, 0] == 150  # (587*255+500)//1000
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
    assert read_image(path)[0, 0] == (299 * 10 + 587 * 20 + 114 * 30 + 500) // 1000


def test_p4_is_unsupported(tmp_path):
    path = tmp_path / "b.pnm"
    path.write_bytes(b"P4\n8 8\n" + bytes(8))
    with pytest.raises(UnsupportedFormat):
        read_image(path)


def test_wide_maxval_is_unsupported(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(UnsupportedFormat):
        read_image(path)


def test_truncated_raster(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(TruncatedData):
        read_image(path)


def test_corrupt_header(tmp_path):
    path = tmp_path / "h.pgm"
    path.write_bytes(b"P5\n4 four\n255\n" + bytes(16))
    with pytest.raises(CorruptHeader):
        read_image(path)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n# another\n255\n" + bytes([9, 9]))
    assert read_image(path).shape == (1, 2)


def _byte_loop_pnm_header(data: bytes):
    """The byte-by-byte header parser that the header grammar replaced, kept
    as the oracle for it."""
    if len(data) < 2:
        raise CorruptHeader("file too short for a PNM header")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise UnsupportedFormat(f"unsupported magic {magic!r}; only P5/P6 binary maps")
    pos = 2
    values = []
    while len(values) < 3:
        if pos >= len(data):
            raise CorruptHeader("header ended before width/height/maxval")
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(data) and data[pos:pos + 1].isdigit():
                pos += 1
            values.append(int(data[start:pos]))
        else:
            raise CorruptHeader(f"unexpected byte {c!r} in header")
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise CorruptHeader("missing whitespace after maxval")
    pos += 1
    width, height, maxval = values
    if maxval != 255:
        raise UnsupportedFormat(f"only maxval 255 supported, got {maxval}")
    if width <= 0 or height <= 0:
        raise CorruptHeader(f"invalid dimensions {width}x{height}")
    return magic, width, height, pos


def _header_outcome(parse, data):
    try:
        return parse(data)
    except (CorruptHeader, UnsupportedFormat) as exc:
        return type(exc)


# A run of separators is one to three of these tokens; b"" makes it empty.
_SEPARATORS = st.lists(st.sampled_from([
    b"", b" ", b"\t", b"\n", b"\r", b"\v", b"\f", b"# note\n", b"#\r",
    b"# no line break", b"# a # second\n", b"##"]), min_size=1, max_size=3).map(b"".join)
_NUMBERS = st.one_of(
    st.just(b"255"),
    st.integers(0, 700).map(lambda n: str(n).encode()),
    st.sampled_from([b"0", b"00", b"0255", b"007", b"65535",
                     b"x", b"-1", b"2.5", b"1e3", b"\xff"]))


@st.composite
def _pnm_headers(draw):
    """A header built from tokens: a magic (or a file too short for one), two
    to four fields each after a run of separators, then any byte or none.
    Half the draws have a P5/P6 magic, three fields or a whitespace byte
    after the last field."""
    data = draw(st.one_of(st.sampled_from([b"P5", b"P6"]),
                          st.sampled_from([b"", b"P", b"P4"])))
    for _ in range(draw(st.one_of(st.just(3), st.sampled_from([2, 4])))):
        data += draw(_SEPARATORS) + draw(_NUMBERS)
    return data + draw(st.one_of(st.sampled_from([b" ", b"\n"]),
                                 st.binary(max_size=1)))


@settings(max_examples=400, deadline=None)
@given(data=_pnm_headers())
@example(data=b"P52 1 255\n")
@example(data=b"P5 21 1 255\n")
@example(data=b"P6#c\n2#c\r1\x0b0255\x0c")
@example(data=b"P5 2 1 255")
@example(data=b"P5 2 1 " + b"#" * 4096)
def test_header_grammar_matches_the_byte_loop(data):
    assert (_header_outcome(_parse_pnm_header, data)
            == _header_outcome(_byte_loop_pnm_header, data))


GOLDEN_SINGLE_POINT_PLY = """ply
format ascii 1.0
element vertex 1
property float x
property float y
property float z
property uchar intensity
end_header
1.00000 2.00000 3.00000 150
"""


def test_ply_golden_single_point(tmp_path):
    cloud = PointCloud(positions=np.array([[1.0, 2.0, 3.0]]),
                       intensity=np.array([150.0]))
    assert format_ply(cloud) == GOLDEN_SINGLE_POINT_PLY
    path = tmp_path / "one.ply"
    write_ply(cloud, path)
    assert path.read_text() == GOLDEN_SINGLE_POINT_PLY


def test_ply_empty_cloud():
    cloud = PointCloud(positions=np.empty((0, 3)), intensity=np.empty(0))
    text = format_ply(cloud)
    assert "element vertex 0" in text
    assert text.rstrip().endswith("end_header")


def test_ply_vertex_count():
    rng = np.random.default_rng(2)
    cloud = PointCloud(positions=rng.normal(size=(54, 3)),
                       intensity=rng.uniform(0, 255, 54))
    text = format_ply(cloud)
    assert "element vertex 54" in text
    body = text.split("end_header\n", 1)[1]
    assert len(body.splitlines()) == 54


@pytest.fixture(scope="module")
def calibration_result(board_spec, ref_intrinsics, ref_distortion):
    rng = np.random.default_rng(33)
    poses = sample_board_poses(board_spec, ref_intrinsics, ref_distortion,
                               IMAGE_WIDTH, IMAGE_HEIGHT, 4, rng)
    grids = synthesize_corner_views(board_spec, ref_intrinsics, ref_distortion,
                                    poses, noise_sigma=0.3, rng=rng)
    dataset = CalibrationDataset(spec=board_spec, views=tuple(grids),
                                 image_width=IMAGE_WIDTH,
                                 image_height=IMAGE_HEIGHT)
    return calibrate(dataset)


# The extrinsics scene as three records (a frustum per camera, a rectangle
# per board and a scene holding either), with its export and writer, kept as
# the oracle for the one-record scene: both write the same bytes.

@dataclass(frozen=True)
class _OracleFrustum:
    pose: CameraPose
    apex: np.ndarray
    base: np.ndarray


@dataclass(frozen=True)
class _OracleBoard:
    pose: CameraPose
    corners: np.ndarray


@dataclass(frozen=True)
class _OracleScene:
    mode: str
    units: str = "mm"
    frusta: tuple = ()
    boards: tuple = ()


def _oracle_export(result, spec, mode):
    outline = board_outline(spec)
    if mode == "camera":
        boards = tuple(
            _OracleBoard(pose=pose, corners=pose.transform(outline))
            for pose in result.poses
        )
        return _OracleScene(mode=mode, boards=boards)

    distances = [float(np.linalg.norm(pose.translation)) for pose in result.poses]
    depth = 0.5 * float(np.median(distances))
    w, h = result.image_size
    image_corners = np.array([[0.0, 0.0], [w - 1.0, 0.0],
                              [w - 1.0, h - 1.0], [0.0, h - 1.0]])
    rays = pixel_to_normalized(image_corners, result.intrinsics)
    base_cam = np.column_stack([rays * depth, np.full(4, depth)])
    frusta = []
    for pose in result.poses:
        cam_to_world = pose.inverse()
        frusta.append(_OracleFrustum(
            pose=cam_to_world,
            apex=cam_to_world.translation.copy(),
            base=cam_to_world.transform(base_cam),
        ))
    return _OracleScene(mode=mode, frusta=tuple(frusta))


def _oracle_write(scene, path):
    doc = {
        "mode": scene.mode,
        "units": scene.units,
        "cameras": [
            dict(_pose_to_json(f.pose),
                 apex=f.apex.tolist(),
                 base=f.base.tolist())
            for f in scene.frusta
        ],
        "boards": [
            dict(_pose_to_json(b.pose), corners=b.corners.tolist())
            for b in scene.boards
        ],
    }
    _dump_json(doc, path)


@pytest.mark.parametrize("mode", ["pattern", "camera"])
def test_extrinsics_scene_writes_the_bytes_of_the_three_records(
        tmp_path, calibration_result, board_spec, mode):
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    write_extrinsics_scene(
        export_extrinsics_scene(calibration_result, board_spec, mode), ours)
    _oracle_write(_oracle_export(calibration_result, board_spec, mode), theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    assert len(json.loads(ours.read_text())[
        "cameras" if mode == "pattern" else "boards"]) == 4


def test_calibration_roundtrip(tmp_path, calibration_result):
    path = tmp_path / "calib.json"
    write_calibration(calibration_result, path)
    loaded = read_calibration(path)
    a, b = calibration_result, loaded
    for name in ("fx", "fy", "cx", "cy", "skew"):
        assert abs(getattr(a.intrinsics, name) - getattr(b.intrinsics, name)) <= 1e-12
    for name in ("k1", "k2", "k3", "p1", "p2"):
        assert abs(getattr(a.distortion, name) - getattr(b.distortion, name)) <= 1e-12
    assert abs(a.overall_error - b.overall_error) <= 1e-12
    assert np.max(np.abs(a.per_view_errors - b.per_view_errors)) <= 1e-12
    assert np.max(np.abs(a.pose_stderr - b.pose_stderr)) <= 1e-12
    for pa, pb in zip(a.poses, b.poses):
        assert np.max(np.abs(pa.rotation - pb.rotation)) <= 1e-12
        assert np.max(np.abs(pa.translation - pb.translation)) <= 1e-12
    assert a.intrinsic_stderr.keys() == b.intrinsic_stderr.keys()
    for key in a.intrinsic_stderr:
        assert abs(a.intrinsic_stderr[key] - b.intrinsic_stderr[key]) <= 1e-12
    assert a.image_size == b.image_size
    assert a.error_metric == b.error_metric
    # A file holds no solve, so a loaded calibration has no LM report.
    assert a.lm_report is not None and b.lm_report is None


def test_nan_standard_errors_roundtrip(tmp_path, calibration_result):
    # NaN marks a parameter the data do not fix; it must load back as NaN.
    from dataclasses import replace
    result = replace(calibration_result, intrinsic_stderr={"fx": float("nan")},
                     distortion_stderr={"k1": float("nan"), "k2": 0.5},
                     pose_stderr=np.full_like(calibration_result.pose_stderr, np.nan))
    path = tmp_path / "calib.json"
    write_calibration(result, path)
    loaded = read_calibration(path)
    assert np.isnan(loaded.intrinsic_stderr["fx"])
    assert np.isnan(loaded.distortion_stderr["k1"])
    assert loaded.distortion_stderr["k2"] == 0.5
    assert loaded.pose_stderr.shape == result.pose_stderr.shape
    assert np.all(np.isnan(loaded.pose_stderr))


def test_transposed_intrinsics_layout(tmp_path, calibration_result, board_spec):
    from dataclasses import replace
    result = replace(
        calibration_result,
        intrinsics=CameraIntrinsics(fx=839.345758, fy=839.557331,
                                    cx=332.366095, cy=259.509924))
    path = tmp_path / "ref.json"
    write_calibration(result, path)
    doc = json.loads(path.read_text())
    transposed = doc["intrinsics"]["matrix_transposed"]
    assert transposed[0][0] == 839.345758
    assert transposed[1][1] == 839.557331
    assert transposed[2] == [332.366095, 259.509924, 1.0]
    assert transposed[0][1:] == [0.0, 0.0]
    canonical = doc["intrinsics"]["matrix"]
    assert canonical[0][2] == 332.366095
    assert canonical[2] == [0.0, 0.0, 1.0]


def test_read_camera_gives_the_calibrations_camera(tmp_path, calibration_result):
    path = tmp_path / "calib.json"
    write_calibration(calibration_result, path)
    loaded = read_calibration(path)
    assert read_camera(path) == (loaded.image_size, loaded.intrinsics,
                                 loaded.distortion)


def test_missing_distortion_is_schema_mismatch(tmp_path, calibration_result):
    # Optional in a render spec, required in a calibration.
    path = tmp_path / "calib.json"
    write_calibration(calibration_result, path)
    doc = json.loads(path.read_text())
    del doc["distortion"]
    path.write_text(json.dumps(doc))
    for read in (read_calibration, read_camera):
        with pytest.raises(SchemaMismatch, match="'distortion'"):
            read(path)


def test_garbage_is_corrupt_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{not json")
    with pytest.raises(CorruptFile):
        read_calibration(path)


def test_render_spec_defaults_and_required_fields(tmp_path):
    doc = {"image_size": {"width": 64, "height": 48},
           "intrinsics": {"fx": 80.0, "fy": 80.0, "cx": 32.0, "cy": 24.0},
           "cube": {"edge": 20}, "views": 3}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = read_render_spec(path, "cube")
    assert spec["image_size"] == (64, 48)
    assert spec["distortion"] == DistortionCoeffs()
    assert spec["cube"] == {"edge": 20.0, "texture_seed": 7}
    assert (spec["poses"], spec["views"]) == (None, 3)
    assert spec["ring"] == {"radius": 50.0, "elevation_deg": 30.0,
                            "sweep_deg": 48.0, "start_deg": 21.0}

    doc["poses"] = [{"axis_angle": [0.0, 0.0, 0.1],
                     "translation": [0.0, 0.0, 100.0]}]
    del doc["views"]
    path.write_text(json.dumps(doc))
    spec = read_render_spec(path, "cube")
    assert spec["views"] is None
    assert spec["poses"][0].translation.tolist() == [0.0, 0.0, 100.0]
    with pytest.raises(SchemaMismatch, match="'board'"):
        read_render_spec(path, "board")


@pytest.mark.parametrize("rotation", [
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
], ids=["other-rotation", "not-3x3"])
def test_listed_rotation_must_match_axis_angle(tmp_path, rotation):
    pose = {"axis_angle": [0.0, 0.0, 0.1], "rotation": rotation,
            "translation": [0.0, 0.0, 100.0]}
    doc = {"image_size": {"width": 64, "height": 48},
           "intrinsics": {"fx": 80.0, "fy": 80.0, "cx": 32.0, "cy": 24.0},
           "cube": {"edge": 20}, "poses": [pose]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatch, match="does not match"):
        read_render_spec(path, "cube")
    # A rotation that matches to rounding is read as listed.
    pose["rotation"] = (axis_angle_to_rotation(pose["axis_angle"])
                        + 1e-14 * np.eye(3)).tolist()
    path.write_text(json.dumps(doc))
    read = read_render_spec(path, "cube")["poses"][0]
    assert read.rotation.tolist() == pose["rotation"]


def test_poses_read_the_per_vector_rotations(tmp_path):
    # One batched Rodrigues call gives each pose the bits of its own call.
    rng = np.random.default_rng(3)
    rvecs = np.concatenate([rng.normal(size=(30, 3)), rng.normal(size=(10, 3)) * 1e-6])
    doc = {"image_size": {"width": 64, "height": 48},
           "intrinsics": {"fx": 80.0, "fy": 80.0, "cx": 32.0, "cy": 24.0},
           "cube": {"edge": 20},
           "poses": [{"axis_angle": r.tolist(), "translation": [0.0, 0.0, 100.0]}
                     for r in rvecs]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    poses = read_render_spec(path, "cube")["poses"]
    for pose, rvec in zip(poses, rvecs):
        assert pose.rotation.tobytes() == axis_angle_to_rotation(rvec).tobytes()


@pytest.mark.parametrize("axis_angle", [
    [0.0, 0.1], [[0.0, 0.0, 0.1]], 0.1, [0.0, "a", 0.1], [0.0, float("nan"), 0.1],
], ids=["two", "nested", "scalar", "text", "nan"])
def test_malformed_axis_angle_is_schema_mismatch(tmp_path, axis_angle):
    pose = {"axis_angle": axis_angle, "translation": [0.0, 0.0, 100.0]}
    doc = {"image_size": {"width": 64, "height": 48},
           "intrinsics": {"fx": 80.0, "fy": 80.0, "cx": 32.0, "cy": 24.0},
           "cube": {"edge": 20},
           "poses": [{"axis_angle": [0.0, 0.0, 0.1], "translation": [0.0, 0.0, 100.0]},
                     pose]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatch):
        read_render_spec(path, "cube")
