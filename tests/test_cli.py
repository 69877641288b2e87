import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from camkit.cli import run_cli
from camkit.errors import SchemaMismatch
from camkit.fileio import (read_calibration, read_image, read_render_spec,
                           write_image)

from conftest import REF_CX, REF_CY, REF_FX, REF_FY, REF_K1, REF_K2


def board_spec_doc(views=8, width=480, height=360):
    # A reduced camera keeps CLI end-to-end runs quick while preserving the
    # reference camera's field of view.
    scale = width / 640.0
    return {
        "board": {"squares_x": 10, "squares_y": 7, "square_size": 23.0},
        "image_size": {"width": width, "height": height},
        "intrinsics": {"fx": REF_FX * scale, "fy": REF_FY * scale,
                       "cx": REF_CX * scale, "cy": REF_CY * scale, "skew": 0.0},
        "distortion": {"k1": REF_K1, "k2": REF_K2},
        "views": views,
    }


@pytest.fixture(scope="module")
def board_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_board")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(board_spec_doc()))
    out_dir = root / "views"
    assert run_cli(["render-board", str(spec_path), "--out", str(out_dir),
                    "--seed", "4"]) == 0
    return out_dir


@pytest.fixture(scope="module")
def calibration_file(board_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_calib") / "calib.json"
    report = out.with_suffix(".csv")
    code = run_cli(["calibrate", str(board_dataset), "--board", "10x7:23mm",
                    "--out", str(out), "--report", str(report)])
    assert code == 0
    assert report.exists()
    return out


def test_render_board_outputs(board_dataset):
    images = sorted(board_dataset.glob("*.pgm"))
    assert len(images) == 8
    truth = read_render_spec(board_dataset / "ground_truth.json", "board")
    assert len(truth["poses"]) == 8
    assert truth["board"].squares_x == 10
    assert read_image(images[0]).shape == (360, 480)


def test_cli_calibration_recovers_camera(calibration_file):
    result = read_calibration(calibration_file)
    scale = 480 / 640.0
    assert abs(result.intrinsics.fx - REF_FX * scale) / (REF_FX * scale) < 2e-3
    assert abs(result.intrinsics.cx - REF_CX * scale) < 1.0
    assert result.overall_error < 0.1  # detector-limited floor
    report_lines = calibration_file.with_suffix(".csv").read_text().splitlines()
    assert report_lines[0] == "view,image,mean_error_px"
    assert len(report_lines) == 1 + 8 + 1
    assert report_lines[-1].startswith("overall,,")
    for line in report_lines[1:]:
        float(line.split(",")[2])


def test_cli_outputs_are_deterministic(board_dataset, tmp_path):
    outs = []
    for run in range(2):
        out = tmp_path / f"calib_{run}.json"
        assert run_cli(["calibrate", str(board_dataset), "--board",
                        "10x7:23mm", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_bad_board_flag_is_usage_error(capsys):
    assert run_cli(["calibrate", "somewhere", "--board", "banana",
                    "--out", "x.json"]) == 1
    err = capsys.readouterr().err
    assert "board" in err


def test_infinite_board_square_is_usage_error(capsys):
    # 400 nines overflow to an infinite square size.
    assert run_cli(["calibrate", "somewhere", "--board", f"10x7:{'9' * 400}mm",
                    "--out", "x.json"]) == 1
    assert "usage error:" in capsys.readouterr().err


def test_calibrate_with_two_images_exits_two(board_dataset, tmp_path, capsys):
    small = tmp_path / "two"
    small.mkdir()
    for name in sorted(p.name for p in board_dataset.glob("*.pgm"))[:2]:
        (small / name).write_bytes((board_dataset / name).read_bytes())
    code = run_cli(["calibrate", str(small), "--board", "10x7:23mm",
                    "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert "InsufficientViews" in capsys.readouterr().err


def test_render_board_without_a_fitting_pose_exits_two(tmp_path, capsys):
    # A principal point far outside the image leaves no pose that frames
    # the board: a processing error, with nothing written.
    doc = board_spec_doc()
    doc["intrinsics"]["cx"] = 5000.0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    out = tmp_path / "views"
    assert run_cli(["render-board", str(spec_path), "--out", str(out)]) == 2
    assert "BoardOutOfView" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["calibrate-missing-directory", "calibrate-no-images",
                                  "calibrate-mixed-sizes", "undistort-missing-calibration",
                                  "pose-wider-image", "undistort-wider-image",
                                  "sfm-calibration-size", "sfm-mixed-sizes"])
def test_io_failure_exits_two_and_writes_nothing(case, board_dataset, calibration_file,
                                                 tmp_path, capsys):
    images, out = tmp_path / "images", tmp_path / "out"
    first_view = sorted(board_dataset.glob("*.pgm"))[0]
    # The first view padded 20 columns wider: its board is still detected.
    wider = tmp_path / "wider.pgm"
    write_image(np.pad(read_image(first_view), ((0, 0), (0, 20)), mode="edge"), wider)
    argv = ["calibrate", str(images), "--board", "10x7:23mm"]
    if case == "calibrate-no-images":
        images.mkdir()
        (images / "notes.txt").write_text("no views here\n")
    elif case == "calibrate-mixed-sizes":
        # The size check follows the first view's corner detection, so the
        # first image holds a board.
        images.mkdir()
        (images / "a.pgm").write_bytes(first_view.read_bytes())
        write_image(np.zeros((120, 160), dtype=np.uint8), images / "b.pgm")
    elif case == "undistort-missing-calibration":
        argv = ["undistort", str(first_view), "--calib", str(tmp_path / "absent.json")]
    elif case in ("pose-wider-image", "undistort-wider-image"):
        # The calibration is of 480x360 images.
        argv = [case.split("-")[0], str(wider), "--calib", str(calibration_file)]
        argv += ["--board", "10x7:23mm"] if case.startswith("pose") else []
    elif case == "sfm-calibration-size":
        calib = json.loads(calibration_file.read_text())
        calib["image_size"] = {"width": 320, "height": 240}
        (tmp_path / "calib.json").write_text(json.dumps(calib))
        argv = ["sfm", str(board_dataset), "--calib", str(tmp_path / "calib.json")]
    elif case == "sfm-mixed-sizes":
        # The first image has the calibration's size, the second does not.
        images.mkdir()
        for name in ("a.pgm", "c.pgm"):
            (images / name).write_bytes(first_view.read_bytes())
        (images / "b.pgm").write_bytes(wider.read_bytes())
        argv = ["sfm", str(images), "--calib", str(calibration_file)]
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "IoFailure" in err
    wider_message = "image wider.pgm is 500x360, not the 480x360 of the calibration"
    assert {"calibrate-mixed-sizes": "image b.pgm is 160x120, not the 480x360 of the first image",
            "pose-wider-image": wider_message,
            "undistort-wider-image": wider_message,
            "sfm-calibration-size": "image view_000.pgm is 480x360, not the 320x240 of the calibration",
            "sfm-mixed-sizes": "image b.pgm is 500x360, not the 480x360 of the calibration",
            }.get(case, "IoFailure") in err
    assert not out.exists()


def test_pose_command(board_dataset, calibration_file, tmp_path):
    image = sorted(board_dataset.glob("*.pgm"))[0]
    out = tmp_path / "pose.json"
    assert run_cli(["pose", str(image), "--calib", str(calibration_file),
                    "--board", "10x7:23mm", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mean_error"] < 0.2
    truth = read_render_spec(board_dataset / "ground_truth.json", "board")
    gt_t = truth["poses"][0].translation
    assert np.linalg.norm(np.array(doc["translation"]) - gt_t) < 2.0


def test_undistort_command(board_dataset, calibration_file, tmp_path):
    image = sorted(board_dataset.glob("*.pgm"))[0]
    out = tmp_path / "flat.pgm"
    assert run_cli(["undistort", str(image), "--calib", str(calibration_file),
                    "--out", str(out)]) == 0
    assert read_image(out).shape == read_image(image).shape


def test_extrinsics_command(calibration_file, tmp_path):
    out = tmp_path / "scene.json"
    assert run_cli(["extrinsics", "--calib", str(calibration_file),
                    "--board", "10x7:23mm", "--mode", "pattern",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "pattern" and doc["units"] == "mm"
    assert len(doc["cameras"]) == 8
    assert doc["boards"] == []
    for camera in doc["cameras"]:
        assert camera["apex"] == camera["translation"]
    out2 = tmp_path / "scene2.json"
    assert run_cli(["extrinsics", "--calib", str(calibration_file),
                    "--board", "10x7:23mm", "--mode", "camera",
                    "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["mode"] == "camera" and doc2["units"] == "mm"
    assert len(doc2["boards"]) == 8
    assert doc2["cameras"] == []


def test_render_scene_and_sfm_commands(tmp_path, calibration_file):
    spec = {
        "cube": {"edge": 200.0, "texture_seed": 7},
        "image_size": {"width": 640, "height": 480},
        "intrinsics": {"fx": REF_FX, "fy": REF_FY, "cx": REF_CX, "cy": REF_CY},
        "views": 5,
        "ring": {"radius": 450.0, "elevation_deg": 30.0, "sweep_deg": 48.0,
                 "start_deg": 21.0},
    }
    spec_path = tmp_path / "cube.json"
    spec_path.write_text(json.dumps(spec))
    capture = tmp_path / "capture"
    assert run_cli(["render-scene", str(spec_path), "--out", str(capture)]) == 0
    assert len(list(capture.glob("*.pgm"))) == 5

    # Calibration file matching the render camera, distortion-free.
    calib = json.loads(calibration_file.read_text())
    calib["image_size"] = spec["image_size"]
    calib["intrinsics"].update(fx=REF_FX, fy=REF_FY, cx=REF_CX, cy=REF_CY,
                               skew=0.0)
    calib["distortion"] = {"k1": 0.0, "k2": 0.0, "k3": 0.0, "p1": 0.0, "p2": 0.0}
    calib_path = tmp_path / "cube_calib.json"
    calib_path.write_text(json.dumps(calib))

    ply = tmp_path / "cloud.ply"
    assert run_cli(["sfm", str(capture), "--calib", str(calib_path),
                    "--out", str(ply), "--seed", "0"]) == 0
    text = ply.read_text()
    n = int(text.split("element vertex ")[1].split("\n")[0])
    assert n > 50
    scene_doc = json.loads(ply.with_suffix(".scene.json").read_text())
    assert len(scene_doc["views"]) == 5
    assert scene_doc["mean_reprojection_error"] < 0.5


def small_cube_spec_doc(**extra):
    scale = 160 / 640.0
    return dict({
        "cube": {"edge": 200.0, "texture_seed": 7},
        "image_size": {"width": 160, "height": 120},
        "intrinsics": {"fx": REF_FX * scale, "fy": REF_FY * scale,
                       "cx": REF_CX * scale, "cy": REF_CY * scale},
    }, **extra)


@pytest.mark.parametrize("command, subject, doc", [
    ("render-board", "board", board_spec_doc(views=3, width=160, height=120)),
    ("render-scene", "cube", small_cube_spec_doc(views=3)),
], ids=["board", "cube"])
def test_ground_truth_rerenders_its_capture(tmp_path, command, subject, doc):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    renders = [tmp_path / name for name in ("first", "again", "third")]
    assert run_cli([command, str(spec_path), "--out", str(renders[0]),
                    "--seed", "3"]) == 0
    # Each capture re-renders from the previous one's ground truth.
    for source, out in zip(renders, renders[1:]):
        assert run_cli([command, str(source / "ground_truth.json"),
                        "--out", str(out)]) == 0
    names = sorted(p.name for p in renders[0].iterdir())
    assert len(names) == 4 and "ground_truth.json" in names
    for out in renders[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (renders[0] / name).read_bytes()


def test_render_scene_from_listed_poses(tmp_path):
    poses = [{"axis_angle": [1.9, -0.6, -0.5], "translation": [0.0, 0.0, 500.0]},
             {"axis_angle": [1.7, 0.4, 0.3], "translation": [5.0, -3.0, 480.0]}]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(small_cube_spec_doc(poses=poses)))
    out = tmp_path / "capture"
    assert run_cli(["render-scene", str(spec_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.pgm")) == ["view_000.pgm",
                                                          "view_001.pgm"]
    truth = read_render_spec(out / "ground_truth.json", "cube")
    listed = read_render_spec(spec_path, "cube")
    for a, b in zip(truth["poses"], listed["poses"], strict=True):
        np.testing.assert_allclose(a.rotation, b.rotation, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(a.translation, b.translation)
    # The cube is in view: the image is not all background.
    assert len(np.unique(read_image(out / "view_000.pgm"))) > 10


def test_pose_without_board_exits_two(calibration_file, tmp_path, capsys):
    image = tmp_path / "blank.pgm"
    write_image(np.full((360, 480), 128, dtype=np.uint8), image)
    code = run_cli(["pose", str(image), "--calib", str(calibration_file),
                    "--board", "10x7:23mm", "--out", str(tmp_path / "p.json")])
    assert code == 2
    assert "corner detection failed on blank.pgm" in capsys.readouterr().err


def _board_with(**changes):
    return ("render-board", dict(board_spec_doc(views=3), **changes))


def _cube_with(**changes):
    return ("render-scene", dict(small_cube_spec_doc(views=3), **changes))


MALFORMED = {
    "board-negative-views": _board_with(views=-1),
    "board-zero-width": _board_with(image_size={"width": 0, "height": 360}),
    "board-square-board": _board_with(board={"squares_x": 5, "squares_y": 5,
                                             "square_size": 23.0}),
    "board-no-poses": _board_with(poses=[]),
    "board-nan-translation": _board_with(poses=[
        {"axis_angle": [0.1, 0.0, 0.0], "translation": [float("nan"), 0.0, 600.0]}]),
    "board-nan-axis-angle": _board_with(poses=[
        {"axis_angle": [float("nan"), 0.0, 0.0], "translation": [0.0, 0.0, 600.0]}]),
    "board-infinite-square": _board_with(board={"squares_x": 10, "squares_y": 7,
                                                "square_size": float("inf")}),
    # Counts and sizes must be whole JSON numbers, not truncated.
    "board-fractional-views": _board_with(views=2.5),
    "board-fractional-squares": _board_with(board={"squares_x": 10.9, "squares_y": 7,
                                                   "square_size": 23.0}),
    "cube-negative-views": _cube_with(views=-1),
    "cube-zero-width": _cube_with(image_size={"width": 0, "height": 120}),
    "cube-negative-edge": _cube_with(cube={"edge": -5.0}),
    "cube-infinite-edge": _cube_with(cube={"edge": float("inf")},
                                     ring={"radius": 450.0}),
    "cube-infinite-width": _cube_with(image_size={"width": float("inf"),
                                                  "height": 120}),
    "cube-negative-texture-seed": _cube_with(cube={"edge": 200.0,
                                                   "texture_seed": -1}),
    "cube-text-views": _cube_with(views="three"),
    "cube-boolean-views": _cube_with(views=True),
    "cube-zero-ring-radius": _cube_with(ring={"radius": 0.0}),
    "cube-infinite-ring-angle": _cube_with(ring={"sweep_deg": float("inf")}),
    # A calibration case is a command and the fields it overwrites, by
    # section (in every view for ``views``), in a written calibration.
    "calibration-negative-fx": ("undistort", {"intrinsics": {"fx": -80.0}}),
    "calibration-zero-width": ("extrinsics", {"image_size": {"width": 0}}),
    "calibration-infinite-width": ("extrinsics",
                                   {"image_size": {"width": float("inf")}}),
    "calibration-fractional-width": ("extrinsics", {"image_size": {"width": 320.7}}),
    "calibration-short-view-stderr": ("extrinsics", {"views": {"stderr": [1, 2]}}),
    "calibration-text-view-stderr": ("extrinsics",
                                     {"views": {"stderr": ["abc"] * 6}}),
    "calibration-text-stderr": ("extrinsics", {"stderr": {"intrinsics": {"fx": "abc"}}}),
    "calibration-unknown-stderr": ("extrinsics",
                                   {"stderr": {"distortion": {"k4": 0.1}}}),
}


@pytest.mark.parametrize("command, doc", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_malformed_input_is_schema_mismatch(command, doc, calibration_file,
                                            tmp_path, capsys):
    path = tmp_path / "input.json"
    out = tmp_path / "out"
    if command.startswith("render-"):
        path.write_text(json.dumps(doc))
        argv = [command, str(path), "--out", str(out)]
    else:
        calib = json.loads(calibration_file.read_text())
        for section, fields in doc.items():
            for block in calib[section] if section == "views" else [calib[section]]:
                block.update(fields)
        path.write_text(json.dumps(calib))
        image = tmp_path / "image.pgm"
        write_image(np.zeros((120, 160), dtype=np.uint8), image)
        extra = {"undistort": [str(image)],
                 "extrinsics": ["--board", "10x7:23mm", "--mode", "pattern"]}
        argv = [command, "--calib", str(path), "--out", str(out), *extra[command]]
    assert run_cli(argv) == 2
    assert "SchemaMismatch" in capsys.readouterr().err
    assert not out.exists()


def test_camera_commands_read_only_the_camera_block(board_dataset, calibration_file,
                                                   tmp_path):
    # pose and undistort take the image size, intrinsics and distortion
    # alone: with the views and standard errors broken, which read_calibration
    # refuses, they write the same bytes.
    doc = json.loads(calibration_file.read_text())
    doc.update(views="not a list of views", stderr=None)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatch):
        read_calibration(broken)
    image = str(sorted(board_dataset.glob("*.pgm"))[0])
    outputs = []
    for calib in (calibration_file, broken):
        pose, flat = tmp_path / f"{calib.stem}_pose.json", tmp_path / f"{calib.stem}_flat.pgm"
        assert run_cli(["pose", image, "--calib", str(calib), "--board", "10x7:23mm",
                        "--out", str(pose)]) == 0
        assert run_cli(["undistort", image, "--calib", str(calib), "--out", str(flat)]) == 0
        outputs.append([pose.read_bytes(), flat.read_bytes()])
    assert outputs[0] == outputs[1]


CAMERA_BREAKS = {
    "schema-version": lambda doc: doc.update(schema_version=2),
    "negative-fx": lambda doc: doc["intrinsics"].update(fx=-80.0),
    "zero-width": lambda doc: doc["image_size"].update(width=0),
    "text-height": lambda doc: doc["image_size"].update(height="tall"),
    "no-k1": lambda doc: doc["distortion"].pop("k1"),
    "no-distortion": lambda doc: doc.pop("distortion"),
}


@pytest.mark.parametrize("command", ["pose", "undistort", "sfm"])
@pytest.mark.parametrize("change", list(CAMERA_BREAKS.values()), ids=list(CAMERA_BREAKS))
def test_camera_commands_reject_a_malformed_camera_block(
        command, change, board_dataset, calibration_file, tmp_path, capsys):
    doc = json.loads(calibration_file.read_text())
    change(doc)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    image = str(sorted(board_dataset.glob("*.pgm"))[0])
    out = tmp_path / "out"
    inputs = {"pose": [image, "--board", "10x7:23mm"], "undistort": [image],
              "sfm": [str(board_dataset)]}[command]
    assert run_cli([command, *inputs, "--calib", str(path), "--out", str(out)]) == 2
    assert "SchemaMismatch" in capsys.readouterr().err
    assert not out.exists()


def test_importing_camkit_loads_no_scipy_beyond_ndimage():
    # camkit takes only scipy.ndimage from scipy. Compared with what that
    # import loads by itself, so that the check holds for any scipy version.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))

    def scipy_modules(statement: str) -> set:
        code = (f"import sys; {statement}; print(*(m for m in sys.modules "
                f"if m.split('.')[0] == 'scipy'))")
        return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout.split())

    ndimage = scipy_modules("import scipy.ndimage")
    loaded = scipy_modules("import camkit, camkit.cli")
    assert "scipy.ndimage" in loaded
    assert loaded - ndimage == set()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits")
                    or sys.get_int_max_str_digits() == 0,
                    reason="no limit on the digits of an int")
@pytest.mark.parametrize("part, error", [("image", "CorruptHeader"),
                                         ("calibration", "CorruptFile")])
def test_number_past_the_int_digit_limit_exits_two(part, error, calibration_file,
                                                   tmp_path, capsys):
    # int() refuses a decimal string longer than the interpreter's limit
    # with a bare ValueError; json.dumps cannot write such an int, so the
    # calibration text is edited by hand.
    huge = "1" * (sys.get_int_max_str_digits() + 1)
    image = tmp_path / "image.pgm"
    calib = tmp_path / "calib.json"
    if part == "image":
        image.write_bytes(f"P5 {huge} 1 255\n".encode() + bytes(8))
        calib.write_bytes(calibration_file.read_bytes())
    else:
        write_image(np.zeros((120, 160), dtype=np.uint8), image)
        doc = json.loads(calibration_file.read_text())
        doc["image_size"]["width"] = "HUGE"
        calib.write_text(json.dumps(doc).replace('"HUGE"', huge))
    out = tmp_path / "flat.pgm"
    assert run_cli(["undistort", str(image), "--calib", str(calib),
                    "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()
