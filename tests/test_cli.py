import json

import numpy as np
import pytest

from camkit.cli import run_cli
from camkit.fileio import read_calibration, read_ground_truth, read_image

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
    truth = read_ground_truth(board_dataset / "ground_truth.json")
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


def test_calibrate_with_two_images_exits_two(board_dataset, tmp_path, capsys):
    small = tmp_path / "two"
    small.mkdir()
    for name in sorted(p.name for p in board_dataset.glob("*.pgm"))[:2]:
        (small / name).write_bytes((board_dataset / name).read_bytes())
    code = run_cli(["calibrate", str(small), "--board", "10x7:23mm",
                    "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert "InsufficientViews" in capsys.readouterr().err


def test_missing_image_dir_exits_two(tmp_path, capsys):
    code = run_cli(["calibrate", str(tmp_path / "nope"), "--board",
                    "10x7:23mm", "--out", str(tmp_path / "c.json")])
    assert code == 2


def test_pose_command(board_dataset, calibration_file, tmp_path):
    image = sorted(board_dataset.glob("*.pgm"))[0]
    out = tmp_path / "pose.json"
    assert run_cli(["pose", str(image), "--calib", str(calibration_file),
                    "--board", "10x7:23mm", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mean_error"] < 0.2
    truth = read_ground_truth(board_dataset / "ground_truth.json")
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
    assert doc["mode"] == "pattern"
    assert len(doc["cameras"]) == 8
    assert doc["boards"] == []
    out2 = tmp_path / "scene2.json"
    assert run_cli(["extrinsics", "--calib", str(calibration_file),
                    "--board", "10x7:23mm", "--mode", "camera",
                    "--out", str(out2)]) == 0
    assert len(json.loads(out2.read_text())["boards"]) == 8


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
