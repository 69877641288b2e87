"""The parts of camkit's API that the benchmark under ``bench/`` relies on.

``bench/spans.py`` traces camkit functions by their ``module.function``
names, and the workloads build BA scenes from keywords and swap
``camkit.sfm.levenberg_marquardt`` to keep the solver's reports. The trace
list is read from the source text, so nothing under ``bench/`` is imported
or written.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import camkit
import camkit.sfm
import camkit.synthetic

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced_names() -> list[str]:
    """The first argument of every ``Target(...)`` in ``TARGETS``."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return [call.args[0].value for call in node.value.elts]
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_traced_name_resolves():
    names = _traced_names()
    assert "tracks.build_tracks" in names
    for name in names:
        module, _, function = name.rpartition(".")
        assert callable(getattr(importlib.import_module(f"camkit.{module}"),
                                function)), name
    # The trace counts the tracks with len().
    assert isinstance(camkit.build_tracks([(0, 1, [(0, 0)])]), list)


def test_len_counts_features_and_matches():
    # The trace counts detect_features' and match_features' results with len().
    rng = np.random.default_rng(1)
    image = ndimage.gaussian_filter(rng.uniform(0.0, 255.0, (128, 128)), 2.0)
    feats = camkit.detect_features(image.astype(np.uint8), max_features=60)
    assert len(feats) == feats.positions.shape[0] == feats.descriptors.shape[0]
    assert 0 < len(feats) <= 60
    half = camkit.Features(*(a[::2] for a in (feats.positions, feats.scales,
                                              feats.orientations, feats.descriptors,
                                              feats.responses)))
    matches = camkit.match_features(feats, half)
    assert matches.shape == (len(matches), 2)
    assert len(matches) == len(half)  # every kept feature finds itself
    assert matches[:, 0].tolist() == list(range(0, len(feats), 2))


def test_problem_without_jacobian_converges():
    problem = camkit.LeastSquaresProblem(lambda x: x - np.array([1.0, 2.0]))
    report = camkit.levenberg_marquardt(problem, np.zeros(2))
    assert report.params == pytest.approx([1.0, 2.0], abs=1e-9)
    assert report.final_cost < 1e-18


def test_keyword_scene_goes_through_the_patched_sfm_solver(monkeypatch):
    # A 5-view ring around 30 points in the first camera's frame, with
    # 0.5 px observation noise and 2 mm point noise, as the BA workload
    # builds its scenes.
    rng = np.random.default_rng(3)
    n_views, n_points = 5, 30
    k = camkit.CameraIntrinsics(fx=800.0, fy=800.0, cx=320.0, cy=240.0)
    dist = camkit.DistortionCoeffs(k1=-0.1, k2=0.05)
    ring = camkit.synthetic.sample_ring_poses(
        n_views, radius=500.0, elevation_deg=25.0, sweep_deg=60.0,
        start_deg=40.0)
    first = ring[0]
    poses = [pose.compose(first.inverse()) for pose in ring]
    truth = first.transform(rng.uniform(-100.0, 100.0, size=(n_points, 3)))
    features = {v: camkit.project(truth, pose, k, dist)
                + rng.normal(0.0, 0.5, size=(n_points, 2))
                for v, pose in enumerate(poses)}
    start = truth + rng.normal(0.0, 2.0, size=truth.shape)
    tracks = [camkit.Track(observations=tuple((v, i) for v in range(n_views)),
                           point=start[i].copy(), valid=True)
              for i in range(n_points)]
    scene = camkit.SfmScene(
        intrinsics=k, distortion=dist, poses=dict(enumerate(poses)),
        view_order=tuple(range(n_views)), tracks=tracks, features=features,
        intensities={v: np.zeros(n_points) for v in range(n_views)})

    reports = []
    solver = camkit.sfm.levenberg_marquardt

    def solve(*args, **kwargs):
        reports.append(solver(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(camkit.sfm, "levenberg_marquardt", solve)
    adjusted = camkit.bundle_adjust(scene, camkit.LmConfig())
    assert len(reports) == 1
    assert adjusted.lm_report is reports[0]
    assert reports[0].final_cost < reports[0].initial_cost
    assert reports[0].reason in ("cost-tol", "step-tol")
    assert adjusted.mean_reprojection_error < 1.0
    assert len(adjusted.valid_tracks()) == n_points
