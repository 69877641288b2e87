"""In-memory span recorder and the instrumentation of camkit's modules.

A traced pass replaces selected camkit functions with wrappers that record
one span per call: name, start, end, parent span and run id. A span with no
parent starts a new run id, so all spans caused by one top-level operation
(one CLI command, one ``bundle_adjust`` call) share it. Wrappers are
installed at every name the callers look up -- a function imported into
five modules is replaced in all five -- and nothing under ``src/`` changes.
Spans stay in memory until :meth:`Recorder.write` at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import camkit.optimize


@dataclass(frozen=True)
class Target:
    """One camkit function to trace; its span is named ``name``.

    ``before`` and ``after`` map a quantity to a function of the call's
    ``(args, kwargs)`` or ``(args, kwargs, result)``; the values are summed
    into the counter ``<name>.<quantity>``.
    """

    name: str  # "<module>.<function>"
    calls: bool = False
    failed: bool = False
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)


def _file_size(index: int):
    return lambda args, kwargs, *_: Path(args[index]).stat().st_size


def _length(args, kwargs, result) -> int:
    return len(result)


TARGETS = (
    Target("geometry.undistort_normalized",
           before={"points": lambda a, k: np.asarray(a[0]).size // 2}),
    Target("board.render_board", calls=True),
    Target("synthetic.render_cube_view", calls=True),
    Target("corners.detect_corners", calls=True, failed=True),
    Target("homography.estimate_homography", calls=True),
    Target("calibrate.calibrate"),
    Target("calibrate.init_intrinsics"),
    Target("pose.estimate_board_pose"),
    Target("pose.refine_pose", calls=True),
    Target("features.detect_features", after={"features": _length}),
    Target("features.match_features", after={"matches": _length}),
    Target("epipolar.essential_ransac", calls=True,
           before={"raw_matches": lambda a, k: len(a[0])},
           after={"inliers": lambda a, k, r: int(np.sum(r[1]))}),
    Target("epipolar.eight_point", calls=True),
    Target("epipolar.recover_relative_pose"),
    Target("epipolar.triangulate_points"),
    Target("tracks.build_tracks", after={"tracks": _length}),
    Target("sfm.reconstruct",
           after={"views_registered": lambda a, k, r: len(r.poses)}),
    Target("sfm.bundle_adjust", calls=True),
    Target("fileio.read_image", calls=True, after={"bytes": _file_size(0)}),
    Target("fileio.write_image", calls=True, after={"bytes": _file_size(1)}),
    Target("fileio.read_calibration"),
    Target("fileio.write_calibration"),
    Target("fileio.write_ply"),
    Target("fileio.write_sfm_scene"),
    Target("cli.run_cli", calls=True,
           after={"failed": lambda a, k, r: int(r != 0)}),
)

LM = "optimize.levenberg_marquardt"
JACOBIAN = "optimize.jacobian"
RESIDUAL = "optimize.residual"


class Recorder:
    """Spans plus exact per-layer counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._runs = 0

    def wrap(self, target: Target, fn):
        """Return ``fn`` recording one span and the target's counters per
        call; exceptions propagate unchanged."""
        spans, stack, counts = self.spans, self._stack, self.counts
        name = target.name

        def traced(*args, **kwargs):
            if target.calls:
                counts[f"{name}.calls"] += 1
            for qty, measure in target.before.items():
                counts[f"{name}.{qty}"] += measure(args, kwargs)
            if stack:
                parent = stack[-1]
                run = spans[parent][4]
            else:
                parent = None
                self._runs += 1
                run = self._runs
            span = [name, perf_counter(), 0.0, parent, run]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if target.failed:
                    counts[f"{name}.failed"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            for qty, measure in target.after.items():
                counts[f"{name}.{qty}"] += measure(args, kwargs, result)
            return result

        return traced

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the time its child spans
        cover; calls are single-threaded, so children never overlap.
        """
        inclusive: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            inclusive[name] += end - start
            if parent is not None:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            own[name] += end - start - child
        return inclusive, own

    def per_layer(self, names, overhead_s: float) -> dict[str, float]:
        """Each named metric ``<module>.<function>.<qty>``: ``s`` inclusive
        seconds, ``self_s`` seconds minus child spans, anything else the
        counter of that name; 0 for layers never entered."""
        inclusive, own = self.layer_times()
        counts = self.counts
        matches = counts["epipolar.essential_ransac.raw_matches"]
        derived = {
            "epipolar.essential_ransac.inlier_ratio":
                counts["epipolar.essential_ransac.inliers"] / matches
                if matches else 0.0,
            "sfm.views_registered": counts["sfm.reconstruct.views_registered"],
            "trace.spans": float(len(self.spans)),
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for metric in names:
            layer, _, qty = metric.rpartition(".")
            if metric in derived:
                out[metric] = derived[metric]
            elif qty == "s":
                out[metric] = inclusive.get(layer, 0.0)
            elif qty == "self_s":
                out[metric] = own.get(layer, 0.0)
            else:
                out[metric] = counts.get(metric, 0.0)
        return out

    def write(self, path: Path, meta: dict) -> None:
        doc = dict(meta, spans=[
            {"id": i, "name": name, "start": start, "end": end,
             "parent": parent, "run": run}
            for i, (name, start, end, parent, run) in enumerate(self.spans)])
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def span_cost(calls: int = 20000) -> float:
    """Seconds that tracing adds to one call, timed on a wrapped no-op."""
    noop = Recorder().wrap(Target("trace.noop", calls=True), lambda: None)
    start = perf_counter()
    for _ in range(calls):
        noop()
    return (perf_counter() - start) / calls


def _traced_lm(recorder: Recorder):
    """LM wrapper that also traces the residual and Jacobian callables the
    solver receives, and sums the iterations of every returned report."""
    residual = Target(RESIDUAL, calls=True)
    jacobian = Target(JACOBIAN, calls=True)
    # Bound now: instrument() replaces the module attribute with this wrapper.
    solver = camkit.optimize.levenberg_marquardt

    def solve(problem, x0, cfg=None):
        wrapped = camkit.optimize.LeastSquaresProblem(
            residual=recorder.wrap(residual, problem.residual),
            jacobian=(None if problem.jacobian is None
                      else recorder.wrap(jacobian, problem.jacobian)))
        return solver(wrapped, x0, cfg)

    target = Target(LM, calls=True,
                    after={"iterations": lambda a, k, r: r.iterations})
    return recorder.wrap(target, solve)


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Trace every target while the block runs; restores camkit on exit."""
    replacements = []  # (original, wrapper)
    for target in TARGETS:
        module, _, function = target.name.rpartition(".")
        original = getattr(importlib.import_module(f"camkit.{module}"), function)
        replacements.append((original, recorder.wrap(target, original)))
    replacements.append((camkit.optimize.levenberg_marquardt, _traced_lm(recorder)))
    # The solver falls back to numeric_jacobian when a problem has none.
    replacements.append((camkit.optimize.numeric_jacobian,
                         recorder.wrap(Target(JACOBIAN, calls=True),
                                       camkit.optimize.numeric_jacobian)))

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "camkit" or name.startswith("camkit."))]
    patched = []  # (module, attribute, original)
    for original, wrapper in replacements:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    try:
        yield recorder
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
