#!/usr/bin/env python3
"""camkit benchmark: seeded workloads timed end to end, and per module in a
separate traced pass.

Usage (from the repository root):

    python3 bench/run.py --workload {board,sfm-cube,ba-scale} --seed N \
        --seconds S --trace {0,1}

camkit is imported from ``src/`` next to this directory; without it the run
exits with code 2 and prints no result. With ``--trace 0`` the run repeats
untraced passes of the workload until ``--seconds`` have passed (at least
one) and reports the end-to-end metrics. With ``--trace 1`` it makes one
untraced and one traced pass and reports the per-layer metrics, with the
tracing overhead as traced minus untraced pass time. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, and the spans of a traced pass,
go to ``.bench_out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: on a small shared machine, OpenBLAS threads that spin
# while waiting for each other make repeated timings of the same solve
# differ by a sixth; single-threaded they differ by a few percent. Set
# before numpy is first imported, here and in the set-up probes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("board", "sfm-cube", "ba-scale")
# Fresh interpreters that repeat the set-up, so setup_s is a median.
SETUP_PROBES = 3

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _setup(workload_name: str, seed: int, workdir: Path):
    """Import camkit, write the workload's inputs and warm up; returns the
    workload object and the seconds taken."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports camkit, numpy and scipy

    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    workload.setup()
    workloads.warm_up(workload.images)
    return workload, perf_counter() - start


def _setup_probes(args, workdir: Path) -> list[float]:
    seconds = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe_{i}"
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=probe_dir, capture_output=True, text=True, timeout=120, check=True)
        seconds.append(float(done.stdout.split()[-1]))
    return seconds


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas() -> dict:
    """BLAS library and its thread count, as numpy loaded them."""
    import ctypes
    import numpy as np

    info = {"library": "unknown", "threads": None}
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info["library"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "git_revision": _git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _unit(name: str) -> str:
    stem = name.split(".")[0]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_px", "px"),
                         ("_mm", "mm"), ("_mb", "MB")):
        if stem.endswith(suffix):
            return unit
    return "count"


def _summarise(passes: list[dict], setup: list[float]) -> dict:
    """The workload's named metrics, {name: (value, sample count)}: medians,
    and for latencies (``*_ms``) the 50th and 90th percentiles."""
    samples: dict[str, list[float]] = {"setup_s": setup}
    for result in passes:
        for key, values in result.items():
            samples.setdefault(key, []).extend(values)
    named = {}
    for key, values in samples.items():
        if not values:
            continue
        if key.endswith("_ms"):
            stem = key[:-3]
            named[f"{stem}_p50_ms"] = (_quantile(values, 0.5), len(values))
            named[f"{stem}_p90_ms"] = (_quantile(values, 0.9), len(values))
        else:
            named[key] = (statistics.median(values), len(values))
    named["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return named


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "camkit" / "__init__.py").is_file():
        print(f"error: camkit sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        workdir = Path.cwd()
        _, seconds = _setup(args.workload, args.seed, workdir)
        print(f"{seconds!r}")
        return 0

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return _run(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, tag: str, workdir: Path) -> int:
    workload, own_setup = _setup(args.workload, args.seed, workdir)
    import spans
    import workloads

    # Metric names and units live in BENCHMARK.json alone.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup = [own_setup] + _setup_probes(args, workdir)
    machine = _machine()
    ops = workloads.Ops()

    passes = []
    if args.trace:
        passes.append(workload.run_pass(ops, "untraced"))
        recorder = spans.Recorder()
        with spans.instrument(recorder):
            traced = workload.run_pass(ops, "traced")
        overhead = traced["pass_wall_s"][0] - passes[0]["pass_wall_s"][0]
    else:
        start = perf_counter()
        while not passes or perf_counter() - start < args.seconds:
            passes.append(workload.run_pass(ops, f"p{len(passes)}"))

    named = _summarise(passes, setup)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "attempted": ops.attempted, "failed": ops.failed,
              "failures": ops.failures,
              "named_metrics": {k: {"value": v, "unit": _unit(k), "samples": n}
                                for k, (v, n) in named.items()}}
    print(f"machine: {json.dumps(machine)}")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    for key, (value, n) in sorted(named.items()):
        print(f"{args.workload:9s} {key:24s} {value:12.6g} {_unit(key):5s} n={n}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = recorder.per_layer(units, overhead)
        record["per_layer"] = metrics
        estimate = spans.span_cost() * len(recorder.spans)
        record["trace_overhead"] = {
            "traced_pass_s": traced["pass_wall_s"][0],
            "untraced_pass_s": passes[0]["pass_wall_s"][0],
            "overhead_s": overhead, "span_cost_estimate_s": estimate}
        recorder.write(OUT / f"spans-{tag}.json",
                       {"workload": args.workload, "seed": args.seed})
        print(f"tracing overhead: {overhead:+.4f} s on a "
              f"{passes[0]['pass_wall_s'][0]:.3f} s untraced pass; "
              f"{len(recorder.spans)} spans cost about {estimate:.4f} s, "
              f"the rest is noise and the untraced pass running first")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        source = dict(workload.GATED, setup_s="setup_s", peak_rss_mb="peak_rss_mb")
        metrics = {key: named[source[key]][0] if source[key] in named else None
                   for key in units}

    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                             encoding="utf-8")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
