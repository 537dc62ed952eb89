"""Streaming-forecast benchmark for intelgp.

Run from the repository root:

    python3 perfbench/run.py --workload well_log_8m --seed 1 --seconds 20 --trace 0

One process, one thread, one closed-loop stream.  The series is generated
from --seed (perfbench/workloads.py); the program sees only that series
and an EngineConfig.  Passes repeat for --seconds and the run reports
medians, in time calibrated against a fixed probe (perfbench/speed.py).
Forecast quality is averaged over a few more streams from the same seed
where one stream's quality varies too much from seed to seed.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from passes with spans at the layer boundaries
(perfbench/spans.py).  Every pass is checked against `intelgp.run` and
against stored reference values (perfbench/measure.py).

Standard output: an environment record, one line per figure with its
unit, and as the last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

Exit codes: 0 correct; 1 the program raised or an output failed the
correctness gate (the result line says correct: false); 2 the program or
an argument is missing; 3 the benchmark itself needs updating: a layer
boundary the trace wraps has moved, or reference.json lacks a seed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A stream is one closed loop on one thread; BLAS must not add threads of
# its own.  Set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS to one thread and import intelgp from this checkout's src/.

    Exits with code 2 when the checkout holds no program to measure.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "intelgp" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'intelgp'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import intelgp

    if not Path(intelgp.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: intelgp was imported from {intelgp.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _blas_threads() -> int | None:
    """Threads the BLAS bundled with numpy will use, when it can be asked."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steps", type=int, default=None,
        help="stream only this many observations after the fit rows (smoke runs)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import measure
    import spans
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    streams = [workload.series(args.seed, j) for j in range(workload.quality_streams)]
    if args.steps is not None:
        streams = [s[: workload.config.init_count + args.steps] for s in streams]

    print(json.dumps({"environment": environment(), "workload": workload.name, "seed": args.seed}))
    try:
        table = measure.load_reference(WORKLOADS)
        stored = [
            table[workload.name].get(measure.reference_key(args.seed, j)) if args.steps is None else None
            for j in range(len(streams))
        ]
        outcome = measure.measure(workload, args.seconds, bool(args.trace), streams, stored)
    except (measure.ReferenceTableError, spans.BoundaryError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for note in outcome.notes:
        print(f"perfbench: {note}", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    extras = {
        "failed_share": (outcome.failed / outcome.attempted, "share"),
    }
    if "step_samples" in outcome.metrics:
        extras["step_samples"] = (outcome.metrics["step_samples"], "count")
        extras["raw_steps_per_s"] = (outcome.metrics["raw_steps_per_s"], "1/s")
        extras["slowdown"] = (outcome.metrics["slowdown"], "ratio")
    reported = {}
    for m in wanted:
        if m["name"] in outcome.metrics:
            reported[m["name"]] = {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
    for name, item in reported.items():
        print(f"{workload.name:<13} {name:<40} {item['value']:>16.6g} {item['unit']}")
    for name, (value, unit) in extras.items():
        print(f"{workload.name:<13} {name:<40} {value:>16.6g} {unit}")

    correct = outcome.correct and len(reported) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
