#!/usr/bin/env python3
"""Record the benchmark's figures for the checked-out commit in a BENCH file.

Runs this checkout's `perfbench/run.py`, unchanged, as one subprocess at a
time: every workload at seeds 1 to 5 with `--seconds 5 --trace 0`, then
one `--seconds 5 --trace 1` run per workload.  From each run it reads the
environment record (the first line of its output) and the result (the
last line), and writes one JSON file:

- `commit`: the git HEAD the runs measured, from the first run's
  environment record;
- `environment`: the rest of that record, and `scipy_blas_threads`, the
  thread count of the OpenBLAS bundled with scipy in a run, next to
  numpy's `blas_threads`;
- `load_average`: the 1, 5 and 15 minute load averages before the first run;
- `runs`: the seeds, seconds and command of the runs;
- `end_to_end`: per workload and metric, the unit, the median, the lower
  and upper quartiles, their distance (IQR) and the values in seed order;
- `per_layer`: per workload and metric, the unit and the traced run's value;
- `census`: per workload, the predictor cache of stream 0 at each seed,
  streamed in this process as `intelgp run` streams it: the entries it
  starts with, the steps, the misses (the step's window has no entry), the
  paired misses (a miss that adds two entries, its own and its window's
  next slide's) and the share of steps that hit.  It holds no timing.

A run that exits non-zero stops the recording with its exit code, and no
file is written.  With `--compare`, the ratio of each median (and traced
value) to the same figure in an earlier BENCH file is printed.

Usage:  python3 scripts/bench_record.py --out BENCH_36.json [--compare BENCH_35.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from intelgp.engine import initialize, step  # noqa: E402
from intelgp.metrics import compute_stats  # noqa: E402
from workloads import WORKLOADS as WORKLOAD_SPECS  # noqa: E402

WORKLOADS = ("well_log_8m", "cpu_shift_2m", "glitchy_27m")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 5


def run_benchmark(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One `perfbench/run.py` run: its environment record and its result.
    Exits with the run's code where it fails."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"bench_record: {' '.join(command[1:])} exited {done.returncode}", file=sys.stderr)
        sys.exit(done.returncode)
    return parse_output(done.stdout)


def parse_output(stdout: str) -> tuple[dict, dict]:
    """The environment record and the result of one run's standard output:
    its first and its last line, each one JSON object."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def cache_census(config, series, normalization: str) -> dict:
    """The predictor cache's census of one stream: normalised as `intelgp
    run` normalises it, the engine initialised on its first
    `config.init_count` points, then one step per point after them."""
    init = config.init_count
    series = np.asarray(series, dtype=float)
    z = compute_stats(series if normalization == "full" else series[:init]).normalize(series)
    state = initialize(np.arange(init), z[:init], config)
    start = len(state.cache)
    misses = paired = 0
    for y in z[init:]:
        t_star = state.current_t + 1
        missed = tuple(t_star - t for t in state.window.times) not in state.cache
        before = set(state.cache) if missed else ()
        state, _ = step(state, y)
        misses += missed
        # new keys, not the cache's growth: a full cache drops one per key
        paired += missed and sum(key not in before for key in state.cache) == 2
    steps = z.size - init
    return {"start": start, "steps": steps, "misses": misses, "paired": paired,
            "hit_share": (steps - misses) / steps}


def census() -> dict:
    """`cache_census` of stream 0 of every workload at every seed: per
    workload, each figure's values in seed order."""
    out = {}
    for workload in WORKLOADS:
        spec = WORKLOAD_SPECS[workload]
        rows = [cache_census(spec.config, spec.series(seed), spec.normalization)
                for seed in SEEDS]
        out[workload] = {name: [row[name] for row in rows] for name in rows[0]}
    return out


def scipy_blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with scipy uses in a benchmark run,
    where it can be asked: read in a process that `perfbench/run.py`'s
    `bootstrap` set up, as it sets up each run's."""
    probe = ("import json, run; run.bootstrap(); from intelgp import gp; "
             "calls = gp._blas_thread_count_calls(); "
             "print(json.dumps(None if calls is None else calls[0]()))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=RUN.parent,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def quartiles(values: list[float]) -> dict:
    """The median, the quartiles (numpy's default linear interpolation)
    and their distance."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(plain: dict[str, list[dict]], traced: dict[str, dict]) -> dict:
    """The `end_to_end` and `per_layer` sections from the results of the
    plain runs (per workload, in seed order) and of the traced run."""
    end_to_end = {}
    for workload, results in plain.items():
        figures = {}
        for name, item in results[0]["metrics"].items():
            values = [result["metrics"][name]["value"] for result in results]
            figures[name] = {"unit": item["unit"], **quartiles(values), "values": values}
        end_to_end[workload] = figures
    per_layer = {
        workload: {name: {"unit": item["unit"], "value": item["value"]}
                   for name, item in result["metrics"].items()}
        for workload, result in traced.items()
    }
    return {"end_to_end": end_to_end, "per_layer": per_layer}


def ratios(new: dict, old: dict) -> list[tuple[str, str, str, float, float, float]]:
    """(section, workload, metric, old, new, new/old) for every figure both
    BENCH files hold: the medians end to end, the traced values per layer."""
    rows = []
    for section, field in (("end_to_end", "median"), ("per_layer", "value")):
        for workload, figures in new[section].items():
            before = old.get(section, {}).get(workload, {})
            for name, item in figures.items():
                if name in before:
                    a, b = before[name][field], item[field]
                    rows.append((section, workload, name, a, b, b / a if a else float("nan")))
    return rows


def print_ratios(rows) -> None:
    for section, workload, name, a, b, ratio in rows:
        print(f"{section:<10} {workload:<13} {name:<40} {a:>14.6g} {b:>14.6g} {ratio:>8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH file to write")
    parser.add_argument("--compare", type=Path, help="an earlier BENCH file to print ratios to")
    args = parser.parse_args(argv)
    old = json.loads(args.compare.read_text()) if args.compare else None

    load = list(os.getloadavg())
    environment = None
    plain, traced = {}, {}
    for workload in WORKLOADS:
        plain[workload] = []
        for seed in SEEDS:
            record, result = run_benchmark(workload, seed, 0)
            environment = environment or record["environment"]
            plain[workload].append(result)
    for workload in WORKLOADS:
        traced[workload] = run_benchmark(workload, SEEDS[0], 1)[1]

    commit = environment.pop("commit")
    environment["scipy_blas_threads"] = scipy_blas_threads()
    bench = {
        "commit": commit,
        "environment": environment,
        "load_average": load,
        "runs": {"seeds": list(SEEDS), "seconds": SECONDS, "traced_seed": SEEDS[0],
                 "command": "python3 perfbench/run.py --workload W --seed S "
                            f"--seconds {SECONDS} --trace T"},
        **summarize(plain, traced),
        "census": census(),
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    if old is not None:
        print_ratios(ratios(bench, old))
    return 0


if __name__ == "__main__":
    sys.exit(main())
