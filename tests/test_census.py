"""The predictor cache's misses on the benchmark's headline workload
(perfbench/workloads.py, loaded, not changed).  A miss takes about three
times a hit's time, so once more than 1% of the steps miss, the 99th
percentile of the step time is a miss's."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from intelgp import gp
from intelgp.engine import initialize, step
from intelgp.metrics import compute_stats

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # its dataclasses look their module up
spec.loader.exec_module(workloads)


def test_well_log_misses_fewer_than_one_step_in_a_hundred():
    # The stream the benchmark times: normalised as `intelgp run` does,
    # the history fitted, then one step per row.  Declared outliers leave
    # one- or two-gap windows and each change point regrows its window
    # from 3..1; the start holds both (129 misses of 3,749 steps on this
    # seed with the one-gap class alone, 20 with both classes and the
    # change-point windows).
    workload = workloads.WORKLOADS["well_log_8m"]
    series = workload.series(1)
    init = workload.config.init_count
    assert workload.normalization == "full"
    z = compute_stats(series).normalize(series)
    state = initialize(np.arange(init), z[:init], workload.config)
    assert len(state.cache) == 20 + 190 + 17
    misses = 0
    for y in z[init:]:
        t_star = state.current_t + 1
        misses += tuple(t_star - t for t in state.window.times) not in state.cache
        state, _ = step(state, y)
    assert len(state.cache) < gp.PREDICTOR_CACHE_SIZE  # nothing was dropped
    assert misses < 0.01 * (z.size - init)
