"""Machine-speed calibration: fixed probes timed between pieces of work.

On a shared host, co-tenants slow this process's CPU by up to 2x for
stretches of seconds to minutes.  Thread CPU time slows with it, so
neither wall time nor CPU time is steady from run to run.  The benchmark
therefore times a fixed probe before and after set-up, every
PROBE_INTERVAL_NS during the stream, and after the last phase.  It then
scales each piece of work by the probe's reference time over the probe
times that bracket it.  The reported times are the ones a machine running
the probes in their reference times would show.

The probes use only numpy and scipy, never intelgp, so a change to the
program cannot speed them up.  Each mixes the same kinds of work as the
phase it calibrates.  `probe` is interpreter overhead around small LAPACK
calls, like a step: on a 2-core Xeon VM, over 90 s in which a gp_predict
loop's 5-second medians ranged 0.81-1.48 ms, their ratio to it stayed
within 2.34-2.50.  `fit_probe` is one LML-gradient evaluation on a
200x200 matrix, like the fit in set-up, which a co-tenant slows by a
different factor than small-matrix work.

Probes run with the garbage collector off, so a collection that the
program's allocations make due is not charged to the probe and divided
out of the program's time.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

# The probes' times on a quiet 2-core Xeon VM; only ratios to them matter.
REFERENCE_PROBE_NS = 180_000.0
REFERENCE_FIT_PROBE_NS = 2_200_000.0
PROBE_INTERVAL_NS = 50_000_000
PHASE_PROBES = 5  # probes before and after a phase; median taken

_T = np.arange(20.0)
_V = np.exp(-np.abs(_T[:, None] - _T[None, :]) / 3.0) + 0.01 * np.eye(20)
_Y = np.sin(_T)

_FIT_T = np.arange(200.0)
_FIT_D = np.abs(_FIT_T[:, None] - _FIT_T[None, :])
_FIT_Y = np.sin(_FIT_T)


def _timed(work) -> float:
    """Duration of `work()` in ns, with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        work()
        return perf_counter_ns() - start
    finally:
        if was_enabled:
            gc.enable()


def _step_work() -> None:
    acc = 0.0
    for _ in range(5):
        L = cholesky(_V, lower=True, check_finite=False)
        alpha = cho_solve((L, True), _Y, check_finite=False)
        v = solve_triangular(L, _Y, lower=True, check_finite=False)
        acc += float(alpha @ v) + sum(0.5 * i for i in range(40))


def _fit_work() -> None:
    u = (5.0 ** 0.5 / 6.0) * _FIT_D
    K = (1.0 + u + u * u / 3.0) * np.exp(-u)
    L = cholesky(K + 0.04 * np.eye(_FIT_T.size), lower=True, check_finite=False)
    alpha = cho_solve((L, True), _FIT_Y, check_finite=False)
    V_inv = cho_solve((L, True), np.eye(_FIT_T.size), check_finite=False)
    float(np.sum((np.outer(alpha, alpha) - V_inv) * K))


def probe() -> float:
    """Fixed small-matrix work of about REFERENCE_PROBE_NS; returns its
    duration in ns."""
    return _timed(_step_work)


def fit_probe() -> float:
    """Fixed 200x200 work of about REFERENCE_FIT_PROBE_NS; returns its
    duration in ns."""
    return _timed(_fit_work)


def phase_probe(which=probe) -> float:
    return float(np.median([which() for _ in range(PHASE_PROBES)]))


class StreamProbes:
    """Probe times taken during a stream, keyed by the steps done before each."""

    def __init__(self, first_ns: float):
        self.position = [0]
        self.ns = [first_ns]
        self._last = perf_counter_ns()

    def maybe_probe(self, steps_done: int) -> None:
        if perf_counter_ns() - self._last >= PROBE_INTERVAL_NS:
            self.position.append(steps_done)
            self.ns.append(probe())
            self._last = perf_counter_ns()

    def close(self, steps_done: int, last_ns: float) -> None:
        self.position.append(steps_done)
        self.ns.append(last_ns)

    def step_scale(self, n_steps: int) -> np.ndarray:
        """Per step: REFERENCE_PROBE_NS over the mean of its bracketing probes."""
        position = np.array(self.position)
        ns = np.array(self.ns)
        steps = np.arange(n_steps)
        before = np.searchsorted(position, steps, side="right") - 1
        after = np.searchsorted(position, steps + 1, side="left")
        return REFERENCE_PROBE_NS / ((ns[before] + ns[after]) / 2.0)

    def median_ns(self) -> float:
        return float(np.median(self.ns))
