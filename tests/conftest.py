"""Shared synthetic-stream builders for the test suite.

Baseline streams use bounded (uniform) noise so the 3-sigma band has a
provable margin over the noise amplitude: the fitted noise scale is about
amplitude/sqrt(3), which keeps every clean observation strictly inside the
band and makes anomaly counts deterministic for a fixed seed.
"""

import os
from pathlib import Path

# One BLAS thread, set before numpy loads it: a second thread makes the
# small factorizations here slower, several times so next to other load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

NOISE_AMPLITUDE = 0.1


def flat_stream(seed: int, n_history: int = 60, n_stream: int = 120, level: float = 0.0):
    """History plus stream of bounded noise around a constant level."""
    rng = np.random.default_rng(seed)
    history = level + rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, n_history)
    stream = level + rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, n_stream)
    return history, stream


def spike_stream(seed: int, spike_at: int = 40, magnitude: float = 3.0):
    """Flat stream with one isolated spike far outside the 3-sigma band."""
    history, stream = flat_stream(seed)
    stream = stream.copy()
    stream[spike_at] += magnitude
    return history, stream, spike_at


def shift_stream(seed: int, onset: int = 50, magnitude: float = 3.0):
    """Flat stream with a sustained level shift starting at `onset`."""
    history, stream = flat_stream(seed)
    stream = stream.copy()
    stream[onset:] += magnitude
    return history, stream, onset


def regime_change_series(seed: int = 42, n_smooth: int = 260, n_rough: int = 240):
    """A smooth large-amplitude regime followed by a sustained shift to a
    smaller-amplitude rougher regime (what the variant models pre-cover)."""
    rng = np.random.default_rng(seed)
    t1 = np.arange(n_smooth)
    seg1 = 0.8 * np.sin(2 * np.pi * t1 / 40.0) + rng.uniform(-0.05, 0.05, n_smooth)
    t2 = np.arange(n_rough)
    seg2 = 3.0 + 0.15 * np.sin(2 * np.pi * t2 / 6.0) + rng.uniform(-0.05, 0.05, n_rough)
    return np.concatenate([seg1, seg2]), n_smooth
