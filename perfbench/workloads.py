"""Seeded synthetic stand-ins for the paper's streams.

The real well-log and CPU-utilisation series need a network fetch, so each
workload here generates a series with the same shape from a seed.  The
seed moves positions, signs and noise; the counts and magnitudes of the
injected anomalies are fixed, so forecast quality and per-step work stay
comparable from seed to seed.  The program only ever sees the generated
series and an `EngineConfig`.

Why each workload exists, and which layer it stresses, is written down in
`perfbench/README.md`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from intelgp import EngineConfig, VariantFactors

TAU = 20
# Seed of the fitted history rows, the same for every --seed.
HISTORY_SEED = 20190716

# Anomaly sizes are fixed; only their positions and signs follow the seed.
WELL_NOISE = 0.04  # strata are 1.0 apart
WELL_SPIKE = 1.25
CPU_AMP = 8.0  # percent utilisation
CPU_NOISE = 5.0
CPU_SHIFT = 25.0
CPU_SHIFT_AT = 2971  # the row of the regime shift in the paper's CPU series
CPU_SPIKE = 30.0
GL_PHI = 0.97  # the walk reverts slowly to its mean
GL_DF = 5  # Student-t innovations; heavy tails with a finite fourth moment
GL_QUIET = 30  # rows without glitches before each level shift
GL_SHIFT = 18.0  # in units of the history's spread
GL_GLITCH = 15.0  # beyond 3 sigma of the widest model, so every glitch is flagged
# Rows between glitches: 2 to 13, twelve times each.  With 32 adjacent
# pairs among the 145 units that makes 177 glitches, 12% of the stream.
GL_SPACINGS = np.repeat(np.arange(2, 14), 12)
GL_PAIRS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    salt: int  # keeps the workloads' draws apart for the same seed
    config: EngineConfig
    normalization: str
    row_start: int
    generate: object  # Callable[[np.random.Generator, int], np.ndarray]
    length: int
    # Streams per seed whose forecast quality is averaged (see README).
    # Stream 0 is the one that is timed and traced.
    quality_streams: int = 1

    def series(self, seed: int, stream: int = 0) -> np.ndarray:
        """The stream the program sees: generated, then cut at `row_start`."""
        key = [seed, self.salt] if stream == 0 else [seed, self.salt, stream]
        rng = np.random.default_rng(key)
        return self.generate(rng, self.length)[self.row_start:]


def _isolated_positions(rng, allowed: np.ndarray, count: int) -> np.ndarray:
    """`count` distinct rows where `allowed` holds, no two of them adjacent."""
    # One row per chosen block of four rows, at the block's first or second
    # row: rows in different blocks are at least three apart.
    starts = np.arange(0, allowed.size - 1, 4)
    starts = starts[allowed[starts] & allowed[starts + 1]]
    if count > starts.size:
        raise ValueError(f"cannot place {count} isolated rows")
    chosen = np.sort(rng.choice(starts, size=count, replace=False))
    return chosen + rng.integers(0, 2, size=count)


def _glitch_rows(rng, allowed: np.ndarray, spacings, pairs: int) -> np.ndarray:
    """Rows where `allowed` holds for len(spacings) + 1 units, each a single
    glitch or, for `pairs` of them, two adjacent glitches.

    From the last row of one unit to the first of the next is a spacing,
    counted in allowed rows; a spacing of 2 leaves one clean row.  The
    spacings are the same for every seed.  The seed picks their order,
    which units are pairs and where the first unit falls.
    """
    units = len(spacings) + 1
    size = np.ones(units, dtype=int)
    size[rng.choice(units, size=pairs, replace=False)] = 2
    starts = np.concatenate(([0], np.cumsum(size[:-1] - 1 + rng.permutation(spacings))))
    index = np.concatenate((starts, starts[size == 2] + 1))
    rows = np.flatnonzero(allowed)
    slack = rows.size - index.max()
    if slack < 1:
        raise ValueError(f"cannot place {index.size} glitches in {rows.size} rows")
    return np.sort(rows[index + rng.integers(0, slack)])


def _clear_of(length: int, first: int, events, before: int = 6, after: int = 6) -> np.ndarray:
    """Rows from `first` on, outside [at - before, at + after) of every event."""
    rows = np.arange(length)
    allowed = rows >= first
    for at in events:
        allowed &= (rows < at - before) | (rows >= at + after)
    return allowed


def _draws(rng, history: int, length: int, draw) -> np.ndarray:
    """`length` draws whose first `history` come from a fixed generator.

    The segment the template is fitted on is the same for every seed, so
    set-up does the same work whatever the seed; the streamed part is the
    seed's own.
    """
    fixed = np.random.default_rng(HISTORY_SEED)
    return np.concatenate((draw(fixed, history), draw(rng, length - history)))


def _well_log(rng, length: int) -> np.ndarray:
    """Interbedded strata (two alternating levels) plus noise plus ~1%
    isolated spikes."""
    strata = 24
    # Strata start after the fit rows (row_start + init_count = 301).  Two
    # alternating levels keep the series' spread, and with it the scale of
    # the normalised stream, nearly the same for every seed.
    cuts = np.sort(rng.choice(np.arange(400, length - 60, 40), size=strata - 1, replace=False))
    levels = np.arange(strata) % 2 - 0.5
    y = np.repeat(levels, np.diff(np.concatenate(([0], cuts, [length]))))
    y += WELL_NOISE * _draws(rng, 301, length, lambda g, n: g.standard_normal(n))
    # Spikes keep clear of strata edges, so each is a residual of one size.
    spikes = _isolated_positions(rng, _clear_of(length, 320, cuts), length // 100)
    y[spikes] += rng.choice([-1.0, 1.0], size=spikes.size) * WELL_SPIKE
    return 1.2e5 + 1.0e4 * y


def _cpu_shift(rng, length: int) -> np.ndarray:
    """Daily-periodic utilisation plus noise, a sustained level shift at
    row 2,971 and sparse spikes."""
    t = np.arange(length)
    period = 288  # five-minute samples per day
    y = 40.0 + CPU_AMP * np.sin(2.0 * np.pi * t / period)
    y += CPU_NOISE * _draws(rng, 200, length, lambda g, n: g.standard_normal(n))
    y[CPU_SHIFT_AT:] += CPU_SHIFT
    spikes = _isolated_positions(rng, _clear_of(length, 220, [CPU_SHIFT_AT]), 12)
    y[spikes] += rng.choice([-1.0, 1.0], size=spikes.size) * CPU_SPIKE
    return y


def _glitchy(rng, length: int) -> np.ndarray:
    """Mean-reverting heavy-tailed walk with 12% glitches and 6 level shifts.

    Glitches fall at irregular spacings, alone or in adjacent pairs, so the
    gaps they leave in the training window form many different patterns.
    """
    steps = _draws(rng, 200, length, lambda g, n: g.standard_t(GL_DF, size=n))
    y = np.empty(length)
    level = 0.0
    for i, e in enumerate(steps):
        level = GL_PHI * level + e
        y[i] = level
    y /= y[:200].std()
    shifts = np.sort(rng.choice(np.arange(300, length - 50, 50), size=6, replace=False))
    for at in shifts:
        y[at:] += rng.choice([-1.0, 1.0]) * GL_SHIFT
    allowed = _clear_of(length, 220, shifts, before=GL_QUIET)
    glitches = _glitch_rows(rng, allowed, GL_SPACINGS, GL_PAIRS)
    y[glitches] += rng.choice([-1.0, 1.0], size=glitches.size) * GL_GLITCH
    return y


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="well_log_8m",
            salt=1,
            config=EngineConfig(
                tau=TAU,
                init_count=201,
                factors=VariantFactors((1.0, 0.2), (1.0, 0.2), (1.0, 5.0)),
            ),
            normalization="full",
            row_start=100,
            generate=_well_log,
            length=4050,
            quality_streams=2,
        ),
        Workload(
            name="cpu_shift_2m",
            salt=2,
            config=EngineConfig(
                tau=TAU,
                init_count=200,
                factors=VariantFactors((1.0, 0.2)),
            ),
            normalization="full",
            row_start=0,
            generate=_cpu_shift,
            length=4030,
        ),
        Workload(
            name="glitchy_27m",
            salt=3,
            config=EngineConfig(
                tau=TAU,
                init_count=200,
                factors=VariantFactors((1.0, 0.2, 5.0), (1.0, 0.2, 5.0), (1.0, 0.2, 5.0)),
            ),
            normalization="init",
            row_start=0,
            generate=_glitchy,
            length=1700,
            quality_streams=6,
        ),
    )
}
