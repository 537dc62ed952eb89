"""Exact Gaussian-process machinery on scalar inputs.

Kernels, covariance assembly, one-step posterior prediction for a whole
model set at once, and the log marginal likelihood with analytic gradients
in log-parameter space.  All solves go through a Cholesky factorization,
and every LAPACK routine is called directly, through a handle fetched once
at import, without scipy.linalg's per-call checks.  Prediction reads each
model's covariance over the offsets 0..tau and its inverse, the precision,
formed once per model set with LAPACK trtrs.  A window is the tuple of its
integer offsets t* - t_i, its key in the predictor cache; a new one factors
one small block per model, taken from whichever of the two is smaller for
it, with one banded LAPACK pbtrf call for the whole set and solves with
one pbtrs call.  Its index bookkeeping (the offsets' checks, their
positions, and the rows and columns it gathers) is done on Python ints: a
window holds at most tau + 1 of them, too few for numpy's per-call cost to
pay off.  A cache starts with the windows of the offsets 1..tau less one
or two of them, each such gap class that is small enough to solve in one
batch through the same gather, factorization and solve, and with the
windows a change point regrows, the newest 1..tau-1 offsets.  A miss of
a window that holds the oldest offset tau, with a few gaps, also solves
the window it slides to at the next inlier step, in the same batch.  The fit's
gradient needs only the per-distance sums of V⁻¹: on equally spaced
sorted inputs, where V is Toeplitz, they come from one more column of the
potrs solve, V⁻¹e₁, by the Gohberg–Semencul formula; on any other inputs
from V⁻¹ itself, formed with LAPACK potri.
"""

from __future__ import annotations

import ctypes
import itertools
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import LinAlgError, get_lapack_funcs

# Predictive variances are floored here so downstream precision sums and
# log densities stay finite.
VAR_FLOOR = 1e-12

# Jitter ladder: first attempt is unjittered, then five escalations.
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

_LOG_2PI = math.log(2.0 * math.pi)

# Entries a predictor cache holds.  The bound keeps memory flat on streams
# whose windows rarely repeat an offset pattern (an entry holds M x tau mean
# weights and M variances); a full cache drops its oldest entry.
PREDICTOR_CACHE_SIZE = 1024

# Floats a fill gathers at most, per gap class and for the change-point
# family (1 MiB).  A larger class is not filled, so a class's fill is one
# batch and adds little to peak memory.  At tau=20 the two-gap class is
# filled up to M=10 (95,760 floats at M=8, 323,190 at M=27), the one-gap
# class up to M=156 and the change-point family up to M=76.
_FILL_GATHER = 1 << 17

# LAPACK's triangular solve, Cholesky factorization, and inverse and solve
# from a Cholesky factor, and banded Cholesky factorization and solve for
# float64, fetched once.  scipy.linalg looks its routine up and validates
# its arguments on every call, which costs several times a 20x20 solve
# and tens of microseconds around a 200x200 factorization.
_trtrs, _potrf, _potri, _potrs, _pbtrf, _pbtrs = get_lapack_funcs(
    ("trtrs", "potrf", "potri", "potrs", "pbtrf", "pbtrs"), (np.empty((1, 1)),)
)

log = logging.getLogger("intelgp")


@lru_cache(maxsize=1)
def _blas_thread_count_calls():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    scipy, which its LAPACK routines run on, or None, with one warning,
    where no such library or symbol is found."""
    package = Path(scipy.__file__).resolve().parent
    for lib in sorted([*package.parent.glob("scipy.libs/*openblas*"),
                       *package.glob(".dylibs/*openblas*")]):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(handle, f"{prefix}_get_num_threads", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    log.warning(
        "scipy's BLAS thread count cannot be set: results may depend on the "
        "number of BLAS threads"
    )
    return None


@contextmanager
def one_blas_thread():
    """Run the block with scipy's bundled OpenBLAS on one thread, and
    restore its thread count after.  A threaded 200x200 potrf rounds
    differently from a one-thread one, and a fit amplifies the last bit, so
    a fit's bits would depend on the thread count.  Where the count cannot
    be set (another BLAS, another wheel layout), the block runs as it is."""
    calls = _blas_thread_count_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


class NumericalError(RuntimeError):
    """Cholesky factorization failed even at the maximum jitter level."""


class KernelKind(Enum):
    MATERN52 = "matern52"
    SQUARED_EXPONENTIAL = "se"


@dataclass(frozen=True)
class Hyperparameters:
    """One GP model: a stationary kernel family, its signal and length
    scales, and the observation-noise scale.  The kind must be a
    KernelKind and the scales positive (a ValueError otherwise); every
    function that takes a model trusts both."""

    kind: KernelKind
    signal_scale: float
    length_scale: float
    noise_scale: float

    def __post_init__(self):
        if not isinstance(self.kind, KernelKind):
            raise ValueError(f"kind must be a KernelKind, got {self.kind!r}")
        for name in ("signal_scale", "length_scale", "noise_scale"):
            value = float(getattr(self, name))
            if not (value > 0.0):
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)

    def to_log_vector(self) -> np.ndarray:
        """(log signal_scale, log length_scale, log noise_scale)."""
        return np.log([self.signal_scale, self.length_scale, self.noise_scale])

    @classmethod
    def from_log_vector(cls, kind: KernelKind, v: np.ndarray) -> "Hyperparameters":
        return cls(kind, *np.exp(np.asarray(v, dtype=float)))

    def scaled(self, f: float = 1.0, l: float = 1.0, n: float = 1.0) -> "Hyperparameters":
        """A copy with each scale multiplied by the given factor."""
        return Hyperparameters(
            self.kind, self.signal_scale * f, self.length_scale * l, self.noise_scale * n
        )


@dataclass(frozen=True, slots=True)
class PredictiveDistribution:
    """A Gaussian one-step forecast.  Slotted: a run keeps one per step.
    The two fields are stored as Python floats.  `predictive_distribution`
    builds one from two Python floats without the constructor."""

    mean: float
    variance: float

    def __post_init__(self):
        if type(self.mean) is not float:
            object.__setattr__(self, "mean", float(self.mean))
        if type(self.variance) is not float:
            object.__setattr__(self, "variance", float(self.variance))
        _check_variance(self.variance)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def _check_variance(variance: float) -> None:
    if not (variance > 0.0):
        raise ValueError(f"variance must be positive, got {variance}")


_set_mean = PredictiveDistribution.mean.__set__
_set_variance = PredictiveDistribution.variance.__set__


def predictive_distribution(mean: float, variance: float) -> PredictiveDistribution:
    """`PredictiveDistribution(mean, variance)` for two Python floats, with
    its variance check, built by one store per slot.  The frozen `__init__`
    stores each field through `object.__setattr__` and then runs
    `__post_init__`: 0.51 µs against 0.31 µs (Python 3.11), paid once per
    step by `mixture.fuse_poe`."""
    _check_variance(variance)
    out = object.__new__(PredictiveDistribution)
    _set_mean(out, mean)
    _set_variance(out, variance)
    return out


# Scaled distances are clamped here; the exponential factor has underflowed
# to ~1e-300 long before this, so the clamp only prevents inf*0 = nan at
# extreme length scales probed by the optimizer.
_MAX_SCALED_DIST = 705.0

# The SE kernel is exactly 0 where its exponential factor falls below this.
# Its far entries would otherwise reach 1e-306, and LAPACK potrf over them
# runs through subnormal products, five to seven times slower than over
# the Matérn kernel of the same scales at 200 points.  Any product of two kept
# factors is at least 1e-300, above the smallest normal double.
_SE_FLUSH = 1e-150


def _kernel_values(kind: KernelKind, signal_scale, length_scale, d: np.ndarray,
                   return_length_derivative: bool = False):
    """Kernel value as a function of pairwise distance |xi - xj|.  The
    scales are floats, or arrays that broadcast against `d` to evaluate
    several models at once.  With `return_length_derivative`, the pair
    (kernel, its derivative w.r.t. log length_scale), from one exponential
    pass; the kernel's bits are the same either way."""
    # x * x instead of x**2: Python float pow raises OverflowError where
    # IEEE multiplication yields inf, which the finiteness checks then catch
    sf2 = signal_scale * signal_scale
    if kind is KernelKind.MATERN52:
        u = np.minimum((math.sqrt(5.0) / length_scale) * d, _MAX_SCALED_DIST)
        e = np.exp(-u)
        k = sf2 * (1.0 + u + u * u / 3.0) * e
        return (k, sf2 * (u * u * (1.0 + u) / 3.0) * e) if return_length_derivative else k
    # KernelKind.SQUARED_EXPONENTIAL: where it is flushed to 0, so is its derivative
    s = np.minimum((d / length_scale) ** 2, _MAX_SCALED_DIST)
    e = np.exp(-s)
    k = np.where(e < _SE_FLUSH, 0.0, sf2 * e)
    return (k, k * 2.0 * s) if return_length_derivative else k


def distance_table(xs) -> tuple[np.ndarray, np.ndarray, bool]:
    """The distinct pairwise distances |xi - xj| of the inputs, sorted; the
    (n, n) index of each pair's distance in them; and whether that index
    is |i - j|.  A stationary kernel is evaluated once per distinct
    distance, then spread out by the index.

    The index is |i - j| for equally spaced sorted inputs (ascending or
    descending, any start and spacing), and then a stationary covariance
    over them is Toeplitz, whatever the inputs.  The first row of the index
    alone would not show it: the distances of 0, 1e-20 and 1 round to
    three distinct values, in order from the first input, yet |1e-20 - 1|
    rounds to 1.

    Equally spaced integers below 2**53 in magnitude, the times the engine
    fits on, skip the sort: each step between neighbours is exact, so the
    distances are the step times 0..n-1, each rounded once, as the
    subtraction rounds it, and the table is the one `np.unique` would
    build, bit for bit.  The sort of n² distances costs 1.3 ms at n=200.
    """
    x = np.asarray(xs, dtype=float)
    n = x.size
    i = np.arange(n)
    lags = np.abs(i[:, None] - i[None, :])
    step = x[1] - x[0] if n > 1 else 1.0
    if (n and step != 0.0 and np.all(np.abs(x) < 2.0**53)
            and np.array_equal(x, np.round(x)) and np.all(np.diff(x) == step)):
        return abs(step) * i, lags, True
    d, where = np.unique(np.abs(x[:, None] - x[None, :]).ravel(), return_inverse=True)
    where = where.reshape(n, n)
    toeplitz = d.size == n and np.array_equal(where, lags)
    return d, where, bool(toeplitz)


def noisy_covariance(hyper: Hyperparameters, xs) -> np.ndarray:
    """Kernel matrix over all pairs of the input locations, plus
    noise_scale**2 on the diagonal."""
    xs = np.asarray(xs, dtype=float)
    d = np.abs(xs[:, None] - xs[None, :])
    V = _kernel_values(hyper.kind, hyper.signal_scale, hyper.length_scale, d)
    V[np.diag_indices_from(V)] += hyper.noise_scale * hyper.noise_scale
    return V


def chol_with_jitter(V: np.ndarray, return_jitter: bool = False):
    """Lower Cholesky factor of V, retrying with escalating diagonal jitter.
    With `return_jitter`, the pair (factor, jitter added to the diagonal).

    A stack of M symmetric n x n blocks, shape (M, n, n), is factored
    without jitter or a check of its entries: a stack is gathered from a
    `precision_table`, whose jitter was chosen, and whose entries were
    checked finite, where it was built.  The blocks, then one n x n
    identity block, are laid out on the diagonal of one block-diagonal
    matrix of bandwidth n - 1, and one LAPACK pbtrf call factors it.  The
    result is that factor in LAPACK's lower band storage, a Fortran-ordered
    (n, (M+1)·n) array for pbtrs: column j holds the factor's column j from
    the diagonal down, and block m takes the columns m·n to m·n + n - 1.
    Each block is factored on its own, bit for bit as if it were alone,
    because BLAS sees the same vector lengths in every model's block: the
    identity block keeps the last one from being the band's shorter tail.

    A single matrix is factored by `cholesky`, which reads its lower
    triangle.  A rung fails where LAPACK meets a non-positive pivot or
    where a pivot is not finite; only then is V scanned for non-finite
    entries.  Raises NumericalError on a single matrix with a non-finite
    entry in its lower triangle, once the ladder is exhausted, or naming
    the first model of a stack whose block is not positive definite or has
    a non-finite factor.
    """
    n = V.shape[-1]
    if V.ndim == 3:
        models = V.shape[0]
        blocks = np.zeros((models + 1, n * n + 1))
        blocks[:models, :-1] = V.reshape(models, -1)
        blocks[models, ::n + 1] = 1.0
        band = blocks.take(_band_layout(n), axis=1)
        factor, info = _pbtrf(band.reshape(-1, n).T, 1, overwrite_ab=1)
        # pbtrf stops at a non-positive pivot but not at a NaN one.  The
        # pivots, row 0 of the band, are square roots, too small for their
        # sum to overflow: it is finite iff every pivot is.
        if info == 0 and not math.isfinite(np.add.reduce(factor[0])):
            info = np.flatnonzero(~np.isfinite(factor[0]))[0] + 1
        if info != 0:
            raise NumericalError(
                f"Cholesky factorization failed for model {(info - 1) // n} "
                f"of a stack of {n}x{n} matrices"
            )
        return factor
    for jitter in _JITTERS:
        try:
            L = cholesky(V if jitter == 0.0 else V + jitter * np.eye(n))
        except LinAlgError:
            L = None
        # potrf stops at a non-positive pivot but not at a NaN one, and
        # passes an infinite diagonal entry through as an infinite pivot.
        # The pivots are square roots, too small for their sum to overflow:
        # it is finite iff every pivot is.
        if L is not None and math.isfinite(L.trace()):
            return (L, jitter) if return_jitter else L
        if jitter == 0.0 and not np.all(np.isfinite(V)):
            raise NumericalError("covariance matrix contains non-finite values")
    raise NumericalError(
        f"Cholesky factorization failed for a {n}x{n} covariance matrix "
        f"even with diagonal jitter up to {_JITTERS[-1]:g}"
    )


@lru_cache
def _band_layout(n: int) -> np.ndarray:
    """LAPACK's lower band storage, bandwidth n - 1, of one n x n block, as
    an index into the block's row-major entries followed by a zero: entry
    i of the band's column j holds the block's (j + i, j), or the zero
    where j + i falls outside the block."""
    j, i = np.divmod(np.arange(n * n), n)
    layout = np.where(i + j < n, (j + i) * n + j, n * n)
    layout.flags.writeable = False  # shared by every call through the cache
    return layout


@lru_cache
def _flat_index(width: int) -> np.ndarray:
    """The flat index of each entry of a width x width matrix in row-major
    order: entry (i, j) holds i·width + j."""
    index = np.arange(width * width).reshape(width, width)
    index.flags.writeable = False  # shared by every call through the cache
    return index


def precision_table(models, span: int) -> np.ndarray:
    """Each model's noisy covariance V_F over the integer inputs 0..span
    and its precision Λ = V_F⁻¹: a read-only (2, M, span+1, span+1) array,
    the precisions (exactly symmetric) at [0] and the covariances at [1].

    Offsets of one window are distinct integers, so a distance of 0 only
    ever falls on the diagonal of a covariance over them: each V_F is
    gathered from the model's kernel at the distances 0..span, whose entry
    0 holds signal_scale**2 + noise_scale**2, the variance of one
    observation.  There must be at least one model, and the models must
    share a kernel kind (a ValueError otherwise); their scales are
    trusted, as `Hyperparameters` checked.

    Each V_F is factored on its own with the jitter ladder, so a model
    whose V_F needs jitter gets it here, once per model set, and the table
    holds that V_F with the jitter on its diagonal.  One `solve_triangular`
    call per model gives L⁻¹ (the identity as its right-hand side), and
    Λ = L⁻ᵀL⁻¹ with its two triangles averaged.  Raises NumericalError if
    a V_F cannot be factored or is not finite (a scale so large that the
    kernel overflows: the ladder names the non-finite values), or if a
    precision is not finite, so no stack gathered from the table needs a
    check of its own.
    """
    if not models:
        raise ValueError("precision_table needs at least one model")
    kind = models[0].kind
    if any(h.kind is not kind for h in models):
        raise ValueError("the models of one prediction must share a kernel kind")
    sf, ell, sn = np.array([(h.signal_scale, h.length_scale, h.noise_scale) for h in models]).T
    x = np.arange(span + 1)
    table = np.empty((2, len(models), span + 1, span + 1))
    precision, covariance = table
    eye = np.eye(span + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _kernel_values(kind, sf[:, None], ell[:, None], np.arange(span + 1.0))
        kernel[:, 0] += sn * sn
        covariance[:] = kernel[:, np.abs(x[:, None] - x[None, :])]
        for m, V_m in enumerate(covariance):
            L, jitter = chol_with_jitter(V_m, return_jitter=True)
            V_m[x, x] += jitter
            L_inv = solve_triangular(L, eye)
            precision[m] = L_inv.T @ L_inv
        precision[:] = 0.5 * (precision + precision.transpose(0, 2, 1))
    if not np.all(np.isfinite(precision)):
        raise NumericalError("precision table contains non-finite values")
    table.flags.writeable = False
    return table


def _window_index(offsets, width: int):
    """The one check of a window's `offsets`, and the gather index of its
    systems in a table of width - 1 = span: the (rows, k+1) flat indices
    into one model's width x width table of the rows and columns they
    gather, the system's k + 1 rows first, test position last, then on the
    precision side the window's rows; and whether the systems are the
    precision's.

    Each offset must be an integer (an int, a numpy integer or an integral
    float), else a ValueError saying so, in one pass; they and 0 must be
    distinct and lie within the table's span of each other, else a
    ValueError saying so or naming the span.

    A window's predictor is, per model, the mean weights a = K⁻¹k* and the
    floored predictive variance; a model's mean is c + a·(y - c).  The
    kernel is stationary, so both depend on the inputs only through the
    offsets t* - t_i: a window shifted in time has the same predictor.  The
    offsets and 0, shifted by their minimum, are positions in the table's
    0..span: S those of the window, t that of the test input, and R the
    rest.  Each model solves one system A z = e_t of size k + 1, k =
    min(|R|, |S|):

    - |R| <= |S|: A = Λ[(R,t),(R,t)], the precision with R marginalised
      out, so var = z_t and a = -Λ[S,(R,t)]·z;
    - |R| > |S|: A = V_F[(S,t),(S,t)], plain conditioning on the window,
      so var = 1/z_t and a = -z_S/z_t.

    The checks, the positions, R and the gather's rows and columns are
    worked out on Python ints, then pick flat indices from a cached index
    of the table: with at most span + 1 offsets, a dozen numpy calls on
    such short arrays cost more than the LAPACK calls.  `_solve_windows`
    solves the systems.
    """
    try:
        x = [i for v in offsets if (i := int(v)) == v]
    except (TypeError, ValueError, OverflowError):  # "a", None, nan, inf
        x = None
    if x is None or len(x) != len(offsets):
        raise ValueError("window offsets must be integers")
    x.append(0)
    low = min(x)
    reach = max(x) - low
    if reach >= width:
        raise ValueError(
            f"window offsets reach a distance of {reach}, beyond the table's span {width - 1}"
        )
    position = [v - low for v in x] if low else x
    taken = set(position)
    if len(taken) != len(position):
        raise ValueError("training times must be distinct and differ from the test time")
    rest = [p for p in range(width) if p not in taken]
    window = position[:-1]
    precision_side = len(rest) <= len(window)
    if precision_side:
        block = rest + position[-1:]
        rows = block + window
    else:
        block = rows = position
    return _flat_index(width).take(rows, axis=0).take(block, axis=1), precision_side


def _solve_windows(index: np.ndarray, table: np.ndarray, precision_side: bool):
    """The predictors of K windows of one shape: their mean weights and
    variances, from their `_window_index` indices stacked to (K, rows,
    k+1), or one window's (rows, k+1).  The result is read-only, of shapes
    (M·K, n) and (M·K,), model-major: (M, n) and (M,) for one window.

    One gather takes the M·K systems from the side's half of `table`, one
    `chol_with_jitter` call factors them, one LAPACK pbtrs call solves
    them, and on the precision side one `einsum` gives the mean weights.
    Each block factors and solves as if alone, and each einsum row is its
    own dot product, so a window's entry is the same, bit for bit, in a
    batch of K as alone.
    """
    precision, covariance = table
    rows, size = index.shape[-2:]
    k = size - 1
    # A gather by flat index with take comes out C-ordered: over a strided
    # one, the row-wise product below would round a model's row
    # differently depending on how many rows there are.
    source = precision if precision_side else covariance
    # (M, K, rows, k+1), or (M, rows, k+1) for one window: the M·K
    # systems, model-major
    stack = source.reshape(len(source), -1).take(index, axis=1).reshape(-1, rows, size)
    blocks = len(stack)
    rhs = np.zeros((blocks + 1, k + 1))
    rhs[:, k] = 1.0
    # pbtrs reports only illegal arguments, which these shapes rule out.
    z = _pbtrs(chol_with_jitter(stack[:, :k + 1]), rhs.reshape(-1, 1), 1, overwrite_b=1)[0]
    z = z.reshape(blocks + 1, k + 1)[:blocks]
    if precision_side:
        var = np.maximum(z[:, k], VAR_FLOOR)
        a = np.einsum("msq,mq->ms", stack[:, k + 1:], -z)
    else:
        var = np.maximum(1.0 / z[:, k], VAR_FLOOR)
        a = z[:, :k] / -z[:, k:]
    a.flags.writeable = var.flags.writeable = False
    return a, var


def _gather_floats(span: int, n: int) -> int:
    """Floats one model's system gathers for a window of n offsets within
    1..span (`_window_index`): span + 1 rows of the span - n gaps and the
    test position on the precision side, where the gaps are no more than
    the offsets, else the n + 1 rows and columns of the window and the test
    position."""
    gaps = span - n
    return (span + 1) * (gaps + 1) if gaps <= n else (n + 1) * (n + 1)


def _batch_entries(a: np.ndarray, var: np.ndarray, count: int):
    """Each window's (a, var) entry of a `_solve_windows` batch of `count`
    windows, in batch order: read-only views of its model-major rows, of
    shapes (M, n) and (M,).  A row of a is contiguous, so `gp_predict`'s
    row-wise product gives a view the bits of a copy."""
    models = len(var) // count
    return zip(a.reshape(models, count, a.shape[1]).swapaxes(0, 1), var.reshape(models, count).T)


@lru_cache
def _slide_layout(width: int, n: int):
    """How a miss of n offsets within 1..span, span = width - 1, solves
    with the window's next slide, or None where it does not pair.

    A window that holds the oldest offset span moves on, once the next
    step's observation is kept, to its slide: its other offsets one older
    and the new offset 1.  Its gaps move one offset older too, so the
    slide has as many, and its systems take the same side and shape.  It
    pairs where it has at least one gap and no more gaps than offsets (the
    precision side), and where the two gather no more floats per model
    than the widest single window: 1 to 4 gaps at span 20.

    Both windows hold the test position 0, so their positions are their
    offsets.  Against the miss's `_window_index` rows (its gaps, the test
    position, then its offsets in key order), the slide's are the same
    positions one older, the test position's aside, except that span, the
    first offset, gives way to offset 1 as the last row; its columns are
    its gaps one older and the test position.  So the pair's gather index
    is the miss's with its rows permuted, plus a fixed shift: the result
    is (take, add), each of shape (2, width, gaps + 1), for one `take`
    from the miss's index and one add."""
    span = width - 1
    gaps = span - n
    widest = max(_gather_floats(span, m) for m in range(width))
    if not 0 < gaps <= n or 2 * _gather_floats(span, n) > widest:
        return None
    size = gaps + 1
    rows = np.array([*range(size), *range(size + 1, width), size])
    row_shift = np.array([1] * gaps + [0] + [1] * (n - 1) + [1 - span])
    column_shift = np.array([1] * gaps + [0])
    take = np.stack((np.arange(width * size).reshape(width, size),
                     rows[:, None] * size + np.arange(size)))
    add = np.stack((np.zeros((width, size), dtype=np.intp),
                    row_shift[:, None] * width + column_shift))
    take.flags.writeable = add.flags.writeable = False  # shared through the cache
    return take, add


@lru_cache(maxsize=4)  # an index holds at most _FILL_GATHER entries
def _gap_class(span: int, gaps: int):
    """The windows of the offsets 1..span less `gaps` of them, their gap
    class: their keys as the engine builds them, tuples of ints in
    descending order, in the order of their gaps' combinations; their
    `_window_index` indices, stacked to (K, rows, k+1); and whether their
    systems are the precision's, as they all are or none."""
    # The windows' combinations come in the reverse order of their gaps'
    keys = tuple(itertools.combinations(range(span, 0, -1), span - gaps))[::-1]
    indices, sides = zip(*(_window_index(key, span + 1) for key in keys))
    index = np.array(indices)
    index.flags.writeable = False  # shared by every call through the cache
    return keys, index, sides[0]


def gap_fill(table: np.ndarray) -> dict:
    """A predictor cache's starting entries for the models of `table`
    (their `precision_table`), keyed as the engine keys a window: the
    predictor of every window of each gap class of its span (the offsets
    1..span less g = 1 or 2 of them), then of each window a change point
    regrows (the newest n offsets n..1, for n < span, not in a class).

    A class, or the change-point family as a whole, is filled only when
    its gather holds at most _FILL_GATHER floats and the entries so far
    and its own number at most PREDICTOR_CACHE_SIZE, so no start drops an
    entry.  Both are sized by arithmetic before any index is built.  A
    class's windows share one shape: one `_solve_windows` call solves the
    class.  The family's windows differ in shape: each is stored by its
    own miss, `_miss`, and none holds the offset span, so none pairs.  The
    full window span..1 is left out: it is the first step's miss on any
    contiguous history."""
    span = table.shape[-1] - 1
    models = table.shape[1]
    entries = {}
    for gaps in range(1, min(span, 2) + 1):
        count = math.comb(span, gaps)
        if (models * count * _gather_floats(span, span - gaps) > _FILL_GATHER
                or len(entries) + count > PREDICTOR_CACHE_SIZE):
            continue
        keys, index, precision_side = _gap_class(span, gaps)
        a, var = _solve_windows(index, table, precision_side)
        entries.update(zip(keys, _batch_entries(a, var, len(keys))))
    regrown = [key for n in range(1, span) if (key := tuple(range(n, 0, -1))) not in entries]
    if (models * sum(_gather_floats(span, len(key)) for key in regrown) <= _FILL_GATHER
            and len(entries) + len(regrown) <= PREDICTOR_CACHE_SIZE):
        for key in regrown:
            _miss(key, table, entries)
    return entries


def cholesky(V: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite V of shape
    (n, n), n >= 1, Fortran-ordered, with zeros above the diagonal.

    One LAPACK potrf call, without scipy's per-call checks and routine
    lookup: the call scipy's cholesky(V, lower=True) makes, so the result
    is the same bit for bit, for V in either memory order.  Only V's lower
    triangle is read, and V is not modified.  Raises LinAlgError where
    potrf meets a non-positive pivot; a NaN pivot it passes through.
    """
    L, info = _potrf(V, lower=1, clean=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return L


def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with LLᵀx = b, for L from `cholesky` and b of shape (n,) or
    (n, k).

    One LAPACK potrs call: the call scipy's cho_solve((L, True), b) makes,
    so the result is the same bit for bit.  The inputs are not modified.
    """
    # potrs reports only illegal arguments, which these shapes rule out.
    return _potrs(L, b, lower=1)[0]


def solve_triangular(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with Lx = b, for a lower-triangular L of shape (n, n), n >= 1, and
    b of shape (n,) or (n, k).

    One LAPACK trtrs call, without scipy's per-call checks and routine
    lookup.  L is `cholesky`'s Fortran-ordered output, and the call is the
    one scipy's solve_triangular(L, b, lower=True) makes, so the result is
    the same bit for bit.  The inputs are not modified.
    """
    x, info = _trtrs(L, b, 1)
    if info != 0:
        raise NumericalError(f"triangular solve failed: LAPACK trtrs info {info}")
    return x


def gp_predict(
    offsets: tuple,
    train_y,
    mean: float,
    table: np.ndarray,
    cache: dict,
) -> tuple[np.ndarray, np.ndarray]:
    """One-step posterior predictive under each model of `table` (their
    `precision_table`) with the constant prior mean `mean`: the M means and
    the M variances, as arrays.  The window is the tuple of its `offsets`
    t* - t_i from the test time, one per value of `train_y`.

    The variances are in observation space: they include the noise
    variance at the test point, so the prior (empty training set) is
    signal_scale**2 + noise_scale**2, up to the rounding of the precision.

    `cache` maps offsets tuples to predictors of the table's models (see
    `_window_index`, whose checks a miss makes); it must only ever be used
    with one model set (`{}` for a one-off call).  Each entry is a
    function of its key alone, so a cache can be shared by any number of
    streams.  Keys equal by value (3, 3.0, np.int32(3)) share an entry, and
    a hit needs no check: its key equals a checked one.  A hit only reads
    the cache.  A miss adds its own entry.  Where its window holds the
    oldest offset span and has a few gaps (`_slide_layout`: 1 to 4 at span
    20), the same `_solve_windows` call also gives the entry of the
    window's next slide, `tuple(x + 1 for x in offsets[1:]) + (1,)`, the
    window an inlier step moves it to, which the miss adds too unless the
    cache holds it.  Each new entry first drops the oldest entry of a
    cache holding PREDICTOR_CACHE_SIZE.  `engine.initialize` starts a
    cache with `gap_fill`'s gap classes and change-point windows.  Every
    entry, a slide's and a fill's included, holds the bits of its window's
    own miss.

    The means are mean + a·(y - mean), one row-wise product for all
    models with the entry's mean weights, so a hit gives the bits of a
    miss.  Each row is its own dot product (a matrix-vector product rounds
    a row differently depending on how many rows there are), so a model's
    mean does not depend on the other models of the set.
    """
    ys = np.asarray(train_y, dtype=float)
    if ys.shape != (len(offsets),):
        raise ValueError("offsets and train_y must have the same length")
    hit = cache.get(offsets)
    if hit is None:
        hit = _miss(offsets, table, cache)
    a, var = hit
    return mean + np.vecdot(a, ys - mean), var


def _miss(offsets: tuple, table: np.ndarray, cache: dict):
    """`gp_predict`'s miss: the window's predictor, stored in `cache` with,
    where the window pairs (`_slide_layout`) and its slide has no entry
    yet, the slide's, both from one `_solve_windows` call.  Each store
    first drops the oldest entry of a full cache."""
    width = table.shape[-1]
    index, precision_side = _window_index(offsets, width)
    layout = _slide_layout(width, len(offsets))
    if layout is not None and offsets[0] == width - 1:
        slide = tuple([x + 1 for x in offsets[1:]]) + (1,)
        if slide not in cache:
            take, add = layout
            a, var = _solve_windows(index.take(take) + add, table, precision_side)
            hit, ahead = _batch_entries(a, var, 2)
            _store(cache, offsets, hit)
            _store(cache, slide, ahead)
            return hit
    hit = _solve_windows(index, table, precision_side)
    _store(cache, offsets, hit)
    return hit


def _store(cache: dict, key: tuple, entry) -> None:
    """Add `entry` under `key`, first dropping the oldest entry of a cache
    holding PREDICTOR_CACHE_SIZE."""
    if len(cache) >= PREDICTOR_CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[key] = entry


def log_marginal_likelihood(
    hyper: Hyperparameters,
    mean: float,
    ts,
    ys,
) -> float:
    """Log marginal likelihood of the observations under the GP model.

    The quadratic form is evaluated on the mean-centered observations.
    The inputs are trusted to be finite, of one length and not empty:
    `fit_template` checks them where they enter.
    """
    ys = np.asarray(ys, dtype=float)
    resid = ys - mean
    L = chol_with_jitter(noisy_covariance(hyper, ts))
    return _lml(resid, L, cho_solve(L, resid))


def _lml(resid: np.ndarray, L: np.ndarray, alpha: np.ndarray) -> float:
    """The log marginal likelihood of residuals `resid` under the covariance
    with Cholesky factor L, from alpha = (LLᵀ)⁻¹ resid."""
    return float(
        -0.5 * resid @ alpha
        - np.add.reduce(np.log(L.diagonal()))
        - 0.5 * resid.size * _LOG_2PI
    )


def lml_gradient(
    hyper: Hyperparameters,
    mean: float,
    table: tuple[np.ndarray, np.ndarray, bool],
    ys,
) -> tuple[float, np.ndarray]:
    """The log marginal likelihood and its gradient in log-parameter space,
    from one factorization.

    `table` is `distance_table` of the input locations, which are trusted,
    as in `log_marginal_likelihood`, to match `ys`.  The value is
    log_marginal_likelihood's, bit for bit.  Gradient components are
    ordered (log signal_scale, log length_scale, log noise_scale),
    matching Hyperparameters.to_log_vector.

    With B = ααᵀ - V⁻¹ (α = V⁻¹(y - mean)), the gradient along a parameter
    with covariance derivative dV is tr(B dV)/2.  The kernel and its length
    derivative depend on the inputs only through the distance, so their
    traces are per-distance sums of B against the kernel values; the noise
    derivative is 2·noise²·I.

    Where the table's index is |i - j| (equally spaced sorted inputs), V is
    Toeplitz: it is a view of its 2n - 1 diagonals' values, α and
    x = V⁻¹e₁ come from one two-column `cho_solve`, and the sums from
    `_toeplitz_diagonal_sums`, three correlations.  Any other inputs,
    gapped, unsorted or repeated, gather V through the index, and take the
    sums of B itself, with V⁻¹ from LAPACK potri.  Both use the factor of
    V, with its jitter if the ladder added one.
    """
    d, where, toeplitz = table
    ys = np.asarray(ys, dtype=float)
    n = ys.size
    noise2 = hyper.noise_scale * hyper.noise_scale
    k, dk = _kernel_values(hyper.kind, hyper.signal_scale, hyper.length_scale, d,
                           return_length_derivative=True)
    resid = ys - mean
    if toeplitz:
        # V[i, j] = c[n-1-i+j]: a strided view of c's 8-byte floats, which
        # the potrf wrapper copies once into the Fortran order LAPACK reads.
        c = np.concatenate((k[:0:-1], k))
        c[n - 1] += noise2
        V = np.ndarray((n, n), buffer=c, offset=8 * (n - 1), strides=(-8, 8))
        L = chol_with_jitter(V)
        rhs = np.zeros((2, n))
        rhs[0] = resid
        rhs[1, 0] = 1.0
        alpha, x = cho_solve(L, rhs.T).T
        per_distance = _toeplitz_diagonal_sums(x, alpha)
        trace = per_distance[0]
    else:
        V = k[where]
        V[np.diag_indices(n)] += noise2
        L = chol_with_jitter(V)
        alpha = cho_solve(L, resid)
        # potri leaves V⁻¹ in the lower triangle and the factor's zeros above it
        P, info = _potri(L, lower=1)
        if info != 0:
            raise NumericalError(
                f"inverse from the Cholesky factor failed: LAPACK potri info {info}"
            )
        B = np.outer(alpha, alpha)
        B -= P
        B -= np.tril(P, -1).T
        per_distance = np.bincount(where.ravel(), weights=B.ravel(), minlength=d.size)
        trace = np.trace(B)
    grad = np.array([per_distance @ k, 0.5 * (per_distance @ dk), noise2 * trace])
    return _lml(resid, L, alpha), grad


def _toeplitz_diagonal_sums(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per distance d = 0..n-1, the sum of B = ααᵀ - V⁻¹ over the pairs
    |i - j| = d, for a symmetric Toeplitz V with x = V⁻¹e₁.

    By the Gohberg–Semencul formula, V⁻¹ = (XXᵀ - YYᵀ)/x₀ with X and Y
    lower-triangular Toeplitz: X's first column is x and Y's is
    (0, x_{n-1}, ..., x_1).  A lower-triangular Toeplitz matrix with first
    column a sums, over its d-th diagonal, to Σ_m (n - d - m)·a_m·a_{m+d}
    in its product with its transpose: one correlation of (n - m)·a_m
    with a.  The d-th diagonal of ααᵀ sums to the correlation of α with
    itself.  Each off-diagonal distance covers two diagonals, so those
    sums are doubled.
    """
    n = alpha.size
    y = np.zeros(n)
    y[1:] = x[:0:-1]
    weights = _countdown(n)
    inverse = np.correlate(weights * x, x, "full")[n - 1:]
    inverse -= np.correlate(weights * y, y, "full")[n - 1:]
    inverse /= x[0]
    sums = np.correlate(alpha, alpha, "full")[n - 1:]
    sums -= inverse
    sums[1:] *= 2.0
    return sums


@lru_cache
def _countdown(n: int) -> np.ndarray:
    """The weights n, n-1, ..., 1 of `_toeplitz_diagonal_sums`."""
    weights = np.arange(n, 0, -1.0)
    weights.flags.writeable = False  # shared by every call through the cache
    return weights
