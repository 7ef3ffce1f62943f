"""Sample-based estimators: scalar entropy, negentropy, mutual information,
and nonparametric score functions.

One tuning-light classical estimator each: m-spacing entropy with digamma
bias reduction, k-nearest-neighbor mutual information in the Chebyshev
metric, and a binned kernel density score table with a smoothing-bias
correction.  All are deterministic functions of their inputs.
"""
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _frozen
from .errors import (DegenerateSample, DimensionMismatch, DimensionTooHigh,
                     EstimatorFailure, NonFinite, TooFewSamples)
from .rng import Rng
from .sources import GAUSSIAN_ENTROPY

# raw mutual information above this fraction of the estimator's saturation
# value is reported as near-deterministic dependence
SATURATION_FRACTION = 0.9
# smallest sample a kernel score table is estimated from
SCORE_TABLE_MIN_SAMPLES = 1000
# smallest sample mutual information is estimated from
MI_MIN_SAMPLES = 1000
# fine binning grid points per score-table node interval
FINE_BINS_PER_NODE = 16
# digamma of an integer array looks its values up in a table indexed by
# value when the largest is at most this multiple of the array's length
DIGAMMA_TABLE_FACTOR = 4
# neighbours of the kNN mutual information (Kraskov et al. 2004)
MI_NEIGHBOURS = 5
# nodes of a score table
SCORE_TABLE_BINS = 256


@dataclass(frozen=True)
class MIEstimate:
    """Mutual-information estimate in nats.

    value is clamped at zero; raw keeps the uncorrected number so noise
    around zero stays visible.  near_deterministic_dependence is set when
    raw exceeds SATURATION_FRACTION of the estimator's saturation level
    psi(T) - psi(MI_NEIGHBOURS), at which point the number is a floor, not
    an estimate.  method is always "knn_kl".
    """

    value: float
    raw: float
    method: str
    n: int
    saturation: float
    near_deterministic_dependence: bool


def _check_vector(x, minimum: int) -> np.ndarray:
    v = np.asarray(x, dtype=float).ravel()
    if v.size < minimum:
        raise TooFewSamples(f"need at least {minimum} samples, got {v.size}")
    if not np.isfinite(v).all():
        raise NonFinite(context="sample vector")
    if v.max() == v.min():
        raise DegenerateSample("all sample values are equal")
    return v


# psi(n) = H(n - 1) - Euler's gamma for n = 1..10, the harmonic sums taken
# in order, and the coefficients of the asymptotic series of
# ln n - 1/(2n) - psi(n) in z = 1/n**2 (divided by z), highest power first
_PSI_SMALL = tuple(h - 0.5772156649015329 for h in itertools.accumulate(
    (1.0 / i for i in range(1, 10)), initial=0.0))
_PSI_SERIES = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120,
               1 / 12)


def _digamma_values(values: np.ndarray) -> np.ndarray:
    # digamma(v) for each v >= 1 of a 1-D integer array
    x = values.astype(float)
    z = 1.0 / (x * x)
    series = np.zeros_like(x)
    for a in _PSI_SERIES:
        series = series * z + a
    out = np.fromiter(map(math.log, x), float, x.size) - 0.5 / x - z * series
    small = values <= 10
    out[small] = np.take(_PSI_SMALL, values[small] - 1)
    return out


def digamma(n):
    """The digamma function at a positive integer n, or elementwise at an
    integer array: the harmonic sum for n <= 10 and the asymptotic series
    above, as Cephes evaluates them (scipy.special.digamma's values).  An
    array evaluates each distinct value once; a value below 1 raises
    ValueError."""
    n = np.asarray(n)
    if n.min(initial=1) < 1:
        raise ValueError(f"digamma needs integers >= 1, got {n.min()}")
    top = int(n.max(initial=0))
    if top > DIGAMMA_TABLE_FACTOR * n.size:
        values, inverse = np.unique(n, return_inverse=True)
        out = _digamma_values(values)[inverse]
    else:
        # a table indexed by value, filled at the values present
        table = np.zeros(top + 1)
        table[n] = 1.0
        values = np.flatnonzero(table)
        table[values] = _digamma_values(values)
        out = table[n]
    return out if n.ndim else out.item()


@functools.lru_cache(maxsize=32)
def _spacing_bias(n: int) -> float:
    # digamma bias-reduction terms for the m-spacing estimator of n samples,
    # m = floor(sqrt(n)); solver loops ask for the same n every call
    m = int(math.sqrt(n))
    i = np.arange(1, m + 1)
    return (math.log(2.0 * m / n) - (1.0 - 2.0 * m / n) * digamma(2 * m)
            + digamma(n + 1) - (2.0 / n) * float(np.sum(digamma(i + m - 1))))


def _m_spacings(xs: np.ndarray, m: int) -> np.ndarray:
    # xs[min(k + m, n - 1)] - xs[max(k - m, 0)] of a sorted xs, in one new
    # buffer of xs's dtype
    n = xs.size
    gaps = np.empty_like(xs)
    gaps[:n - m] = xs[m:]
    gaps[n - m:] = xs[-1]
    gaps[m:] -= xs[:n - m]
    gaps[:m] -= xs[0]
    return gaps


def _vasicek(x: np.ndarray, float32: bool = False) -> float:
    # the m-spacing entropy at m = floor(sqrt(n)); every caller passes
    # n >= 10, so 1 <= m < n/2
    n = x.size
    m = int(math.sqrt(n))
    if float32:
        # float32 keys of x, which should be centred: float32 resolution at
        # a large offset is coarser than an m-spacing.  The logs are
        # averaged in float64; a zero m-spacing falls through to float64
        keys = x.astype(np.float32)
        keys.sort()
        gaps = _m_spacings(keys, m)
        if gaps.all():
            np.log(gaps, out=gaps)
            return (float(np.mean(gaps, dtype=np.float64))
                    + math.log(n / (2.0 * m)) + _spacing_bias(n))
    # the buffer of m-spacings then holds the floored, scaled logs
    gaps = _m_spacings(np.sort(x), m)
    np.maximum(gaps, 1e-300, out=gaps)
    np.multiply(n / (2.0 * m), gaps, out=gaps)
    np.log(gaps, out=gaps)
    return float(np.mean(gaps)) + _spacing_bias(n)


def _relative_entropy(p: np.ndarray, log_q) -> float:
    """sum p (ln p - ln q) over the cells of p, for the target q given by
    ln q, an array that broadcasts to p's shape or a number.  A cell where
    p = 0 adds nothing, so ln q need only be finite where p > 0."""
    where = p > 0
    # ln p where p > 0; the other cells are left unset and never read
    log_p = np.log(p, out=None, where=where)
    terms = np.subtract(log_p, log_q, out=np.zeros_like(p), where=where)
    return float(np.multiply(terms, p, out=terms).sum())


def entropy_scalar(x) -> float:
    """Differential entropy of a scalar sample, in nats: the m-spacing
    estimate, m = floor(sqrt(n)), with the standard digamma bias-reduction
    terms.
    """
    return _vasicek(_check_vector(x, 10))


def _negentropy_raw(v: np.ndarray, var: float | None = None,
                    float32: bool = False) -> float:
    """Vasicek-based negentropy as a bare float, no plausibility gate.

    Used inside solver loops where transient estimates on partly separated
    data are monitoring signals, not reported results.  var, when given,
    is the variance of v as the caller already knows it (the orthogonal
    search takes it from a pair's 2 x 2 second moments); np.var otherwise.
    float32 sorts, spaces and logs float32 keys of a centred v, about twice
    as fast; a zero float32 m-spacing falls back to the float64 estimate.
    """
    if var is None:
        var = float(np.var(v))
    if var <= 0.0:
        raise DegenerateSample("zero variance")
    return GAUSSIAN_ENTROPY + 0.5 * math.log(var) - _vasicek(v, float32)


def negentropy_scalar(x) -> float:
    """Divergence of the sample law to the Gaussian of equal variance.

    Computed as (1/2)ln(2 pi e var(x)) minus the entropy estimate, which
    makes it invariant under affine maps of x up to estimator noise.
    Mildly negative values are honest noise and are reported as-is; values
    at or below -0.1 nats are implausible for any distribution and raise
    EstimatorFailure.
    """
    v = _check_vector(x, 10)
    value = _negentropy_raw(v)
    if value <= -0.1:
        raise EstimatorFailure(f"negentropy estimate {value:.4f} below -0.1; "
                               "estimator assumptions violated")
    return value


def _sorted_search(xs: np.ndarray, keys: np.ndarray, side: str) -> np.ndarray:
    # np.searchsorted(xs, keys, side): the keys are searched in ascending
    # order, whose probes of xs stay close together, and the indices go back
    # to the keys' order; at 1e5 keys the search itself is 2.3 times
    # faster, and 1.5 times with the sort
    order = np.argsort(keys)
    found = np.empty(len(keys), dtype=np.intp)
    found[order] = np.searchsorted(xs, keys[order], side=side)
    return found


def _marginal_digamma_counts(column: np.ndarray, eps: np.ndarray) -> float:
    # strict |xi - xj| < eps_i counts, excluding the point itself; the
    # queries run in sorted order, and the counts go back to sample order
    # before the mean, so the sum sees them in the same order
    order = np.argsort(column)
    xs = column[order]
    e = eps[order]
    hi = _sorted_search(xs, xs + e, "left")
    lo = _sorted_search(xs, xs - e, "right")
    counts = np.empty_like(hi)
    counts[order] = np.maximum(hi - lo - 1, 1)
    return float(np.mean(digamma(counts + 1)))


def _usable_cpus() -> int:
    # the CPUs this process may run on, which can be fewer than the machine's
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _knn_mi(Y: np.ndarray) -> tuple[float, float]:
    # imported here, as only this estimator needs it: after the CLI's own
    # imports, scipy.spatial loads scipy's base (numpy.f2py, numpy.testing,
    # scipy.sparse, .linalg, .special), which takes longer than the CLI's
    # whole start-up and about doubles the process's resident memory
    from scipy.spatial import cKDTree

    T, N = Y.shape
    k = MI_NEIGHBOURS
    tree = cKDTree(Y)
    # the distance to the k-th neighbour other than the point itself, asked
    # in the tree's leaf order, which keeps consecutive queries in the same
    # leaves, and scattered back to sample order
    leaf_order = tree.indices
    dist, _ = tree.query(Y[leaf_order], k=[k + 1], p=np.inf,
                         workers=_usable_cpus())
    eps = np.empty(T)
    eps[leaf_order] = dist[:, 0]
    total = 0.0
    for j in range(N):
        total += _marginal_digamma_counts(Y[:, j], eps)
    raw = float(digamma(k) + (N - 1) * digamma(T) - total)
    saturation = float(digamma(T) - digamma(k))
    return raw, saturation


def mutual_information(data: Dataset, seed: int = 0) -> MIEstimate:
    """Mutual information between the channels of a 2- or 3-column dataset.

    k-nearest-neighbor estimator in the Chebyshev metric, k = MI_NEIGHBOURS;
    exact duplicate values are deterministically jittered to keep neighbor
    counts well defined.
    """
    Rng(seed)  # checked as every seed is; the jitter derives its own streams
    if data.N < 2:
        raise DimensionMismatch("mutual information needs at least 2 channels")
    if data.N > 3:
        raise DimensionTooHigh("mutual information supports at most 3 channels")
    if data.T < MI_MIN_SAMPLES:
        raise TooFewSamples(f"mutual information needs T >= {MI_MIN_SAMPLES}")
    Y = np.array(data.samples, dtype=float)
    for j in range(Y.shape[1]):
        col = Y[:, j]
        if np.unique(col).size < col.size:
            gen = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed, spawn_key=(j,))))
            scale = 1e-10 * max(float(col.std()), 1e-30)
            Y[:, j] = col + scale * gen.standard_normal(col.size)
    raw, saturation = _knn_mi(Y)
    flagged = raw > SATURATION_FRACTION * saturation
    return MIEstimate(max(raw, 0.0), raw, "knn_kl", data.T, saturation,
                      flagged)


@dataclass(frozen=True)
class ScoreTable:
    """Piecewise-linear score function estimate on a fixed grid.

    Calling the table returns (psi, psi') at s from one lookup: psi by
    linear interpolation between nodes, the end values held constant
    outside the grid (clamped linear extrapolation), and psi' its
    derivative: that of the node interval holding s, and 0 outside the grid.
    density carries the kernel density estimate on the same grid for
    plotting.
    """

    grid: np.ndarray
    density: np.ndarray
    psi: np.ndarray
    bandwidth: float

    def __post_init__(self):
        for name in ("grid", "density", "psi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def __call__(self, s: np.ndarray):
        """(psi, derivative) at s from one lookup."""
        # the grid is uniform, so the node k left of s is found by
        # arithmetic from s's position in node steps, clamped to the grid
        last = self.grid.size - 1
        step = (self.grid[-1] - self.grid[0]) / last
        pos = np.clip((s - self.grid[0]) / step, 0.0, last)
        k = np.minimum(pos.astype(np.intp), last - 1)
        w = pos - k
        psi = (1.0 - w) * self.psi[k] + w * self.psi[k + 1]
        d = (np.diff(self.psi) / step)[k]
        d[(s < self.grid[0]) | (s > self.grid[-1])] = 0.0
        return psi, d


def score_table(x) -> ScoreTable:
    """Kernel-density score estimate psi-hat = -q'/q on a regular grid of
    SCORE_TABLE_BINS nodes.

    The Gaussian-kernel bandwidth h uses the robust sd/IQR scale at the
    n^(-1/7) rate appropriate for a density-derivative ratio, and the
    returned score is rescaled by (sd^2 + h^2)/sd^2 to undo the variance
    inflation the kernel smoothing introduces.

    The estimate is binned (Silverman 1982; Wand 1994): the sample is
    linearly binned onto a fine grid of M = 16 (SCORE_TABLE_BINS - 1) + 1
    points over the same span [min - 3h, max + 3h], so every table node is
    a fine-grid node, and the bin counts are convolved by FFT with the
    kernel and its derivative, both truncated at 8h.  The cost is
    O(T + M log M) against O(T SCORE_TABLE_BINS) for the direct sum.
    Against the direct sum, the density is within 1e-4 of its peak and
    the score at the samples within 1e-3 of its largest magnitude
    (tested).  Nodes whose density falls below
    1e-10 of the peak, far from every sample, read as empty: density and
    score 0, as the direct sum gives where its kernels underflow.
    """
    v = _check_vector(x, SCORE_TABLE_MIN_SAMPLES)
    n = v.size
    sd = float(v.std())
    if sd == 0.0:
        raise DegenerateSample("zero variance")
    q75, q25 = np.percentile(v, [75.0, 25.0])
    scale = min(sd, (q75 - q25) / 1.34) if q75 > q25 else sd
    h = 1.5 * scale * n ** (-1.0 / 7.0)
    lo, hi = v.min() - 3.0 * h, v.max() + 3.0 * h
    grid = np.linspace(lo, hi, SCORE_TABLE_BINS)
    m = FINE_BINS_PER_NODE * (SCORE_TABLE_BINS - 1) + 1
    delta = (hi - lo) / (m - 1)
    # linear binning: each sample splits its unit weight between the two
    # fine nodes around it
    pos = (v - lo) / delta
    j = np.minimum(pos.astype(np.intp), m - 2)
    w = pos - j
    counts = np.bincount(j, 1.0 - w, m) + np.bincount(j + 1, w, m)
    # kernel K(u) and derivative -u K(u) at fine-grid offsets |k| <= 8h,
    # stored circularly; length >= m + reach keeps the wrap-around off
    # every output node
    reach = min(math.ceil(8.0 * h / delta), m - 1)
    size = 1 << (m + reach - 1).bit_length()
    u = np.arange(-reach, reach + 1) * (delta / h)
    kern = np.zeros((2, size))
    kern[0, :u.size] = np.exp(-0.5 * u * u)
    kern[1, :u.size] = -u * kern[0, :u.size]
    kern = np.roll(kern, -reach, axis=1)
    conv = np.fft.irfft(np.fft.rfft(counts, size) * np.fft.rfft(kern, size),
                        size)
    q, dq = conv[:, :m:FINE_BINS_PER_NODE]
    empty = q < 1e-10 * q.max()  # FFT round-off only
    q[empty] = 0.0
    dq[empty] = 0.0
    root = math.sqrt(2.0 * math.pi)
    q /= n * h * root
    dq /= n * h * h * root
    psi = -dq / np.maximum(q, 1e-300)
    psi *= (sd * sd + h * h) / (sd * sd)
    return ScoreTable(grid, q, psi, h)
