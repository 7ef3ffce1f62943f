"""Tests for entropy, negentropy, mutual information, and score tables."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import digamma, rel_entr

from icageo import (Dataset, DegenerateSample, DimensionMismatch,
                    DimensionTooHigh, EstimatorFailure, InvalidConfig,
                    NonFinite, SourceSpec,
                    TooFewSamples, entropy_scalar, mutual_information,
                    negentropy_scalar, score_table)
from icageo.estimators import (SCORE_TABLE_BINS, _negentropy_raw,
                               _relative_entropy)
from icageo.sources import GAUSSIAN_ENTROPY

GAUSS_H = 1.4189385332046727
UNIFORM_NEGENT = 0.1764852083106725
LAPLACE_NEGENT = 0.07236494292469997
GAUSS_MI_RHO_HALF = 0.14384103622589045  # -0.5 ln(1 - 0.25)


def draw(family, n, seed):
    return SourceSpec(family).sample(np.random.default_rng(seed), n)


# -- entropy -----------------------------------------------------------------

def test_entropy_gaussian_matches_closed_form():
    for seed in range(5):
        est = entropy_scalar(draw("gaussian", 100000, seed))
        assert abs(est - GAUSS_H) < 0.02


def test_entropy_unit_interval_uniform_is_zero():
    for seed in range(5):
        x = np.random.default_rng(seed).uniform(0.0, 1.0, 100000)
        assert abs(entropy_scalar(x)) < 0.02


def test_entropy_scaling_shifts_by_log_factor():
    # H(ax) - H(x) = ln|a|
    x = draw("laplace", 100000, 3)
    for a in (2.0, 0.3, 7.5):
        d = entropy_scalar(a * x) - entropy_scalar(x)
        assert abs(d - math.log(a)) < 0.02


def test_entropy_input_validation():
    with pytest.raises(TooFewSamples):
        entropy_scalar(np.arange(5.0))
    with pytest.raises(DegenerateSample):
        entropy_scalar(np.full(100, 2.5))
    with pytest.raises(NonFinite):
        entropy_scalar(np.r_[draw("laplace", 100, 0), np.nan])


# -- negentropy --------------------------------------------------------------

def test_negentropy_known_families():
    for seed in range(5):
        g = negentropy_scalar(draw("gaussian", 100000, seed))
        u = negentropy_scalar(draw("uniform", 100000, seed))
        l = negentropy_scalar(draw("laplace", 100000, seed))
        assert abs(g) < 0.02
        assert abs(u - UNIFORM_NEGENT) < 0.02
        assert abs(l - LAPLACE_NEGENT) < 0.02


@settings(max_examples=30)
@given(log_a=st.floats(-2.0, 2.0), negative=st.booleans(),
       b=st.floats(-100.0, 100.0))
def test_negentropy_affine_invariance(log_a, negative, b):
    # |a| over four decades, either sign
    a = (-1.0 if negative else 1.0) * 10.0 ** log_a
    x = draw("uniform", 50000, 9)
    base = negentropy_scalar(x)
    assert abs(negentropy_scalar(a * x + b) - base) < 1e-10


def test_negentropy_gate_rejects_implausible_estimates():
    # about 2% of 10-sample Gaussian draws read at or below -0.1; this one
    # reads -0.124, the lowest of 2000 seeds
    x = draw("gaussian", 10, 204)
    assert _negentropy_raw(x) <= -0.1
    with pytest.raises(EstimatorFailure, match="below -0.1"):
        negentropy_scalar(x)


def test_negentropy_allows_small_negative_noise():
    est = negentropy_scalar(draw("gaussian", 5000, 12))
    assert est > -0.1  # mild negatives pass through un-gated


def reference_vasicek(x, m):
    """The m-spacing entropy as first written: padded copies and the bias
    term recomputed on every call."""
    n = x.size
    xs = np.sort(x)
    padded = np.concatenate([np.full(m, xs[0]), xs, np.full(m, xs[-1])])
    gaps = padded[2 * m:] - padded[:n]
    gaps = np.maximum(gaps, 1e-300)
    base = float(np.mean(np.log(n / (2.0 * m) * gaps)))
    i = np.arange(1, m + 1)
    corr = (math.log(2.0 * m / n) - (1.0 - 2.0 * m / n) * digamma(2 * m)
            + digamma(n + 1) - (2.0 / n) * float(np.sum(digamma(i + m - 1))))
    return base + corr


def test_library_digamma_is_within_2_ulp_of_scipy():
    from icageo.estimators import digamma as library_digamma
    n = np.concatenate([np.arange(1, 200_001),
                        np.unique(np.geomspace(2e5, 1e15, 2000).astype(np.int64))])
    got = library_digamma(n)
    want = digamma(n)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    for k in (1, 2, 10, 11, 12, 13, 1000, 20001, 10 ** 9):
        assert abs(library_digamma(k) - digamma(k)) <= 2 * np.spacing(abs(digamma(k)))
        assert library_digamma(k) == library_digamma(np.array([k]))[0]


@pytest.mark.parametrize("n", [
    0, -1, np.array([0, 5]), np.array([3, -2, 7]), np.array([5, 0] * 20),
    np.array([0, 10 ** 9]),  # too wide for a table indexed by value
])
def test_library_digamma_refuses_values_below_1(n):
    from icageo.estimators import digamma as library_digamma
    with pytest.raises(ValueError, match="integers >= 1"):
        library_digamma(n)


def test_library_digamma_array_equals_scalar_path():
    from icageo.estimators import digamma as library_digamma
    n = np.concatenate([np.arange(1, 200_001),
                        np.geomspace(2e5, 1e15, 2000).astype(np.int64)])
    gen = np.random.default_rng(0)
    gen.shuffle(n)
    # repeated values below a few times the length fill a table indexed by
    # value; one more value of 10**15 would make that table take petabytes,
    # so the same values with it appended go through np.unique instead
    small = np.concatenate([n[n <= 200_000], n[:5000] % 1000 + 1])
    by_table = library_digamma(small)
    by_unique = library_digamma(np.append(small, 10 ** 15))
    assert by_table.tobytes() == by_unique[:-1].tobytes()
    # a seeded sample of scalar calls against both array routes
    got = library_digamma(n)
    for k in gen.choice(n.size, 3000, replace=False):
        assert np.float64(library_digamma(int(n[k]))).tobytes() == got[k].tobytes()
    for k in gen.choice(small.size, 1000, replace=False):
        assert (np.float64(library_digamma(int(small[k]))).tobytes()
                == by_table[k].tobytes())


@pytest.mark.parametrize("n", [10, 1000, 20001])
def test_negentropy_raw_bitwise_equals_reference(n):
    m = max(1, int(math.sqrt(n)))
    for seed in range(4):
        # rounding makes ties, i.e. zero spacings that hit the 1e-300 floor
        x = np.round(draw("laplace", n, seed), 1 + seed % 3)
        want = (GAUSSIAN_ENTROPY + 0.5 * math.log(float(np.var(x)))
                - reference_vasicek(x, m))
        got = _negentropy_raw(x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        if want > -0.1:
            got = negentropy_scalar(x)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert entropy_scalar(x) == reference_vasicek(x, m)


def test_float32_keys_tied_over_an_m_spacing_give_the_float64_estimate():
    # 200 values that one float32 holds, distinct in float64, make zero
    # float32 m-spacings (2m = 88 < 200): the estimate is the float64 one
    x = draw("laplace", 2000, 4)
    x[:200] = 0.5 + 1e-12 * np.arange(200)
    assert np.unique(x[:200].astype(np.float32)).size == 1
    assert np.unique(x).size == x.size
    var = float(np.var(x))
    assert (_negentropy_raw(x, var=var, float32=True)
            == _negentropy_raw(x, var=var))
    # without ties the float32 keys give their own value, close to it
    y = draw("laplace", 2000, 4)
    fast, exact = (_negentropy_raw(y, float32=True), _negentropy_raw(y))
    assert fast != exact and fast == pytest.approx(exact, abs=1e-7)


# -- relative entropy ---------------------------------------------------------

@settings(max_examples=40)
@given(shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
       data=st.data())
def test_relative_entropy_matches_scipy_rel_entr(shape, data):
    cells = hnp.arrays(float, shape, elements=st.floats(0.01, 1.0))
    zeros = hnp.arrays(bool, shape)
    p = data.draw(cells) * data.draw(zeros)  # zero cells
    p.flat[0] = 0.5  # and at least one positive one
    p /= p.sum()
    # targets positive wherever p is, some with zeros of their own
    qs = [data.draw(cells) * ((p > 0) | data.draw(zeros))
          for _ in range(data.draw(st.integers(1, 3)))]
    qs = [q / q.sum() for q in qs]
    with np.errstate(divide="ignore"):
        got = [_relative_entropy(p, np.log(q)) for q in qs]  # -inf where q = 0
        got.append(_relative_entropy(p, 0.0))
        assert _relative_entropy(p, np.log(p)) == 0.0
    want = [rel_entr(p, q).sum() for q in qs] + [rel_entr(p, 1.0).sum()]
    assert_allclose(got, want, rtol=1e-12, atol=1e-15)


# -- mutual information -------------------------------------------------------

def test_mi_independent_pair_is_near_zero():
    gen = np.random.default_rng(21)
    x = np.column_stack([SourceSpec("uniform").sample(gen, 100000),
                         SourceSpec("laplace").sample(gen, 100000)])
    est = mutual_information(Dataset(x))
    assert abs(est.raw) < 0.02
    assert est.value >= 0.0
    assert not est.near_deterministic_dependence


def test_mi_gaussian_rho_half():
    gen = np.random.default_rng(2)
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    x = gen.multivariate_normal(np.zeros(2), cov, size=100000)
    knn = mutual_information(Dataset(x))
    assert abs(knn.value - GAUSS_MI_RHO_HALF) < 0.02
    assert knn.method == "knn_kl"
    assert knn.n == 100000


def test_mi_three_channels():
    gen = np.random.default_rng(5)
    z = gen.standard_normal(40000)
    x = np.column_stack([z + 0.8 * gen.standard_normal(40000),
                         z + 0.8 * gen.standard_normal(40000),
                         gen.standard_normal(40000)])
    est = mutual_information(Dataset(x))
    assert est.value > 0.2  # first two channels share z


def test_mi_monotone_rescaling_invariance():
    gen = np.random.default_rng(31)
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    x = gen.multivariate_normal(np.zeros(2), cov, size=100000)
    base = mutual_information(Dataset(x)).value
    for transform in (lambda v: 2.0 * v, lambda v: v ** 3):
        y = x.copy()
        y[:, 0] = transform(y[:, 0])
        assert abs(mutual_information(Dataset(y)).value - base) < 0.03


def test_mi_duplicated_channel_flags_near_deterministic():
    gen = np.random.default_rng(8)
    s = gen.standard_normal(20000)
    knn = mutual_information(Dataset(np.column_stack([s, s])))
    assert knn.near_deterministic_dependence
    assert knn.raw > 0.9 * knn.saturation


def test_mi_duplicate_jitter_is_deterministic():
    gen = np.random.default_rng(13)
    s = np.round(gen.standard_normal(5000), 1)  # plenty of ties
    t = gen.standard_normal(5000)
    data = Dataset(np.column_stack([s, t]))
    a = mutual_information(data, seed=4)
    b = mutual_information(data, seed=4)
    assert a.raw == b.raw
    c = mutual_information(data, seed=5)
    assert c.raw != a.raw  # different jitter stream moves the estimate


SEED_DATA = {
    "untied": np.random.default_rng(21).standard_normal((1200, 2)),
    "tied": np.round(np.random.default_rng(22).standard_normal((1200, 2)), 1),
}


@pytest.mark.parametrize("data", SEED_DATA)
@pytest.mark.parametrize("seed", [True, -1, 1.5, 2 ** 64])
def test_mi_refuses_a_seed_rng_refuses(seed, data):
    # untied data never draws the jitter, tied data would fail in numpy
    with pytest.raises(InvalidConfig, match="seed"):
        mutual_information(Dataset(SEED_DATA[data]), seed=seed)


def reference_digamma(n):
    from icageo.estimators import digamma as library_digamma
    values, inverse = np.unique(n, return_inverse=True)
    return np.array([library_digamma(int(v)) for v in values])[inverse]


def reference_marginal_digamma_counts(column, eps):
    # strict |xi - xj| < eps_i counts, excluding the point itself
    xs = np.sort(column)
    hi = np.searchsorted(xs, column + eps, side="left")
    lo = np.searchsorted(xs, column - eps, side="right")
    counts = np.maximum(hi - lo - 1, 1)
    return float(np.mean(reference_digamma(counts + 1)))


def reference_knn_mi(Y, k):
    """The kNN mutual information as it asked the tree for every neighbour
    and evaluated digamma one distinct count at a time."""
    from scipy.spatial import cKDTree

    T, N = Y.shape
    dist, _ = cKDTree(Y).query(Y, k=k + 1, p=np.inf)
    eps = dist[:, -1]
    total = 0.0
    for j in range(N):
        total += reference_marginal_digamma_counts(Y[:, j], eps)
    raw = float(reference_digamma(k) + (N - 1) * reference_digamma(T) - total)
    saturation = float(reference_digamma(T) - reference_digamma(k))
    return raw, saturation


def reference_jitter(Y, seed):
    Y = np.array(Y, dtype=float)
    for j in range(Y.shape[1]):
        col = Y[:, j]
        if np.unique(col).size < col.size:
            gen = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed, spawn_key=(j,))))
            scale = 1e-10 * max(float(col.std()), 1e-30)
            Y[:, j] = col + scale * gen.standard_normal(col.size)
    return Y


@pytest.mark.parametrize("N, T, decimals", [
    (2, 3000, None), (3, 20000, None),
    (2, 5000, 1), (3, 4000, 2),               # ties: the jitter runs
])
def test_knn_mi_bitwise_equals_reference(N, T, decimals):
    gen = np.random.default_rng(N * T)
    x = gen.laplace(size=(T, N)) @ gen.standard_normal((N, N))
    if decimals is not None:
        x[:, 0] = np.round(x[:, 0], decimals)
    for seed in (0, 7):
        est = mutual_information(Dataset(x), seed=seed)
        raw, saturation = reference_knn_mi(reference_jitter(x, seed), 5)
        assert np.float64(est.raw).tobytes() == np.float64(raw).tobytes()
        assert est.saturation == saturation


def test_mi_dimension_and_size_limits():
    gen = np.random.default_rng(0)
    with pytest.raises(DimensionMismatch):
        mutual_information(Dataset(gen.standard_normal((2000, 1))))
    with pytest.raises(DimensionTooHigh):
        mutual_information(Dataset(gen.standard_normal((2000, 4))))
    with pytest.raises(TooFewSamples):
        mutual_information(Dataset(gen.standard_normal((999, 2))))


def test_estimator_errors_decay_with_sample_size():
    # consistency trend on the analytic cases across T = 1e3, 1e4, 1e5
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])

    def errs(T):
        negent, mi = [], []
        for seed in range(3):
            gen = np.random.default_rng(seed)
            u = SourceSpec("uniform").sample(gen, T)
            negent.append(abs(negentropy_scalar(u) - UNIFORM_NEGENT))
            x = gen.multivariate_normal(np.zeros(2), cov, size=T)
            mi.append(abs(mutual_information(Dataset(x)).value
                          - GAUSS_MI_RHO_HALF))
        return float(np.mean(negent)), float(np.mean(mi))

    e3, e4, e5 = errs(1000), errs(10000), errs(100000)
    assert e5[0] < e3[0] and e5[1] < e3[1]
    assert e4[0] < e3[0] + 0.005 and e4[1] < e3[1] + 0.005  # noise allowance
    assert e5[0] < 0.02 and e5[1] < 0.02


# -- score tables ---------------------------------------------------------------

def test_score_table_gaussian_is_identity():
    for seed in range(3):
        x = draw("gaussian", 100000, seed + 40)
        table = score_table(x)
        s = np.linspace(-2.0, 2.0, 81)
        assert np.max(np.abs(table(s)[0] - s)) < 0.15


def test_score_table_laplace_is_scaled_sign():
    target = math.sqrt(2.0)
    for seed in range(3):
        x = draw("laplace", 100000, seed + 60)
        table = score_table(x)
        s = np.concatenate([np.linspace(-2.0, -0.5, 31),
                            np.linspace(0.5, 2.0, 31)])
        assert np.max(np.abs(table(s)[0] - target * np.sign(s))) < 0.25


def test_score_table_grid_span_and_clamping():
    x = draw("gaussian", 5000, 1)
    table = score_table(x)
    assert table.grid.size == 256
    assert_allclose(table.grid[0], x.min() - 3 * table.bandwidth)
    assert_allclose(table.grid[-1], x.max() + 3 * table.bandwidth)
    # beyond the grid the interpolant holds the end values
    assert table(np.array([table.grid[-1] + 50.0]))[0][0] == table.psi[-1]
    assert table(np.array([table.grid[0] - 50.0]))[0][0] == table.psi[0]


def test_score_table_validation():
    with pytest.raises(TooFewSamples):
        score_table(np.random.default_rng(0).standard_normal(999))
    with pytest.raises(DegenerateSample):
        score_table(np.full(2000, 1.0))
    # not constant, but its standard deviation underflows to zero
    with pytest.raises(DegenerateSample, match="zero variance"):
        score_table(np.r_[np.zeros(1500), 5e-324])


def test_score_table_is_deterministic():
    x = draw("laplace", 3000, 77)
    t1, t2 = score_table(x), score_table(x)
    assert_array_equal(t1.psi, t2.psi)
    assert_array_equal(t1.grid, t2.grid)


def direct_score_table(x, bins):
    """The O(T bins) direct Gaussian-kernel sum, kept as the reference for
    the binned estimate: same bandwidth, grid and inflation correction."""
    v = np.asarray(x, dtype=float)
    n = v.size
    sd = float(v.std())
    q75, q25 = np.percentile(v, [75.0, 25.0])
    scale = min(sd, (q75 - q25) / 1.34) if q75 > q25 else sd
    h = 1.5 * scale * n ** (-1.0 / 7.0)
    grid = np.linspace(v.min() - 3.0 * h, v.max() + 3.0 * h, bins)
    q = np.zeros(bins)
    dq = np.zeros(bins)
    step = max(1, 2_000_000 // bins)
    for start in range(0, n, step):
        u = (grid[None, :] - v[start:start + step, None]) / h
        kern = np.exp(-0.5 * u * u)
        q += kern.sum(axis=0)
        dq += (-u * kern).sum(axis=0)
    root = math.sqrt(2.0 * math.pi)
    q /= n * h * root
    dq /= n * h * h * root
    psi = -dq / np.maximum(q, 1e-300)
    psi *= (sd * sd + h * h) / (sd * sd)
    return grid, q, psi, h


@pytest.mark.parametrize("family", ["laplace", "uniform", "gaussian"])
@pytest.mark.parametrize("n", [1000, 20000, 100000])
@pytest.mark.parametrize("bins", [SCORE_TABLE_BINS])  # the library's count
def test_score_table_matches_direct_kernel_sum(family, n, bins):
    x = draw(family, n, 90 + n // 1000)
    table = score_table(x)
    grid, q, psi, h = direct_score_table(x, bins)
    assert_array_equal(table.grid, grid)
    assert table.bandwidth == h
    assert np.max(np.abs(table.density - q)) <= 1e-4 * q.max()
    ref = np.interp(x, grid, psi)
    assert np.max(np.abs(table(x)[0] - ref)) <= 1e-3 * np.max(np.abs(ref))


def test_score_table_lookup_equals_linear_interpolation():
    x = draw("laplace", 5000, 3)
    table = score_table(x)
    gen = np.random.default_rng(4)
    lo, hi = table.grid[0], table.grid[-1]
    s = np.concatenate([gen.uniform(lo, hi, 5000),
                        gen.uniform(lo - 10.0, lo, 100),
                        gen.uniform(hi, hi + 10.0, 100),
                        table.grid, [lo, hi]])
    expected = np.interp(s, table.grid, table.psi)
    assert_allclose(table(s)[0], expected, rtol=0,
                    atol=1e-12 * np.max(np.abs(table.psi)))


def test_score_table_far_from_every_sample_reads_empty():
    # nodes in the gap before a distant outlier hold only FFT round-off;
    # they read as zero density and zero score, never as huge scores
    x = np.concatenate([draw("gaussian", 5000, 8), [200.0]])
    table = score_table(x)
    gap = (table.grid > 10.0) & (table.grid < 190.0)
    assert gap.sum() > 200
    assert np.all(table.density[gap] == 0.0)
    assert np.all(table.psi[gap] == 0.0)
    assert np.all(table.density >= 0.0)
    assert np.all(np.isfinite(table.psi))


def test_score_table_derivative_is_the_slope_of_its_psi():
    x = draw("laplace", 5000, 5)
    table = score_table(x)
    node_step = (table.grid[-1] - table.grid[0]) / (table.grid.size - 1)
    # points strictly inside node intervals, with a finite-difference probe
    # that stays in the same interval, where the interpolant is linear
    gen = np.random.default_rng(6)
    k = gen.integers(0, table.grid.size - 1, 2000)
    s = table.grid[k] + node_step * gen.uniform(0.2, 0.8, k.size)
    h = 0.1 * node_step
    fd = (table(s + h)[0] - table(s - h)[0]) / (2.0 * h)
    scale = np.max(np.abs(np.diff(table.psi))) / node_step
    assert_allclose(table(s)[1], fd, rtol=0, atol=1e-8 * scale)
    assert_allclose(table(s)[1],
                    (table.psi[k + 1] - table.psi[k]) / node_step,
                    rtol=1e-12, atol=0)
    # outside the grid the held end values have zero slope
    lo, hi = table.grid[0], table.grid[-1]
    outside = np.array([lo - 50.0, lo - 1e-9, hi + 1e-9, hi + 50.0])
    assert_array_equal(table(outside)[1], np.zeros(4))
    # the grid ends themselves belong to the end intervals
    assert table(np.array([hi]))[1][0] == \
        (table.psi[-1] - table.psi[-2]) / node_step
