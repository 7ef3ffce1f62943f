"""Tests for the Amari index and the decomposition report."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from icageo import (Dataset, DecompositionReport, DegenerateGain,
                    InvalidConfig, Rng, SourceSpec, TooFewSamples, amari_index,
                    diagnose, entropy_scalar, negentropy_scalar, parse_source)

UNIFORM_NEGENT = 0.1764852083106725
LAPLACE_NEGENT = 0.07236494292469997
GAUSS_MI_RHO_HALF = 0.14384103622589045


# -- amari index -----------------------------------------------------------------

def test_amari_zero_exactly_on_scaled_permutations():
    assert amari_index(np.eye(3)) == 0.0
    perm = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, -0.5], [3.0, 0.0, 0.0]])
    assert amari_index(perm) == 0.0


@settings(max_examples=200)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       factor=st.floats(1e-3, 1e3), data=st.data())
def test_amari_invariant_under_permutation_and_scaling(n, seed, factor, data):
    # the ICA indeterminacies: outputs in any order, with any sign, in a
    # common unit.  Unequal row magnitudes are not among them: they change
    # the column ratios, e.g. [[1, .5], [.5, 1]] reads 0.5 and
    # [[10, 5], [.5, 1]] reads 0.3125.
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((n, n))
    rows = data.draw(st.permutations(range(n)))
    cols = data.draw(st.permutations(range(n)))
    signs = gen.choice([-1.0, 1.0], size=(n, 1))
    moved = factor * signs * g[np.ix_(rows, cols)]
    assert abs(amari_index(moved) - amari_index(g)) <= 1e-12


def test_amari_depends_on_unequal_row_scales():
    # unequal row scales move the index: the documented values, exactly
    assert amari_index([[1.0, 0.5], [0.5, 1.0]]) == 0.5
    assert amari_index([[10.0, 5.0], [0.5, 1.0]]) == 0.3125


def test_amari_one_at_maximal_mixing():
    assert amari_index(np.ones((4, 4))) == pytest.approx(1.0)
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert amari_index(signs) == pytest.approx(1.0)


def test_amari_bounds_and_monotonicity():
    gen = np.random.default_rng(0)
    for _ in range(50):
        g = gen.standard_normal((3, 3)) + 2 * np.eye(3)
        v = amari_index(g)
        assert 0.0 <= v <= 1.0
    # shrinking the off-diagonal leakage shrinks the index
    base = np.eye(2)
    prev = 0.0
    for eps in (0.0, 0.1, 0.3, 0.6):
        v = amari_index(base + eps * (np.ones((2, 2)) - np.eye(2)))
        assert v >= prev
        prev = v


def test_amari_invariances_that_hold_exactly():
    g = np.array([[2.0, 0.3, -0.1], [0.4, 1.5, 0.2], [-0.3, 0.1, 1.8]])
    base = amari_index(g)
    # global scaling
    assert_allclose(amari_index(5.0 * g), base, rtol=0, atol=1e-15)
    # row and column permutations
    p = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert_allclose(amari_index(p @ g), base, rtol=0, atol=1e-15)
    assert_allclose(amari_index(g @ p), base, rtol=0, atol=1e-15)
    # sign flips per channel
    d = np.diag([1.0, -1.0, -1.0])
    assert_allclose(amari_index(d @ g @ d), base, rtol=0, atol=1e-15)


def test_estimates_are_plain_floats():
    x = SourceSpec("laplace").sample(Rng(4).generator(), 2000)
    for value in (entropy_scalar(x), negentropy_scalar(x),
                  amari_index([[1.0, 0.5], [0.5, 1.0]])):
        assert type(value) is float


def test_amari_rejects_degenerate_gains():
    with pytest.raises(DegenerateGain):
        amari_index(np.array([[1.0]]))  # too small
    with pytest.raises(DegenerateGain):
        amari_index(np.ones((2, 3)))  # not square
    with pytest.raises(DegenerateGain):
        amari_index(np.array([[1.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(DegenerateGain):
        amari_index(np.array([[0.0, 0.0], [1.0, 1.0]]))  # zero row


# -- diagnose ----------------------------------------------------------------------

def test_diagnose_independent_sources():
    gen = Rng(3).generator()
    x = np.column_stack([SourceSpec("uniform").sample(gen, 100000),
                         SourceSpec("laplace").sample(gen, 100000)])
    report = diagnose(Dataset(x))
    assert abs(report.correlation) < 1e-3
    gu, gl = report.marginal_negentropies
    assert abs(gu - UNIFORM_NEGENT) < 0.02
    assert abs(gl - LAPLACE_NEGENT) < 0.02
    assert report.mi is not None and abs(report.mi.raw) < 0.02
    assert_allclose(report.objective_proxy,
                    report.correlation - gu - gl, rtol=0, atol=1e-15)


def test_diagnose_correlated_gaussian():
    gen = np.random.default_rng(8)
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    x = gen.multivariate_normal(np.zeros(2), cov, size=100000)
    report = diagnose(Dataset(x))
    assert abs(report.correlation - GAUSS_MI_RHO_HALF) < 0.01
    assert abs(report.mi.value - GAUSS_MI_RHO_HALF) < 0.02
    for g in report.marginal_negentropies:
        assert abs(g) < 0.02


def test_diagnose_skips_mi_beyond_three_channels():
    gen = np.random.default_rng(1)
    report = diagnose(Dataset(gen.standard_normal((5000, 4))))
    assert report.mi is None
    assert len(report.marginal_negentropies) == 4
    doc = report.to_json()
    assert "mi" not in doc and "identity_residual" not in doc


@pytest.mark.parametrize("columns", [2, 4])
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("seed", [True, -1, 1.5, 2 ** 64])
def test_diagnose_refuses_a_seed_rng_refuses(seed, tied, columns):
    # the seed is checked whether or not the mutual information reads it
    x = np.random.default_rng(23).standard_normal((1200, columns))
    with pytest.raises(InvalidConfig, match="seed"):
        diagnose(Dataset(np.round(x, 1) if tied else x), seed=seed)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 5)])
def test_diagnose_refuses_no_more_rows_than_channels(shape):
    # refused before any estimate; sample_covariance's own SingularCovariance
    # never reaches the caller
    x = np.random.default_rng(4).standard_normal(shape)
    with pytest.raises(TooFewSamples, match="more observations than channels"):
        diagnose(Dataset(x))


def test_diagnose_json_keys():
    gen = np.random.default_rng(5)
    report = diagnose(Dataset(gen.standard_normal((20000, 2))))
    doc = report.to_json()
    assert {"correlation", "marginal_negentropies", "objective_proxy",
            "mi", "mi_raw", "mi_method",
            "near_deterministic_dependence"} <= set(doc)
    assert len(doc["marginal_negentropies"]) == 2
    json.dumps(doc)


def test_diagnose_white_laplace_pair_and_rotation():
    gen = Rng(21).generator()
    lap = SourceSpec("laplace")
    s = np.column_stack([lap.sample(gen, 100000), lap.sample(gen, 100000)])
    before = diagnose(Dataset(s))
    sum_g = sum(before.marginal_negentropies)
    assert abs(before.correlation) < 0.005
    assert abs(sum_g - 2 * LAPLACE_NEGENT) < 0.04
    assert before.mi.value < 0.02
    # a 45-degree rotation moves non-Gaussianity into mutual information
    # but their sum is a linear invariant
    r = np.sqrt(0.5) * np.array([[1.0, -1.0], [1.0, 1.0]])
    after = diagnose(Dataset(s @ r.T))
    assert abs(after.correlation) < 0.005  # rotation preserves whiteness
    total_before = before.mi.value + sum_g
    total_after = after.mi.value + sum(after.marginal_negentropies)
    assert abs(total_after - total_before) < 0.04


def test_diagnose_permutation_equivariance():
    gen = Rng(33).generator()
    x = np.column_stack([SourceSpec("uniform").sample(gen, 20000),
                         SourceSpec("laplace").sample(gen, 20000)])
    fwd = diagnose(Dataset(x))
    rev = diagnose(Dataset(x[:, ::-1]))
    # equal up to factorization round-off in the log-determinant
    assert rev.correlation == pytest.approx(fwd.correlation, abs=1e-12)
    assert rev.marginal_negentropies == fwd.marginal_negentropies[::-1]
    # continuous draws have no ties, so no jitter: MI is exactly symmetric
    assert rev.mi.raw == pytest.approx(fwd.mi.raw, abs=1e-12)


@settings(max_examples=12)
@given(families=st.lists(st.sampled_from(["gaussian", "uniform", "laplace",
                                          "generalized-gaussian(4)",
                                          "cosh-reciprocal"]),
                         min_size=2, max_size=3),
       T=st.integers(1000, 5000), seed=st.integers(0, 2**64 - 1),
       data=st.data())
def test_diagnose_terms_under_permutation_and_scaling(families, T, seed, data):
    N = len(families)
    order = data.draw(st.permutations(range(N)))
    scales = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=N, max_size=N))
    gen = Rng(seed).generator()
    x = np.column_stack([parse_source(f).sample(gen, T) for f in families])
    base = diagnose(Dataset(x))
    negs = base.marginal_negentropies
    # the tolerances of test_diagnose_permutation_equivariance
    permuted = diagnose(Dataset(x[:, order]))
    assert permuted.correlation == pytest.approx(base.correlation, abs=1e-12)
    assert permuted.marginal_negentropies == tuple(negs[i] for i in order)
    assert permuted.mi.raw == pytest.approx(base.mi.raw, abs=1e-12)
    # positive channel scales over four decades; the kNN mutual information
    # of the max-norm is not scale-invariant, so it is not compared
    scaled = diagnose(Dataset(x * 10.0 ** np.array(scales)))
    assert scaled.correlation == pytest.approx(base.correlation, abs=1e-10)
    assert_allclose(scaled.marginal_negentropies, negs, rtol=0.0, atol=1e-10)


def test_diagnose_center_flag_removes_mean_effects():
    gen = np.random.default_rng(9)
    x = gen.standard_normal((50000, 2)) + np.array([5.0, -3.0])
    raw = diagnose(Dataset(x))
    centered = diagnose(Dataset(x - x.mean(axis=0)))
    # the uncentered second moment sees the means as strong correlation
    assert raw.correlation > 10 * max(centered.correlation, 1e-12)
    assert abs(centered.correlation) < 1e-3
