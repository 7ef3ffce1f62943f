"""Tests for the relative-gradient and orthogonal separation solvers."""
import functools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from icageo import (Dataset, DegenerateSample, Diverged, InvalidConfig,
                    MixingModel, Rng, SolverConfig, SourceSpec, TooFewSamples,
                    amari_index, correlation_C, diagnose, make_score,
                    orthogonal_ica, parse_source, random_mixing, relative_gradient_ica,
                    sample_covariance, score_table, simulate,
                    stationarity_matrix)
from icageo import algorithms
from icageo.algorithms import (COARSE_ANGLES, COARSE_ROWS, COARSE_SPAN,
                               NO_IMPROVEMENT_FLOOR, OUTER_CADENCE,
                               REOPEN_ANGLE, SCORE_NAMES, _angle_tol)
from icageo.gaussian import whitener


def mixed_pair(seed, T=20000, families=("laplace", "uniform")):
    specs = tuple(SourceSpec(f) for f in families)
    A = np.array([[1.0, 0.6], [-0.4, 1.0]])
    model = MixingModel(A, specs)
    X, _ = simulate(model, T, Rng(seed))
    return X, A


# -- score models ---------------------------------------------------------------

def test_make_score_families():
    assert set(SCORE_NAMES) == {"tanh", "cube", "identity", "adaptive"}
    s = np.linspace(-2, 2, 9)
    assert_allclose(make_score("tanh")(s)[0], np.tanh(s))
    assert_allclose(make_score("cube")(s)[0], s ** 3)
    assert_allclose(make_score("identity")(s)[0], s)
    for name in ("adaptive", "sigmoid"):  # adaptive is no fixed score
        with pytest.raises(InvalidConfig):
            make_score(name)


@pytest.mark.parametrize("name", ["tanh", "cube", "identity"])
def test_fixed_score_derivatives(name):
    model = make_score(name)
    s = np.linspace(-3.0, 3.0, 61)
    expected = {"tanh": 1.0 - np.tanh(s) ** 2, "cube": 3.0 * s * s,
                "identity": np.ones_like(s)}[name]
    assert_allclose(model(s)[1], expected, rtol=1e-15, atol=0)
    h = 1e-6
    fd = (model(s + h)[0] - model(s - h)[0]) / (2.0 * h)
    assert_allclose(model(s)[1], fd, rtol=0, atol=1e-7)


def test_solver_config_validation():
    with pytest.raises(InvalidConfig):
        SolverConfig(step=0.0)
    with pytest.raises(InvalidConfig):
        SolverConfig(step=1.5)
    with pytest.raises(InvalidConfig):
        SolverConfig(tol=0.0)
    with pytest.raises(InvalidConfig):
        SolverConfig(max_iter=0)
    for score in SCORE_NAMES:
        assert SolverConfig(score=score).score == score


@pytest.mark.parametrize("bad", [{"score": "sigmoid"}, {"score": "Tanh"},
                                 {"score": ["tanh", "cube"]},
                                 {"max_iter": 2.5}, {"max_iter": "10"},
                                 {"step": "0.5"}, {"tol": "1e-4"},
                                 {"max_iter": True}, {"step": True},
                                 {"tol": True}, {"tol": math.inf},
                                 {"tol": math.nan}])
def test_solver_config_refuses_bad_values_when_built(bad):
    # refused before either solver runs, not at solve time or never
    with pytest.raises(InvalidConfig):
        SolverConfig(**bad)


def test_stationarity_matrix_formula():
    gen = np.random.default_rng(0)
    Y = Dataset(gen.standard_normal((500, 2)))
    F = stationarity_matrix(Y, [make_score("tanh"), make_score("cube")])
    expect = np.column_stack([np.tanh(Y.samples[:, 0]),
                              Y.samples[:, 1] ** 3]).T @ Y.samples / 500
    assert_allclose(F, expect, rtol=0, atol=1e-14)
    with pytest.raises(InvalidConfig, match="one score per channel"):
        stationarity_matrix(Y, [make_score("tanh")])


@pytest.mark.parametrize("score,scale", [("cube", 1e120), ("tanh", 1e307)])
def test_stationarity_overflow_is_diverged_without_a_warning(score, scale):
    # cube overflows in the score itself, tanh in F's sum over the rows
    Y = Dataset(np.full((200, 2), scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged):
            stationarity_matrix(Y, [make_score(score)] * 2)


def test_output_power_overflow_is_diverged_without_a_warning():
    # tanh keeps F finite (sums of three terms of 1e307); E Y^2 overflows
    Y = Dataset([[1e307, -1e307], [1e307, 1e307], [-1e307, 1e307]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged):
            stationarity_matrix(Y, [make_score("tanh")] * 2)


@settings(max_examples=30)
@given(T=st.integers(1, 20000), N=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-100.0, 100.0))
def test_newton_terms_second_moments_are_the_mean_of_squares(T, N, seed,
                                                             log_scale):
    # v = E Y^2 equals np.mean(Y * Y, axis=0) bit for bit on the C-order
    # outputs Y = X B^T the solver builds; one column included
    gen = np.random.default_rng(seed)
    Y = gen.standard_normal((T, N)) * 10.0 ** (log_scale
                                               + gen.uniform(-3.0, 3.0, N))
    assert Y.flags.c_contiguous
    v = algorithms._newton_terms(Y, [make_score("tanh")] * N)[2]
    assert v.tobytes() == np.mean(Y * Y, axis=0).tobytes()


def test_stationarity_small_at_independence():
    # independent unit-variance channels: E{psi(Yi) Yj} = 0 off the diagonal
    gen = np.random.default_rng(3)
    Y = Dataset(np.column_stack([SourceSpec("laplace").sample(gen, 100000),
                                 SourceSpec("uniform").sample(gen, 100000)]))
    F = stationarity_matrix(Y, [make_score("tanh")] * 2)
    off = F - np.diag(np.diag(F))
    assert np.linalg.norm(off) < 3 * 2 / math.sqrt(100000)


# -- relative gradient solver ------------------------------------------------------

def test_relative_gradient_separates_mixed_pair():
    X, A = mixed_pair(1)
    result = relative_gradient_ica(X, SolverConfig(score="adaptive"))
    assert result.converged
    assert amari_index(result.demixing @ A) < 0.05
    assert result.trajectory[-1] < 1e-4
    assert result.iterations == len(result.trajectory)
    assert_allclose(result.recovered.samples, X.samples @ result.demixing.T,
                    rtol=0, atol=0)


def test_relative_gradient_fixed_scores():
    # matched fixed scores: tanh for the heavy-tailed pair
    specs = ("laplace", "laplace")
    X, A = mixed_pair(7, families=specs)
    result = relative_gradient_ica(X, SolverConfig(score="tanh"))
    assert result.converged
    assert amari_index(result.demixing @ A) < 0.05
    # matched cube score for the light-tailed pair
    X, A = mixed_pair(8, families=("uniform", "uniform"))
    result = relative_gradient_ica(X, SolverConfig(score="cube"))
    assert amari_index(result.demixing @ A) < 0.05


def test_relative_gradient_is_deterministic():
    X, _ = mixed_pair(4)
    for score in ("adaptive", "tanh"):
        cfg = SolverConfig(score=score)
        r1 = relative_gradient_ica(X, cfg)
        r2 = relative_gradient_ica(X, cfg)
        assert_array_equal(r1.demixing, r2.demixing)
        assert_array_equal(r1.trajectory, r2.trajectory)
        assert_array_equal(r1.report["stability_margins"],
                           r2.report["stability_margins"])


def reference_newton_direction(F, a, v, floor):
    """Pair by pair: clip the eigenvalues of the 2 x 2 Hessian block from
    below at floor, then solve it for the gradient pair."""
    n = F.shape[0]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            H = np.array([[a[i] * v[j], 1.0], [1.0, a[j] * v[i]]])
            lam, U = np.linalg.eigh(H)
            H = (U * np.maximum(lam, floor)) @ U.T
            D[i, j], D[j, i] = np.linalg.solve(H, [F[i, j], F[j, i]])
    return D


@pytest.mark.parametrize("case", range(6))
def test_newton_direction_matches_clipped_2x2_solves(case):
    gen = np.random.default_rng(case)
    n = 2 + case % 4
    F = gen.standard_normal((n, n))
    v = gen.uniform(0.5, 2.0, n)
    # well-conditioned blocks, blocks with one eigenvalue near or below the
    # floor, and blocks with negative curvature in both directions
    a = {0: gen.uniform(1.5, 4.0, n), 1: gen.uniform(0.3, 1.2, n),
         2: gen.uniform(-0.5, 0.5, n), 3: gen.uniform(-6.0, -3.0, n),
         4: np.full(n, 1.0), 5: gen.uniform(-3.0, 3.0, n)}[case]
    floor = algorithms.HESSIAN_EIGENVALUE_FLOOR
    D = algorithms._newton_direction(F, a, v)
    expected = reference_newton_direction(F, a, v, floor)
    assert_allclose(D, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())
    assert_array_equal(np.diag(D), np.zeros(n))


def test_newton_direction_is_the_plain_inverse_when_nothing_is_clipped():
    F = np.array([[0.7, 0.2], [-0.1, 1.3]])
    a, v = np.array([2.0, 3.0]), np.array([1.0, 1.5])
    p, q = a[0] * v[1], a[1] * v[0]
    d = np.linalg.solve([[p, 1.0], [1.0, q]], [F[0, 1], F[1, 0]])
    assert_allclose(algorithms._newton_direction(F, a, v),
                    [[0.0, d[0]], [d[1], 0.0]], rtol=1e-13, atol=0)


@pytest.mark.parametrize("score,families,unit_rows", [
    ("tanh", ("laplace", "laplace", "laplace"), []),
    ("cube", ("uniform", "laplace", "uniform"), [2]),
])
def test_relative_gradient_step_solves_the_exact_blocks(score, families,
                                                        unit_rows):
    # one iteration from the whitener W gives B1 = (I - D) W; each pair's
    # (D_ij, D_ji) solves [[a_i v_j, f_i], [f_j, a_j v_i]], where
    # f_i = F_ii = E psi_i(Y_i) Y_i, or 1 where the margin kappa_i <= 0
    A = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.1, 0.0, 1.0]])
    specs = tuple(SourceSpec(f) for f in families)
    X, _ = simulate(MixingModel(A, specs), 20000, Rng(3))
    W = whitener(sample_covariance(X))
    B1 = relative_gradient_ica(X, SolverConfig(score=score, max_iter=1)).demixing
    D = np.eye(3) - B1 @ np.linalg.inv(W)
    model = make_score(score)
    Y = X.samples @ W.T
    F = stationarity_matrix(Dataset(Y), [model] * 3)
    a = model(Y)[1].mean(axis=0)
    v = (Y * Y).mean(axis=0)
    kappa = a * v - np.diag(F)
    assert list(np.flatnonzero(kappa <= 0.0)) == unit_rows
    f = np.where(kappa > 0.0, np.diag(F), 1.0)
    floor = algorithms.HESSIAN_EIGENVALUE_FLOOR
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        # nothing is clipped: the block with rows divided by f is definite
        scaled = [[a[i] * v[j] / f[i], 1.0], [1.0, a[j] * v[i] / f[j]]]
        assert np.linalg.eigvalsh(scaled).min() > 2 * floor
        step = [D[i, j], D[j, i]]
        exact = np.linalg.solve([[a[i] * v[j], f[i]], [f[j], a[j] * v[i]]],
                                [F[i, j], F[j, i]])
        assert_allclose(step, exact, rtol=1e-10, atol=1e-12)
        if {i, j} & set(unit_rows):
            raw = np.linalg.solve([[a[i] * v[j], F[i, i]],
                                   [F[j, j], a[j] * v[i]]],
                                  [F[i, j], F[j, i]])
            assert not np.allclose(step, raw, rtol=1e-3)


@pytest.mark.parametrize("score,families", [
    ("tanh", ("laplace", "laplace")),
    ("adaptive", ("laplace", "uniform")),
    ("cube", ("uniform", "uniform")),
])
def test_relative_gradient_newton_iteration_budget(score, families):
    # the exact 2 x 2 blocks converge in a handful of Newton steps where
    # unit off-diagonal blocks took 14-20 and the plain relative gradient
    # at step 0.1 hundreds
    for seed in (21, 22, 23):
        X, A = mixed_pair(seed, families=families)
        result = relative_gradient_ica(X, SolverConfig(score=score))
        assert result.converged
        assert result.iterations <= 10
        assert amari_index(result.demixing @ A) < 0.05


def test_stability_margins_are_computed_on_the_outputs():
    X, _ = mixed_pair(24, families=("laplace", "uniform"))
    for score in ("tanh", "cube"):
        # max_iter = 3 stops early: the margins still describe the outputs
        for max_iter in (3, 2000):
            result = relative_gradient_ica(
                X, SolverConfig(score=score, max_iter=max_iter))
            assert result.converged is (max_iter == 2000)
            Y = result.recovered.samples
            model = make_score(score)
            F = stationarity_matrix(result.recovered, [model] * 2)
            expected = (model(Y)[1].mean(axis=0)
                        * (Y * Y).mean(axis=0) - np.diag(F))
            assert_allclose(result.report["stability_margins"], expected,
                            rtol=1e-12, atol=1e-14)


def test_adaptive_tables_are_refit_once_where_the_rule_is_first_met(
        monkeypatch):
    # tables fitted at the whitened start meet the stopping rule a few
    # iterations later; the solver refits them once on those outputs and
    # checks the rule again before it stops
    fits = []

    def recording_table(y):
        fits.append(y.copy())
        return score_table(y)

    monkeypatch.setattr(algorithms, "score_table", recording_table)
    for seed in (20, 21, 24):
        fits.clear()
        X, _ = mixed_pair(seed)
        result = relative_gradient_ica(X, SolverConfig(score="adaptive"))
        assert result.converged
        assert result.iterations < algorithms.OUTER_CADENCE
        assert len(fits) == 4  # two channels, fitted at the start and once more
        Y = Dataset(np.column_stack(fits[2:]))

        def off_norm(tables):
            F = stationarity_matrix(Y, tables)
            return np.linalg.norm(F - np.diag(np.diag(F)))

        assert off_norm([score_table(y) for y in fits[:2]]) < 1e-4
        assert off_norm([score_table(y) for y in fits[2:]]) in result.trajectory


def acceptance_mixture(trial, families):
    """The acceptance suite's seeded mixing problem (T = 20000)."""
    rng = Rng(61000 + trial)
    specs = tuple(parse_source(f) for f in families)
    cond = 1.0 + 9.0 * float(rng.child(0).generator().uniform())
    A = random_mixing(len(specs), rng.child(1), cond)
    return simulate(MixingModel(A, specs), 20000, rng.child(2))[0]


@pytest.mark.parametrize("score,families,base,stable", [
    ("adaptive", ("laplace", "laplace", "uniform", "uniform"), 0, True),
    ("tanh", ("laplace",) * 4, 100, True),
    ("cube", ("uniform",) * 4, 200, True),
    ("tanh", ("uniform",) * 4, 200, False),
])
def test_stability_margins_flag_mismatched_scores(score, families, base,
                                                  stable):
    # tanh on uniform sources converges to a saddle of the likelihood: the
    # stopping rule is met, but some margin is negative
    for trial in range(3):
        X = acceptance_mixture(base + trial, families)
        result = relative_gradient_ica(X, SolverConfig(score=score))
        margins = result.report["stability_margins"]
        assert result.converged
        assert margins.shape == (len(families),)
        assert bool((margins > 0.0).all()) is stable


@pytest.mark.parametrize("score,fitted_at,iterations", [
    ("adaptive", [0] * 4 + [10] * 4 + [12] * 4, 14),
    ("tanh", [], 34),
    ("cube", [], 213),
])
def test_score_schedule_across_cadences(monkeypatch, score, fitted_at,
                                        iterations):
    # gate 6's trial 0: adaptive tables are fitted on the outputs of every
    # OUTER_CADENCE iteration and refit once where the stopping rule is
    # first met; a fixed score never fits a table.  outputs holds weak
    # references, so a long run keeps only the arrays that were fitted
    outputs, fits = [], []

    def recording_terms(Y, scores):
        if not outputs or outputs[-1]() is not Y:
            outputs.append(weakref.ref(Y))
        return newton_terms(Y, scores)

    def recording_table(y):
        fits.append(y.base)
        return score_table(y)

    newton_terms = algorithms._newton_terms
    monkeypatch.setattr(algorithms, "_newton_terms", recording_terms)
    monkeypatch.setattr(algorithms, "score_table", recording_table)
    X = acceptance_mixture(0, ("laplace", "laplace", "uniform", "uniform"))
    result = relative_gradient_ica(X, SolverConfig(score=score))
    assert result.converged
    assert result.iterations == len(outputs) == iterations
    # each fit reads a column of the outputs of one iteration
    assert [next(k for k, ref in enumerate(outputs) if ref() is base)
            for base in fits] == fitted_at


def test_relative_gradient_objective_decreases_overall():
    X, _ = mixed_pair(5)
    result = relative_gradient_ica(X, SolverConfig(score="tanh"))
    vals = [algorithms._objective_value(X.samples @ B.T)
            for B in (np.eye(2), result.demixing)]
    assert vals[-1] < vals[0]  # less dependent than the raw mixture


def test_relative_gradient_divergence_guard():
    gen = np.random.default_rng(2)
    x = gen.standard_normal((5000, 2))
    x[0, :] = 5e4  # one catastrophic outlier, cubed twice over
    with pytest.raises(Diverged):
        relative_gradient_ica(Dataset(x), SolverConfig(score="cube", step=1.0))


def test_step_halving_keeps_a_mismatched_cube_score_bounded():
    # cube on laplace sources overshoots at the full Newton step; halving mu
    # when the objective proxy rises lets the run stop, at a point that
    # reads unstable, where a constant step oscillates until it diverges
    rng = Rng(1)
    A = random_mixing(3, rng.child(0), 5.0)
    X, _ = simulate(MixingModel(A, (SourceSpec("laplace"),) * 3), 20000,
                    rng.child(1))
    result = relative_gradient_ica(X, SolverConfig(score="cube"))
    assert result.converged
    assert result.report["stable"] is False


def test_objective_proxy_is_evaluated_only_where_it_is_compared(monkeypatch):
    # iteration 0's proxy is taken at the first comparison, at iteration
    # OUTER_CADENCE, from the outputs of the demixing it started from
    proxy = algorithms._objective_value
    evaluated = []

    def counted(Y):
        evaluated.append(Y.copy())
        return proxy(Y)

    monkeypatch.setattr(algorithms, "_objective_value", counted)
    X, _ = mixed_pair(1)
    assert relative_gradient_ica(X, SolverConfig()).iterations <= OUTER_CADENCE
    assert evaluated == []
    rng = Rng(1)
    A = random_mixing(3, rng.child(0), 5.0)
    X, _ = simulate(MixingModel(A, (SourceSpec("laplace"),) * 3), 20000,
                    rng.child(1))
    result = relative_gradient_ica(X, SolverConfig(score="cube"))
    comparisons = (result.iterations - 1) // OUTER_CADENCE
    assert comparisons >= 2 and len(evaluated) == comparisons + 1
    start = whitener(sample_covariance(X))
    assert_array_equal(evaluated[0], X.samples @ start.T)


def test_relative_gradient_needs_enough_rows():
    with pytest.raises(TooFewSamples):
        relative_gradient_ica(Dataset(np.random.default_rng(0)
                                      .standard_normal((15, 2))),
                              SolverConfig(score="tanh"))
    # so does the orthogonal search, up to T = 10 N
    with pytest.raises(TooFewSamples):
        orthogonal_ica(Dataset(np.random.default_rng(0)
                               .standard_normal((20, 2))), SolverConfig())


def test_relative_gradient_adaptive_needs_1000_rows():
    # T = 500 passes the T > 10 N check but is too short for a score table;
    # the solver says so before its first iteration
    X = Dataset(np.random.default_rng(0).laplace(size=(500, 2)))
    with pytest.raises(TooFewSamples, match="adaptive score needs T >= 1000"):
        relative_gradient_ica(X, SolverConfig(score="adaptive"))
    assert relative_gradient_ica(X, SolverConfig(score="tanh")).iterations > 0


# -- orthogonal solver ----------------------------------------------------------------

def test_orthogonal_separates_and_decorrelates():
    X, A = mixed_pair(11)
    result = orthogonal_ica(X, SolverConfig())
    assert result.converged
    assert amari_index(result.demixing @ A) < 0.05
    # whitening plus rotation leaves exactly decorrelated outputs
    assert correlation_C(sample_covariance(result.recovered)) < 1e-10
    assert not result.report["no_improvement"]


def test_orthogonal_demixing_is_rotation_times_whitener():
    X, _ = mixed_pair(12)
    result = orthogonal_ica(X, SolverConfig())
    W = sample_covariance(X).matrix
    # B Sigma B^T = I: the demixing whitens the data exactly
    assert_allclose(result.demixing @ W @ result.demixing.T, np.eye(2),
                    atol=1e-12)


def test_orthogonal_flags_gaussian_data():
    gen = np.random.default_rng(30)
    X = Dataset(gen.standard_normal((20000, 2)) @
                np.array([[1.0, 0.4], [0.0, 0.9]]).T)
    result = orthogonal_ica(X, SolverConfig())
    assert result.report["no_improvement"]
    assert result.converged  # settled, just with nothing gained


def test_orthogonal_is_deterministic():
    X, _ = mixed_pair(13)
    r1 = orthogonal_ica(X, SolverConfig())
    r2 = orthogonal_ica(X, SolverConfig())
    assert_array_equal(r1.demixing, r2.demixing)


def reference_orthogonal_ica(data, config):
    """The Jacobi sweep as first written, searching every pair in every
    sweep: (demixing, trajectory, iterations, no_improvement)."""
    X = data.samples
    n = data.N
    W = whitener(sample_covariance(data))
    Y = X @ W.T
    U = np.eye(n)
    sweep_gains = []
    best_gain_ever = 0.0
    for _ in range(algorithms.MAX_SWEEPS):
        sweep_best = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                yi = Y[:, i].copy()
                yj = Y[:, j].copy()
                theta, improvement = algorithms._search_pair(yi, yj)
                best_gain_ever = max(best_gain_ever, improvement)
                if improvement > config.tol:
                    sweep_best = max(sweep_best, improvement)
                    c, s = math.cos(theta), math.sin(theta)
                    Y[:, i] = c * yi - s * yj
                    Y[:, j] = s * yi + c * yj
                    rot = np.eye(n)
                    rot[i, i] = rot[j, j] = c
                    rot[i, j] = -s
                    rot[j, i] = s
                    U = rot @ U
        sweep_gains.append(sweep_best)
        if sweep_best <= config.tol:
            break
    return (U @ W, np.asarray(sweep_gains), len(sweep_gains),
            best_gain_ever < NO_IMPROVEMENT_FLOOR)


def mixed(families, T, seed):
    n = len(families)
    model = MixingModel(random_mixing(n, Rng(seed).child(1000), 3.0),
                        tuple(parse_source(f) for f in families))
    return simulate(model, T, Rng(seed))[0]


@pytest.mark.parametrize("families", [
    ("laplace", "uniform"),
    ("uniform", "laplace", "uniform"),
    ("laplace", "uniform", "cosh-reciprocal", "generalized-gaussian(4)"),
    ("gaussian", "gaussian", "laplace", "uniform"),
])
def test_orthogonal_equals_reference_with_fewer_searches(monkeypatch,
                                                         families):
    X = mixed(families, 5000, len(families))
    calls = []

    def counted(v, var=None, float32=False):
        calls.append(v.size)
        return negentropy(v, var=var, float32=float32)

    negentropy = algorithms._negentropy_raw
    monkeypatch.setattr(algorithms, "_negentropy_raw", counted)
    # the reference reopens every pair after any rotation, however small
    monkeypatch.setattr(algorithms, "REOPEN_ANGLE", 0.0)
    config = SolverConfig()
    result = orthogonal_ica(X, config)
    fast_calls = len(calls)
    B, trajectory, iterations, no_improvement = reference_orthogonal_ica(
        X, config)
    assert_array_equal(result.demixing, B)
    assert_array_equal(result.trajectory, trajectory)
    assert result.iterations == iterations
    assert result.report["no_improvement"] == no_improvement
    assert result.converged
    if len(families) == 4:
        # the final sweep re-searches no pair whose columns are unchanged
        assert fast_calls < len(calls) - fast_calls


def test_orthogonal_search_holds_few_full_size_arrays():
    # at once: the rotated outputs, the pair gain's four column buffers
    # (one full-size array at N = 4) and its sort keys.  The pair's
    # columns are searched as views, and the recovered matrix is built
    # after the rotated outputs are released.
    X = mixed(("laplace", "uniform", "laplace", "uniform"), 100_000, 3)
    orthogonal_ica(X, SolverConfig(max_iter=1))
    tracemalloc.start()
    try:
        orthogonal_ica(X, SolverConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * X.samples.nbytes


# the fixed angle resolution, radians, of the pair search before it
# scaled with the rows: the golden-section reference searches to it, and
# Brent's method is checked at it
FIXED_ANGLE_TOL = 1e-4

FOUR_CHANNEL_FAMILIES = [
    ("laplace", "uniform", "cosh-reciprocal", "generalized-gaussian(4)"),
    ("gaussian", "gaussian", "laplace", "uniform"),
]


def golden_section(f, lo, hi, tol):
    """The golden-section refinement the pair search used before Brent's
    method: maximize f on [lo, hi]; returns (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def golden_pair_search(yi, yj):
    """The pair search before Brent's method: np.var variances, all 16
    coarse angles, then golden section; returns (angle, gain)."""
    negentropy = algorithms._negentropy_raw
    base = negentropy(yi) + negentropy(yj)

    def gain(theta):
        c, s = math.cos(theta), math.sin(theta)
        return (negentropy(c * yi - s * yj)
                + negentropy(s * yi + c * yj) - base)

    values = [gain(t) for t in COARSE_ANGLES]
    k = int(np.argmax(values))
    return golden_section(gain, COARSE_ANGLES[k] - COARSE_SPAN,
                          COARSE_ANGLES[k] + COARSE_SPAN, FIXED_ANGLE_TOL)


def reference_pair_gain(yi, yj, float32):
    """The pair gain written out, with the variances from the centred
    pair's 2 x 2 moments: with float32, every negentropy on float32 keys of
    the centred columns, as _pair_gain takes them; without, on the float64
    columns as given."""
    negentropy = functools.partial(algorithms._negentropy_raw, float32=float32)
    T = yi.size
    xi, xj = yi - yi.mean(), yj - yj.mean()
    sii, sij, sjj = xi @ xi / T, xi @ xj / T, xj @ xj / T
    if float32:
        yi, yj = xi, xj
    base = negentropy(yi, var=sii) + negentropy(yj, var=sjj)

    def gain(theta):
        c, s = math.cos(theta), math.sin(theta)
        cross = 2.0 * c * s * sij
        return (negentropy(c * yi - s * yj,
                           var=c * c * sii + s * s * sjj - cross)
                + negentropy(s * yi + c * yj,
                             var=s * s * sii + c * c * sjj + cross)
                - base)

    return gain


def full_pair_search(yi, yj):
    """The pair search before the subsampled coarse scan, whose result
    every pair of at most COARSE_ROWS rows still gets: the 15 nonzero
    coarse angles of the gain on the full pair, then Brent's method to the
    solver's angle resolution at the pair's rows; returns (angle, gain)."""
    gain = reference_pair_gain(yi, yj, float32=True)
    values = [gain(t) if t else 0.0 for t in COARSE_ANGLES]
    k = int(np.argmax(values))
    peak = COARSE_ANGLES[k]
    return algorithms._brent_max(gain, peak, values[k], peak - COARSE_SPAN,
                                 peak + COARSE_SPAN, _angle_tol(yi.size))


def recorded_pair_searches(X, monkeypatch):
    """Every (yi, yj, angle, gain) the orthogonal solver searched on X, and
    the size of every vector it passed to _negentropy_raw."""
    search, negentropy = algorithms._search_pair, algorithms._negentropy_raw
    searches, calls = [], []

    def recorded(yi, yj):
        out = search(yi, yj)
        searches.append((yi.copy(), yj.copy(), *out))
        return out

    def counted(v, var=None, float32=False):
        calls.append(v.size)
        return negentropy(v, var=var, float32=float32)

    monkeypatch.setattr(algorithms, "_search_pair", recorded)
    monkeypatch.setattr(algorithms, "_negentropy_raw", counted)
    orthogonal_ica(X, SolverConfig())
    monkeypatch.undo()
    return searches, calls


SHAPES = {
    "cosine": lambda a, b: lambda t: a * math.cos(4.0 * t) + b,
    "quartic": lambda a, b: lambda t: b - a * t * t - t ** 4,
    "skewed": lambda a, b: lambda t: b - a * t * t + 0.3 * a * t ** 3,
}


@settings(max_examples=150)
@given(shape=st.sampled_from(sorted(SHAPES)), a=st.floats(0.01, 10.0),
       b=st.floats(-1.0, 1.0), k=st.integers(0, 15),
       offset=st.floats(-1.0, 1.0))
def test_brent_locates_the_peak_of_smooth_objectives(shape, a, b, k, offset):
    # a unimodal objective peaking at theta* inside the bracket around the
    # coarse angle k: Brent's method finds theta* to FIXED_ANGLE_TOL
    peak = COARSE_ANGLES[k]
    star = peak + offset * COARSE_SPAN
    f0 = SHAPES[shape](a, b)
    evaluated = []

    def f(t):
        evaluated.append(t)
        return f0(t - star)

    theta, value = algorithms._brent_max(f, peak, f(peak), peak - COARSE_SPAN,
                                         peak + COARSE_SPAN, FIXED_ANGLE_TOL)
    assert abs(theta - star) <= FIXED_ANGLE_TOL
    assert value == f0(theta - star) and value >= f0(peak - star)
    assert all(abs(t - peak) <= COARSE_SPAN for t in evaluated)


@settings(max_examples=12)
@given(families=st.sampled_from([("laplace", "uniform"),
                                 ("uniform", "laplace", "uniform"),
                                 *FOUR_CHANNEL_FAMILIES]),
       seed=st.integers(0, 2 ** 16))
def test_pair_search_gains_at_least_the_golden_section(families, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        searches, _ = recorded_pair_searches(mixed(families, 5000, seed),
                                             monkeypatch)
    for yi, yj, theta, gain in searches:
        assert abs(theta) <= 0.25 * math.pi + COARSE_SPAN
        assert gain >= golden_pair_search(yi, yj)[1] - 1e-3


def test_pair_search_variances_are_the_columns_variances(monkeypatch):
    # the solver passes white pairs, where any mix of S_ii, S_jj and S_ij
    # reads close to 1; an unequal, correlated pair tells them apart.  Past
    # COARSE_ROWS the coarse scan reads every stride-th row (4097 of 8193,
    # 6667 of 2e4), with the subsample's own moments
    coarse = 2 + 2 * 15
    for T, stride in ((4000, 1), (COARSE_ROWS + 1, 2), (20000, 3)):
        gen = np.random.default_rng(5)
        yi = 3.0 * gen.laplace(size=T) + 1.0
        yj = 0.5 * gen.uniform(-1.0, 1.0, T) - 0.8 * yi
        negentropy = algorithms._negentropy_raw
        sizes = []

        def checked(v, var=None, float32=False):
            sizes.append(v.size)
            assert var == pytest.approx(np.var(v), rel=1e-12)
            return negentropy(v, var=var, float32=float32)

        monkeypatch.setattr(algorithms, "_negentropy_raw", checked)
        theta, gain = algorithms._search_pair(yi, yj)
        monkeypatch.undo()
        assert len(sizes) > coarse + 2
        assert sizes[:coarse] == [-(-T // stride)] * coarse
        assert sizes[coarse:] == [T] * (len(sizes) - coarse)
        # the returned gain is the full pair's, and Brent starts from the
        # full pair's gain at the subsample's coarse peak
        full = algorithms._pair_gain(yi, yj)
        assert gain == full(theta)
        values = [algorithms._pair_gain(yi[::stride], yj[::stride])(t)
                  if t else 0.0 for t in COARSE_ANGLES]
        peak = COARSE_ANGLES[int(np.argmax(values))]
        assert gain >= (full(peak) if peak else 0.0)


@pytest.mark.parametrize("families", FOUR_CHANNEL_FAMILIES)
def test_pair_search_negentropy_budget(monkeypatch, families):
    # the golden-section search took 70 calls a pair: 2 for the base, 32
    # for 16 coarse angles, 36 for 18 golden steps
    searches, calls = recorded_pair_searches(mixed(families, 5000, 4),
                                             monkeypatch)
    assert len(calls) <= 56 * len(searches)


# samples sorted per pair search on workload_mixture(4) before the coarse
# scan was subsampled: 54,000,000 over 21 searches in 4 sweeps
FULL_SCAN_SORTED_PER_SEARCH = 54_000_000 / 21


def workload_mixture(seed):
    # the benchmark's orthogonal workload: laplace, laplace, uniform,
    # uniform through its fixed mixing matrix (bench/workloads.py MIXING_4)
    A = np.array([
        [1.0991540090327434, -0.3499614256195433, 1.5051000313415315,
         0.32451079023799345],
        [-0.4650817747469242, 0.875117771521695, 0.4069976962521078,
         -0.23081317457406178],
        [-0.17615413091485047, 0.16662492311128052, 1.054811998564043,
         0.46279586975504716],
        [0.5965857859214981, 0.6541650047308593, 0.4744940126452421,
         0.4448438499314925],
    ])
    specs = tuple(parse_source(f)
                  for f in ("laplace", "laplace", "uniform", "uniform"))
    return simulate(MixingModel(A, specs), 50000, Rng(seed))[0]


def test_pair_search_sort_budget_at_workload_size(monkeypatch):
    # the subsampled coarse scan read 0.55 of the full scan's samples;
    # Brent stopping at the angle's resolution at 5e4 rows reads about 0.43
    searches, calls = recorded_pair_searches(workload_mixture(4),
                                             monkeypatch)
    assert sum(calls) <= 0.5 * FULL_SCAN_SORTED_PER_SEARCH * len(searches)


def test_angle_tol_stays_inside_the_coarse_bracket():
    # a solve takes T > 10 N rows and N >= 2, so at least 21; the
    # resolution only shrinks from there, so Brent always has a bracket of
    # more than two resolutions on each side of the coarse peak to refine
    rows = [21, 22, 100, 5000, COARSE_ROWS, 20_000, 50_000, 10 ** 6, 10 ** 9]
    tols = [_angle_tol(T) for T in rows]
    assert all(t < 0.5 * COARSE_SPAN for t in tols)
    assert tols == sorted(tols, reverse=True)
    assert _angle_tol(50_000) == pytest.approx(8.94e-4, rel=1e-3)
    assert _angle_tol(10 ** 6) == pytest.approx(2e-4, rel=1e-12)


@pytest.mark.parametrize("families", [("laplace", "uniform"),
                                      *FOUR_CHANNEL_FAMILIES])
def test_pair_search_up_to_coarse_rows_is_the_full_pair_search(
        monkeypatch, families):
    for T in (5000, COARSE_ROWS):
        searches, _ = recorded_pair_searches(mixed(families, T, 6),
                                             monkeypatch)
        for yi, yj, theta, gain in searches:
            assert (theta, gain) == full_pair_search(yi, yj)


def test_orthogonal_separates_when_the_subsample_is_constant():
    # every third row is zero, so the stride-3 coarse subsample of each
    # white pair is constant: the coarse scan falls back to the full pair
    X, A = mixed_pair(11)
    samples = X.samples.copy()
    samples[::3] = 0.0
    result = orthogonal_ica(Dataset(samples), SolverConfig())
    assert result.converged
    assert amari_index(result.demixing @ A) < 0.05


def test_search_of_a_constant_subsample_is_the_full_scan(monkeypatch):
    # two sources that are both zero on every third row, rotated by 0.3:
    # at 2e4 rows the stride-3 subsample of the first column has a zero
    # variance, so the coarse scan reads the full pair, exactly as it does
    # at stride 1, and the search undoes the rotation
    T = 20000
    gen = np.random.default_rng(12)
    s = np.column_stack([gen.laplace(size=T) / math.sqrt(2.0),
                         gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), T)])
    s[::3] = 0.0
    c, sn = math.cos(0.3), math.sin(0.3)
    yi, yj = c * s[:, 0] - sn * s[:, 1], sn * s[:, 0] + c * s[:, 1]
    stride = -(-T // COARSE_ROWS)
    assert stride == 3
    with pytest.raises(DegenerateSample):
        algorithms._pair_gain(yi[::stride], yj[::stride])
    theta, gain = algorithms._search_pair(yi, yj)
    assert theta == pytest.approx(-0.3, abs=0.01)
    assert gain > NO_IMPROVEMENT_FLOOR
    monkeypatch.setattr(algorithms, "COARSE_ROWS", T + 1)
    assert algorithms._search_pair(yi, yj) == (theta, gain)


@settings(max_examples=20)
@given(families=st.sampled_from([("laplace", "uniform"),
                                 ("uniform", "uniform"),
                                 ("laplace", "generalized-gaussian(4)"),
                                 ("cosh-reciprocal", "gaussian")]),
       T=st.integers(1000, 3 * COARSE_ROWS), seed=st.integers(0, 2 ** 16),
       theta=st.floats(-0.25 * math.pi - COARSE_SPAN,
                       0.25 * math.pi + COARSE_SPAN))
def test_float32_keys_give_the_float64_pair_gain(families, T, seed, theta):
    X = mixed(families, T, seed).samples
    yi, yj = X[:, 0], X[:, 1]
    gain = algorithms._pair_gain(yi, yj)(theta)
    exact = reference_pair_gain(yi, yj, float32=False)(theta)
    assert gain == pytest.approx(exact, abs=1e-7)


def test_float32_keys_of_an_offset_pair_give_the_float64_gain():
    # float32 resolution at 1e4 is about 1e-3, coarser than the m-spacings
    # of a unit pair; the gain centres the pair before taking its keys
    X = mixed(("laplace", "uniform"), 20000, 3).samples
    X = X / X.std(axis=0) + 1e4
    yi, yj = X[:, 0], X[:, 1]
    gain = algorithms._pair_gain(yi, yj)
    exact = reference_pair_gain(yi, yj, float32=False)
    for theta in (-0.7, -0.01, 5e-4, 0.3):
        assert gain(theta) == pytest.approx(exact(theta), abs=1e-7)


@pytest.mark.parametrize("theta,reopens", [
    (REOPEN_ANGLE, True), (-REOPEN_ANGLE, True), (0.5, True),
    (math.nextafter(REOPEN_ANGLE, 0.0), False), (-0.5 * REOPEN_ANGLE, False),
])
def test_only_a_rotation_of_at_least_reopen_angle_reopens_pairs(
        monkeypatch, theta, reopens):
    # sweep 1 rejects (0, 1) and (0, 2), then rotates (1, 2) by theta;
    # sweep 2 searches (1, 2) again, and (0, 1) and (0, 2) only if the
    # rotation reopened them; it finds nothing, so the run stops
    searches = []

    def search(yi, yj):
        searches.append(len(searches))
        return (theta, 1.0) if len(searches) == 3 else (0.0, 0.0)

    monkeypatch.setattr(algorithms, "_search_pair", search)
    X = mixed(("laplace", "uniform", "laplace"), 2000, 1)
    result = orthogonal_ica(X, SolverConfig())
    assert result.converged and result.iterations == 2
    assert len(searches) == (6 if reopens else 4)


def test_objective_proxy_is_deterministic_and_ordered():
    X, A = mixed_pair(14, T=5000)
    truth = np.linalg.inv(A)
    vals = [algorithms._objective_value(X.samples @ B.T)
            for B in (np.eye(2), truth)]
    again = [algorithms._objective_value(X.samples @ B.T)
             for B in (np.eye(2), truth)]
    assert vals == again
    assert all(math.isfinite(v) for v in vals)
    assert vals[1] < vals[0]  # the true demixing scores lower than no demixing


@pytest.mark.parametrize("n", [2, 3, 4])
def test_objective_proxy_has_one_value(n):
    # the solver's monitor and diagnose report one number
    families = ("laplace", "uniform", "generalized-gaussian(4)", "laplace")
    rng = Rng(40 + n)
    A = random_mixing(n, rng.child(0), 5.0)
    X, _ = simulate(MixingModel(A, tuple(parse_source(f)
                                         for f in families[:n])),
                    5000, rng.child(1))
    B = np.eye(n) + 0.3 * np.random.default_rng(n).standard_normal((n, n))
    Y = X.samples @ B.T
    value = algorithms._objective_value(Y)
    assert math.isfinite(value)
    assert diagnose(Dataset(Y))["objective_proxy"] == value


def test_objective_proxy_of_singular_outputs_is_inf():
    x = np.random.default_rng(3).laplace(size=(2000, 1))
    assert algorithms._objective_value(np.hstack([x, 2.0 * x])) == math.inf
    X, _ = mixed_pair(3, T=2000)
    B = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert algorithms._objective_value(X.samples @ B.T) == math.inf
