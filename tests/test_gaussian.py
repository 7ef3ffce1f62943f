"""Tests for Gaussian divergences, correlation, and whitening."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from icageo import (Covariance, Dataset, DimensionMismatch,
                    SingularCovariance, correlation_C, gaussian_kld,
                    sample_covariance, verify_gaussian_pythagoras, whitener)

# closed forms: KLD(N(S)||N(I)) for 2x2 with unit diagonal and rho=.5,
# and the 1-D variance-2 vs variance-1 case
KLD_RHO_HALF = 0.14384103622589045
KLD_VAR2_VAR1 = 0.15342640972002736


def spd(seed, n):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


# -- covariance type -----------------------------------------------------------

def test_covariance_accepts_spd_and_rejects_defects():
    c = Covariance(spd(0, 3))
    assert c.matrix.shape == (3, 3)
    with pytest.raises(SingularCovariance):
        Covariance(np.array([[1.0, 1.0], [1.0, 1.0]]))  # rank 1
    with pytest.raises(SingularCovariance):
        Covariance(np.array([[1.0, 0.3], [0.1, 1.0]]))  # asymmetric
    with pytest.raises(SingularCovariance):
        Covariance(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        Covariance(np.ones((2, 3)))


def test_sample_covariance_is_uncentered_second_moment():
    gen = np.random.default_rng(1)
    x = gen.standard_normal((500, 2)) + 3.0  # deliberate offset
    data = Dataset(x)
    cov = sample_covariance(data)
    assert_allclose(cov.matrix, x.T @ x / 500, rtol=0, atol=1e-12)
    xc = x - x.mean(axis=0)
    centered = sample_covariance(Dataset(xc))
    assert_allclose(centered.matrix, xc.T @ xc / 500, rtol=0, atol=1e-12)


def test_sample_covariance_edge_cases():
    with pytest.raises(SingularCovariance):
        sample_covariance(Dataset(np.random.default_rng(0)
                                  .standard_normal((3, 3))))  # T <= N
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(SingularCovariance):
        sample_covariance(Dataset(rows))  # rank 1
    single = sample_covariance(Dataset(np.array([[1.0], [-1.0]])))
    assert_allclose(single.matrix, [[1.0]], rtol=0, atol=0)
    big = np.random.default_rng(5).standard_normal((100000, 2))
    cov = sample_covariance(Dataset(big))
    assert np.linalg.norm(cov.matrix - np.eye(2)) < 0.05


# -- divergences ----------------------------------------------------------------

def test_gaussian_kld_closed_forms():
    rho = Covariance(np.array([[1.0, 0.5], [0.5, 1.0]]))
    eye = Covariance(np.eye(2))
    assert_allclose(gaussian_kld(rho, eye), KLD_RHO_HALF, rtol=0, atol=1e-14)
    v2 = Covariance(np.array([[2.0]]))
    v1 = Covariance(np.array([[1.0]]))
    assert_allclose(gaussian_kld(v2, v1), KLD_VAR2_VAR1, rtol=0, atol=1e-14)


def test_gaussian_kld_properties():
    gen = np.random.default_rng(4)
    for seed in range(20):
        p = Covariance(spd(seed, 3))
        q = Covariance(spd(seed + 100, 3))
        assert gaussian_kld(p, p) == pytest.approx(0.0, abs=1e-12)
        assert gaussian_kld(p, q) > 0
    # asymmetric in general
    p = Covariance(np.diag([1.0, 4.0]))
    q = Covariance(np.eye(2))
    assert abs(gaussian_kld(p, q) - gaussian_kld(q, p)) > 1e-3
    with pytest.raises(DimensionMismatch):
        gaussian_kld(Covariance(np.eye(2)), Covariance(np.eye(3)))


def test_kld_invariance_under_joint_linear_map():
    # KLD(N(ASA') || N(AQA')) == KLD(N(S) || N(Q)) for invertible A
    gen = np.random.default_rng(8)
    for _ in range(20):
        S = spd(gen.integers(1 << 30), 3)
        Q = spd(gen.integers(1 << 30), 3)
        A = gen.standard_normal((3, 3)) + 3 * np.eye(3)
        lhs = gaussian_kld(Covariance(A @ S @ A.T), Covariance(A @ Q @ A.T))
        rhs = gaussian_kld(Covariance(S), Covariance(Q))
        assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-10)


# -- correlation ------------------------------------------------------------------

def test_correlation_zero_iff_diagonal():
    assert correlation_C(Covariance(np.diag([2.0, 0.5, 1.0]))) == pytest.approx(0.0, abs=1e-15)
    c = correlation_C(Covariance(np.array([[1.0, 0.5], [0.5, 1.0]])))
    assert_allclose(c, KLD_RHO_HALF, rtol=0, atol=1e-14)  # equals the KLD to N(I) here
    assert c > 0


def test_correlation_matches_kld_to_matched_diagonal():
    # C(S) is the KLD from N(S) to the Gaussian with S's diagonal
    for seed in range(10):
        S = spd(seed, 4)
        direct = gaussian_kld(Covariance(S), Covariance(np.diag(np.diag(S))))
        assert_allclose(correlation_C(Covariance(S)), direct,
                        rtol=1e-11, atol=1e-12)


@settings(max_examples=60)
@given(seed=st.integers(0, (1 << 30) - 1),
       logs=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_correlation_invariant_under_diagonal_scaling(seed, logs):
    S = spd(seed, 3)
    d = np.exp(np.array(logs))
    scaled = (d[:, None] * S) * d[None, :]
    assert_allclose(correlation_C(Covariance(scaled)),
                    correlation_C(Covariance(S)),
                    rtol=0, atol=1e-10)


# -- whitening ---------------------------------------------------------------------

def test_whitener_produces_identity_covariance():
    for seed in range(10):
        S = spd(seed, 4)
        W = whitener(Covariance(S))
        assert_allclose(W @ S @ W.T, np.eye(4), atol=1e-10)


def test_whitener_deterministic_sign_convention():
    S = spd(3, 3)
    w1 = whitener(Covariance(S))
    w2 = whitener(Covariance(S))
    assert_allclose(w1, w2, rtol=0, atol=0)
    # each row has a positive leading entry by convention
    lead = [row[np.argmax(np.abs(row))] for row in w1]
    assert all(v > 0 for v in lead)


@settings(max_examples=150)
@given(n=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_whitener_normal_form_on_random_covariances(n, seed, data):
    # S = Q diag(lam) Q^T: a Haar-random Q, eigenvalues over four decades
    logs = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    S = (q * 10.0 ** np.array(logs)) @ q.T
    S = 0.5 * (S + S.T)
    W = whitener(Covariance(S))
    assert_allclose(W @ S @ W.T, np.eye(n), rtol=0, atol=1e-10)
    # row k is the k-th eigenvector over sqrt(lam_k), eigenvalues descending:
    # W S = diag(lam) W
    lam = np.linalg.eigvalsh(S)[::-1]
    assert_allclose(W @ S, lam[:, None] * W, rtol=0,
                    atol=1e-10 * lam[0] / math.sqrt(lam[-1]))
    # the sign convention: each row's largest-magnitude entry is positive
    assert (W[np.arange(n), np.argmax(np.abs(W), axis=1)] > 0.0).all()
    assert whitener(Covariance(S)).tobytes() == W.tobytes()


def test_whitener_returns_a_read_only_float64_array():
    W = whitener(Covariance(spd(5, 2)))
    assert type(W) is np.ndarray
    assert W.dtype == np.float64 and W.shape == (2, 2)
    assert not W.flags.writeable
    with pytest.raises(ValueError):
        W[0, 0] = 1.0


def test_whitener_rejects_a_basis_that_does_not_whiten(monkeypatch):
    # spd(5, 2) is not diagonal, so its true eigenvalues with the identity
    # basis give a W with W S W^T far from the identity
    cov = Covariance(spd(5, 2))
    lam = np.linalg.eigvalsh(cov.matrix)
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (lam, np.eye(2)))
    with pytest.raises(SingularCovariance,
                       match="whitening residual exceeds tolerance"):
        whitener(cov)


# -- Pythagorean decomposition -------------------------------------------------------

def test_gaussian_pythagoras_residual_small():
    gen = np.random.default_rng(23)
    for _ in range(50):
        S = spd(gen.integers(1 << 30), 3)
        Q = spd(gen.integers(1 << 30), 3)
        residual = verify_gaussian_pythagoras(Covariance(S), Covariance(Q))
        assert residual < 1e-10
    with pytest.raises(DimensionMismatch):
        verify_gaussian_pythagoras(Covariance(np.eye(2)), Covariance(np.eye(3)))
