"""Closed-form geometry of the zero-mean Gaussian family.

Covariances are the coordinates here: divergence between zero-mean
Gaussians, the scalar correlation measure (divergence from a covariance to
its diagonal), and whitening, all in exact linear-algebra form with no
sampling involved.
"""
import math
from dataclasses import dataclass

import numpy as np

from .data import EPS_DET, Dataset, _frozen
from .errors import DimensionMismatch, SingularCovariance


@dataclass(frozen=True)
class Covariance:
    """Symmetric positive-definite N x N matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("covariance must be square")
        scale = np.abs(m).max()
        if scale == 0.0 or not np.isfinite(scale):
            raise SingularCovariance("covariance is zero or non-finite")
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise SingularCovariance("covariance is not symmetric")
        object.__setattr__(self, "matrix", _frozen(0.5 * (m + m.T)))
        eig = np.linalg.eigvalsh(self.matrix)
        if eig[0] <= EPS_DET * eig[-1]:
            raise SingularCovariance("covariance is not positive definite")

    @property
    def N(self) -> int:
        return self.matrix.shape[0]


def sample_covariance(data: Dataset) -> Covariance:
    """Second-moment matrix (1/T) sum_t x_t x_t^T.

    The zero-mean convention holds: no mean subtraction, so center real
    data whose mean is not structurally zero first (the CLI's --center).
    Requires T > N so the estimate is almost surely positive definite.
    """
    X = data.samples
    if data.T <= data.N:
        raise SingularCovariance("need more observations than channels")
    with np.errstate(over="raise", invalid="raise"):
        try:
            m = X.T @ X / data.T
        except FloatingPointError as exc:
            raise SingularCovariance("covariance is zero or non-finite") from exc
    return Covariance(m)


def _logdet(m: np.ndarray) -> float:
    sign, val = np.linalg.slogdet(m)
    if sign <= 0:
        raise SingularCovariance("non-positive determinant")
    return float(val)


def gaussian_kld(p: Covariance, q: Covariance) -> float:
    """KLD( N(0,p) || N(0,q) ) = (tr(q^-1 p) - N + ln det q - ln det p)/2."""
    if p.N != q.N:
        raise DimensionMismatch("covariance dimensions differ")
    tr = float(np.trace(np.linalg.solve(q.matrix, p.matrix)))
    return 0.5 * (tr - p.N + _logdet(q.matrix) - _logdet(p.matrix))


def correlation_C(cov: Covariance) -> float:
    """Correlation measure: divergence from N(0,cov) to its diagonal.

    Equals ln(det diag(cov) / det cov)/2; zero exactly when cov is
    diagonal, and invariant under diagonal rescaling of the channels.
    """
    logdiag = float(np.sum(np.log(np.diag(cov.matrix))))
    return 0.5 * (logdiag - _logdet(cov.matrix))


def whitener(cov: Covariance) -> np.ndarray:
    """Symmetric-decomposition whitener W = Lambda^(-1/2) V^T, read-only.

    Eigenvalues are sorted descending and each eigenvector's sign is fixed
    so its largest-magnitude entry is positive, making the result a unique
    deterministic function of the covariance.  W is checked before it is
    returned: ||W cov W^T - I||_F above 1e-10 sqrt(N) is SingularCovariance.
    """
    lam, V = np.linalg.eigh(cov.matrix)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    V = V[:, order]
    if lam[-1] <= EPS_DET * lam[0]:
        raise SingularCovariance("covariance is numerically singular")
    for j in range(V.shape[1]):
        k = int(np.argmax(np.abs(V[:, j])))
        if V[k, j] < 0.0:
            V[:, j] = -V[:, j]
    W = _frozen((V / np.sqrt(lam)).T)
    n = cov.N
    if np.linalg.norm(W @ cov.matrix @ W.T - np.eye(n)) > 1e-10 * math.sqrt(n):
        raise SingularCovariance("whitening residual exceeds tolerance")
    return W


def verify_gaussian_pythagoras(data_cov: Covariance, target: Covariance) -> float:
    """Residual of the Gaussian Pythagoras identity in closed form.

    For a Gaussian P with covariance S, KLD(P || N(T)) must equal the
    non-Gaussianity of P (zero, computed generically as the divergence to
    its own Gaussian projection) plus gaussian_kld(S, T).  The left side is
    evaluated by the independent cross-entropy-minus-entropy route so the
    comparison is not vacuous.
    """
    if data_cov.N != target.N:
        raise DimensionMismatch("covariance dimensions differ")
    n = data_cov.N
    entropy = 0.5 * (n * math.log(2.0 * math.pi * math.e)
                     + _logdet(data_cov.matrix))
    cross = 0.5 * (n * math.log(2.0 * math.pi) + _logdet(target.matrix)
                   + float(np.trace(np.linalg.solve(target.matrix,
                                                    data_cov.matrix))))
    lhs = cross - entropy
    non_gaussianity = gaussian_kld(data_cov, data_cov)
    rhs = non_gaussianity + gaussian_kld(data_cov, target)
    return abs(lhs - rhs)
