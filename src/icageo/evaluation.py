"""Separation quality and the information-geometric decomposition report.

The Amari index scores a gain matrix (demixing times mixing) against the
ideal of a scaled permutation.  diagnose assembles the estimable pieces of
the joint divergence identity for a dataset: mutual information (low
dimension only), correlation, and marginal negentropies, plus the
correlation-minus-negentropy objective proxy.
"""
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateGain, TooFewSamples
from .estimators import (MI_MIN_SAMPLES, MIEstimate, mutual_information,
                         negentropy_scalar)
from .gaussian import correlation_C, sample_covariance
from .rng import Rng


def amari_index(gain) -> float:
    """Normalized separation error of a gain matrix, in [0, 1].

    Sums (row sum / row max - 1) over rows and the same over columns, then
    divides by 2 N (N - 1), the value attained by an all-ones gain.  0
    exactly when the gain is a permutation of a diagonal matrix; 1 for
    maximal mixing (all gain entries equal in magnitude).  Invariant under
    row and column permutations, sign flips and a common scale of the
    gain, but not under unequal row scales: [[1, .5], [.5, 1]] reads 0.5
    and [[10, 5], [.5, 1]] reads 0.3125.
    """
    g = np.asarray(gain, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 2:
        raise DegenerateGain("gain must be square, at least 2 x 2")
    if not np.isfinite(g).all():
        raise DegenerateGain("gain has non-finite entries")
    p = np.abs(g)
    if (p.sum(axis=1) == 0).any() or (p.sum(axis=0) == 0).any():
        raise DegenerateGain("gain has an all-zero row or column")
    n = p.shape[0]
    rows = (p.sum(axis=1) / p.max(axis=1) - 1.0).sum()
    cols = (p.sum(axis=0) / p.max(axis=0) - 1.0).sum()
    return float((rows + cols) / (2.0 * n * (n - 1)))


@dataclass(frozen=True)
class DecompositionReport:
    """Estimated pieces of I(Y) + sum G(Y_i) = C(Y) + G(Y).

    mi is estimated for 2 or 3 channels and at least MI_MIN_SAMPLES rows,
    and is None otherwise.  The joint non-Gaussianity G(Y) needs joint
    density estimation and is never estimated from samples; the oracle
    module audits the identity on analytic densities.  objective_proxy is
    C(Y) - sum G(Y_i) = I(Y) - G(Y), the quantity the solvers minimize.
    """

    correlation: float
    marginal_negentropies: tuple[float, ...]
    objective_proxy: float
    mi: MIEstimate | None = None

    def to_json(self) -> dict:
        out = {
            "correlation": self.correlation,
            "marginal_negentropies": list(self.marginal_negentropies),
            "objective_proxy": self.objective_proxy,
        }
        if self.mi is not None:
            out["mi"] = self.mi.value
            out["mi_raw"] = self.mi.raw
            out["mi_method"] = self.mi.method
            out["near_deterministic_dependence"] = \
                self.mi.near_deterministic_dependence
        return out


def diagnose(data: Dataset, seed: int = 0) -> DecompositionReport:
    """Estimate the decomposition terms for a dataset (zero-mean convention:
    center the data first if its mean is not structurally zero).

    The seed only feeds deterministic tie-breaking inside the mutual
    information estimator; every term is otherwise a pure function of the
    data.  A dataset with no more rows than channels is TooFewSamples.
    """
    Rng(seed)  # checked whether or not mutual information is estimated
    if data.T <= data.N:
        raise TooFewSamples(f"need more observations than channels, got "
                            f"{data.T} rows of {data.N} channels")
    corr = correlation_C(sample_covariance(data))
    negs = tuple(negentropy_scalar(data.column(i)) for i in range(data.N))
    proxy = corr - sum(negs)
    mi = (mutual_information(data, seed=seed)
          if 2 <= data.N <= 3 and data.T >= MI_MIN_SAMPLES else None)
    return DecompositionReport(corr, negs, proxy, mi)
