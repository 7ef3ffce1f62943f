"""Independent component analysis with an information-geometric audit trail.

The package treats ICA as divergence bookkeeping: for any candidate output
the mutual information splits as correlation plus marginal non-Gaussianity,
and the same Kullback-Leibler lengths obey exact Pythagorean identities that
the `oracle` module verifies by quadrature.  Estimators, two separation
algorithms, and a CLI sit on top of that accounting.
"""
__version__ = "0.1.0"

from .errors import (DegenerateGain, DegenerateSample, DimensionMismatch,
                     DimensionTooHigh, Diverged, EmptyChannels,
                     EstimatorFailure, IcageoError, InsufficientCoverage,
                     InvalidConfig, InvalidDistribution, IoError, NonFinite,
                     SingularCovariance, SingularTransform, TooFewSamples,
                     exit_code_for)
from .rng import Rng
from .sources import FAMILIES, SourceSpec, parse_source
from .data import (Dataset, MixingModel, random_mixing, read_csv, simulate,
                   write_csv)
from .gaussian import (Covariance, correlation_C, gaussian_kld,
                       sample_covariance, verify_gaussian_pythagoras, whitener)
from .estimators import (entropy_scalar, mutual_information,
                         negentropy_scalar, score_table)
from .oracle import (AnalyticDensity2D, DiscreteJoint, GridSpec,
                     builtin_suite, discrete_mi, gaussian_density,
                     gaussian_mixture_density, gaussianity_invariance_check,
                     linear_image, load_verify_spec, product_density,
                     quad_kld_2d, random_discrete_joint,
                     rotated_product_density, verify_four_point_identity,
                     verify_product_pythagoras)
from .algorithms import (SolverConfig, make_score, orthogonal_ica,
                         relative_gradient_ica, stationarity_matrix)
from .evaluation import amari_index, diagnose

__all__ = [
    "__version__",
    "IcageoError", "NonFinite", "TooFewSamples", "EmptyChannels",
    "DimensionMismatch", "SingularCovariance", "SingularTransform",
    "DegenerateSample", "DimensionTooHigh", "EstimatorFailure",
    "InvalidDistribution", "InsufficientCoverage", "Diverged",
    "DegenerateGain", "InvalidConfig", "IoError", "exit_code_for",
    "Rng",
    "FAMILIES", "SourceSpec", "parse_source",
    "Dataset", "MixingModel", "simulate", "random_mixing",
    "read_csv", "write_csv",
    "Covariance", "sample_covariance", "gaussian_kld", "correlation_C",
    "whitener", "verify_gaussian_pythagoras",
    "entropy_scalar", "negentropy_scalar", "mutual_information",
    "score_table",
    "DiscreteJoint", "discrete_mi",
    "verify_product_pythagoras", "random_discrete_joint",
    "AnalyticDensity2D", "GridSpec", "gaussian_density",
    "gaussian_mixture_density", "product_density",
    "rotated_product_density", "linear_image", "quad_kld_2d",
    "verify_four_point_identity", "gaussianity_invariance_check",
    "builtin_suite", "load_verify_spec",
    "SolverConfig", "make_score",
    "stationarity_matrix", "relative_gradient_ica", "orthogonal_ica",
    "amari_index", "diagnose",
]
