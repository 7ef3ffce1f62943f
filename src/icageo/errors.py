"""Exception hierarchy shared by every icageo module.

Each class names one contract violation.  CLI commands map these onto
process exit codes: bad input -> 2, algorithmic failure -> 1.
"""


class IcageoError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(IcageoError):
    """A value that must be finite is NaN or infinite."""

    def __init__(self, row: int | None = None, col: int | None = None,
                 context: str = "data"):
        self.row = row
        self.col = col
        if row is None:
            super().__init__(f"non-finite value in {context}")
        else:
            super().__init__(f"non-finite value in {context} at "
                             f"(row {row}, col {col})")


class TooFewSamples(IcageoError):
    """Sample count below the documented minimum for the operation."""


class EmptyChannels(IcageoError):
    """A dataset must carry at least one channel, and its channel names,
    when given, must name its channels one to one."""


class DimensionMismatch(IcageoError):
    """Operands have incompatible shapes."""


class SingularCovariance(IcageoError):
    """Covariance matrix is not positive definite within tolerance."""


class SingularTransform(IcageoError):
    """A matrix required to be invertible is singular within tolerance."""


class DegenerateSample(IcageoError):
    """All sample values are equal; entropy-type estimators are undefined."""


class DimensionTooHigh(IcageoError):
    """Mutual-information estimation is limited to 2 or 3 channels."""


class EstimatorFailure(IcageoError):
    """An estimate fell outside its plausibility region (e.g. negentropy
    below -0.1 nats)."""


class InvalidDistribution(IcageoError):
    """A discrete or analytic distribution violates its invariants."""


class InsufficientCoverage(IcageoError):
    """Quadrature grid captures less than the required probability mass,
    or a divergence's target density is 0 (or underflows) on the grid
    where the first density is positive."""


class Diverged(IcageoError):
    """Iterative solver produced non-finite or unbounded iterates."""


class DegenerateGain(IcageoError):
    """Gain matrix has an all-zero row or column."""


class InvalidConfig(IcageoError):
    """Command-line or config-file options are missing or inconsistent."""


class IoError(IcageoError):
    """File could not be read, parsed, or written."""


# Errors whose cause is malformed user input rather than algorithm behavior.
INPUT_ERRORS = (NonFinite, TooFewSamples, EmptyChannels, DimensionMismatch,
                DegenerateSample, DimensionTooHigh, InvalidDistribution,
                InvalidConfig, IoError)


def exit_code_for(err: Exception) -> int:
    """Map an exception onto the CLI exit-code contract."""
    if isinstance(err, INPUT_ERRORS):
        return 2
    return 1
