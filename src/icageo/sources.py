"""Scalar source distributions for simulation and analytic cross-checks.

Every family is standardized to mean 0 and variance 1 by construction, so
a mixing matrix alone controls second-order structure.  Closed-form
densities and entropies are exposed because the quadrature oracles and the
estimator calibration tests use them as ground truth.
"""
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDistribution

# differential entropy of the standard normal, in nats
GAUSSIAN_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)

FAMILIES = ("gaussian", "uniform", "laplace", "generalized-gaussian",
            "cosh-reciprocal")

_UNIFORM_HALF_WIDTH = math.sqrt(3.0)   # unit-variance uniform support bound
_LAPLACE_SCALE = 1.0 / math.sqrt(2.0)  # unit-variance Laplace scale b


def _gg_alpha(beta: float) -> float:
    # scale making exp(-|x/alpha|^beta) have unit variance
    return math.exp(0.5 * (math.lgamma(1.0 / beta) - math.lgamma(3.0 / beta)))


@dataclass(frozen=True)
class SourceSpec:
    """One scalar source family, standardized to zero mean, unit variance.

    family: one of FAMILIES; beta is the shape exponent and is only
    meaningful for generalized-gaussian (beta=2 recovers the Gaussian,
    beta=1 the Laplace; beta>2 is sub-Gaussian).
    """

    family: str
    beta: float | None = field(default=None)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidDistribution(f"unknown source family {self.family!r}; "
                                      f"choose from {', '.join(FAMILIES)}")
        if self.family == "generalized-gaussian":
            if self.beta is None or not 0.25 < self.beta < math.inf:
                raise InvalidDistribution(
                    "generalized-gaussian needs a finite shape beta > 0.25")
        elif self.beta is not None:
            raise InvalidDistribution(
                f"{self.family} takes no shape parameter")

    # -- sampling ---------------------------------------------------------
    def sample(self, gen: "np.random.Generator", size: int) -> np.ndarray:
        if self.family == "gaussian":
            return gen.standard_normal(size)
        if self.family == "uniform":
            return gen.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size)
        if self.family == "laplace":
            return gen.laplace(0.0, _LAPLACE_SCALE, size)
        if self.family == "generalized-gaussian":
            beta = float(self.beta)
            mag = _gg_alpha(beta) * gen.gamma(1.0 / beta, 1.0, size) ** (1.0 / beta)
            sign = np.where(gen.random(size) < 0.5, -1.0, 1.0)
            return mag * sign
        # cosh-reciprocal: inverse-CDF of the unit-variance hyperbolic secant
        u = gen.random(size)
        return (2.0 / math.pi) * np.log(np.tan(0.5 * math.pi * u))

    # -- closed forms -----------------------------------------------------
    def logpdf(self, x: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """ln of the density at x: -inf off a bounded support.  out, an
        array of x's shape that may be x itself, receives the values."""
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty_like(x)
        if self.family == "gaussian":
            np.multiply(x, x, out=out)
            out *= -0.5
            out -= 0.5 * math.log(2.0 * math.pi)
        elif self.family == "uniform":
            out[...] = np.where(np.abs(x) <= _UNIFORM_HALF_WIDTH,
                                -math.log(2.0 * _UNIFORM_HALF_WIDTH), -math.inf)
        elif self.family == "laplace":
            b = _LAPLACE_SCALE
            np.abs(x, out=out)
            out *= -1.0 / b
            out -= math.log(2.0 * b)
        elif self.family == "generalized-gaussian":
            beta = float(self.beta)
            alpha = _gg_alpha(beta)
            lognorm = math.log(beta) - math.log(2.0 * alpha) - math.lgamma(1.0 / beta)
            np.abs(x, out=out)
            out /= alpha
            np.power(out, beta, out=out)
            np.subtract(lognorm, out, out=out)
        else:
            # ln(1/2) - ln cosh z = -|z| - ln(1 + exp(-2|z|)), z = pi x / 2,
            # which no |x| overflows
            np.multiply(x, 0.5 * math.pi, out=out)
            np.abs(out, out=out)
            out += np.log1p(np.exp(-2.0 * out))
            np.negative(out, out=out)
        return out

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def entropy_nats(self) -> float:
        """Exact differential entropy of the standardized density."""
        if self.family == "gaussian":
            return GAUSSIAN_ENTROPY
        if self.family == "uniform":
            return math.log(2.0 * _UNIFORM_HALF_WIDTH)
        if self.family == "laplace":
            return 1.0 + math.log(2.0 * _LAPLACE_SCALE)
        if self.family == "generalized-gaussian":
            beta = float(self.beta)
            alpha = _gg_alpha(beta)
            return (1.0 / beta + math.log(2.0 * alpha / beta)
                    + math.lgamma(1.0 / beta))
        # unit-variance hyperbolic secant
        return math.log(4.0)

    def negentropy_nats(self) -> float:
        """Divergence to the unit-variance Gaussian: always >= 0."""
        return GAUSSIAN_ENTROPY - self.entropy_nats()

    def support(self) -> tuple[float, float] | None:
        """Exact support interval for bounded families, else None."""
        if self.family == "uniform":
            return (-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH)
        return None

    def label(self) -> str:
        if self.family == "generalized-gaussian":
            return f"generalized-gaussian({self.beta:g})"
        return self.family


_SPEC_RE = re.compile(r"^([a-z\-]+)(?:\(([^)]*)\))?$")


def parse_source(text: str) -> SourceSpec:
    """Parse a CLI token like 'laplace' or 'generalized-gaussian(4)'."""
    if not isinstance(text, str):
        raise InvalidDistribution(f"source spec must be a name, got {text!r}")
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise InvalidDistribution(f"cannot parse source spec {text!r}")
    family, arg = m.group(1), m.group(2)
    if arg is None:
        return SourceSpec(family)
    try:
        beta = float(arg)
    except ValueError as exc:
        raise InvalidDistribution(f"bad shape parameter in {text!r}") from exc
    return SourceSpec(family, beta)
