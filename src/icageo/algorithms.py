"""The two separation procedures.

relative_gradient_ica drives the maximum-likelihood stationarity
conditions E{psi_i(Y_i) Y_j} = 0 (i != j) with multiplicative quasi-Newton
updates B <- (I - mu D) B: D solves, pair by pair, the 2 x 2 blocks of the
likelihood Hessian at separation in the relative parametrization, with
fixed nonlinear scores or nonparametric scores re-estimated from the
current outputs.  orthogonal_ica whitens and then rotates, maximizing the
summed marginal non-Gaussianity pair by pair, which enforces exact output
decorrelation by construction.
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (DegenerateSample, Diverged, InvalidConfig,
                     SingularCovariance, TooFewSamples)
from .estimators import SCORE_TABLE_MIN_SAMPLES, _negentropy_raw, score_table
from .gaussian import Covariance, correlation_C, sample_covariance, whitener

# entry magnitude beyond which the demixing iteration counts as diverged
DIVERGENCE_BOUND = 1e12
# objective increase (nats) tolerated as estimator noise before the step halves
OBJECTIVE_NOISE_MARGIN = 0.01
# cadence (iterations) for adaptive re-estimation and objective monitoring
OUTER_CADENCE = 10
# floor on the eigenvalues of each 2 x 2 Hessian block (Picard's lambda_min)
HESSIAN_EIGENVALUE_FLOOR = 1e-2
# best single-rotation gain below this many nats means the data offered the
# rotation search nothing to work with (Gaussian-like input)
NO_IMPROVEMENT_FLOOR = 0.02
# hard cap on Jacobi sweeps
MAX_SWEEPS = 50
# the refined pair search resolves a T-row pair's angle to
# ANGLE_TOL / sqrt(T) radians (_angle_tol), as the estimated angle's own
# error falls as 1 / sqrt(T) (Cardoso 1994).  At 5e4 rows the gain 1.2e-3
# rad from the peak is only about 1e-5 nats lower, and within 4e-4 rad
# Brent compared estimator jitter; at 1e6 rows a fixed 1e-3 read a worse
# Amari index than 2e-4
ANGLE_TOL = 0.2
# an applied rotation smaller than this (radians) does not reopen the
# rejected pairs that share its columns.  It is fixed, not tied to the
# search's resolution: a pair's gain is quadratic about its peak, 3e-5 to
# 5e-5 nats lower 2e-3 rad from it at 5e4 rows, below the default
# acceptance tol of 1e-4 nats
REOPEN_ANGLE = 2e-3
# coarse Givens angles of the pair search: 16 steps of pi/32 over
# (-pi/4, pi/4]; the eighth is exactly 0
COARSE_ANGLES = (-0.25 * math.pi
                 + 0.5 * math.pi * (np.arange(1, 17) / 16.0)).tolist()
# half-width of the bracket refined around the best coarse angle
COARSE_SPAN = 0.5 * math.pi / 16.0
# the coarse scan reads every ceil(T / COARSE_ROWS)-th row of a longer pair
COARSE_ROWS = 1 << 13


# Fixed scores psi = -q'/q of working densities q: tanh the 1/cosh
# (log-cosh) model, cube exp(-s^4/4), identity the Gaussian negative control.
# Each returns (psi, psi') at s from one call.
def _tanh(s: np.ndarray):
    psi = np.tanh(s)
    return psi, 1.0 - psi ** 2


def _cube(s: np.ndarray):
    return s * s * s, 3.0 * s * s


def _identity(s: np.ndarray):
    return s, np.ones_like(s)


FIXED_SCORES = {"tanh": _tanh, "cube": _cube, "identity": _identity}
# adaptive scores are kernel tables refit from the outputs by the solver
SCORE_NAMES = (*FIXED_SCORES, "adaptive")


def make_score(name: str):
    """The fixed score of that name, f(s) -> (psi, psi')."""
    if name not in FIXED_SCORES:
        raise InvalidConfig(f"{name!r} is not a fixed score; choose from "
                            f"{', '.join(FIXED_SCORES)}")
    return FIXED_SCORES[name]


@dataclass(frozen=True)
class SolverConfig:
    """Step size, stopping rule, and score choice for the solvers."""

    step: float = 1.0
    max_iter: int = 2000
    tol: float = 1e-4
    score: str = "adaptive"

    def __post_init__(self):
        # a bool passes as a number: max_iter=True would run once
        if any(isinstance(v, bool) for v in (self.step, self.max_iter, self.tol)):
            raise InvalidConfig("step, max_iter and tol must not be booleans")
        if not (isinstance(self.step, numbers.Real) and 0.0 < self.step <= 1.0):
            raise InvalidConfig("step must lie in (0, 1]")
        if not (isinstance(self.tol, numbers.Real)
                and 0.0 < self.tol < math.inf):
            raise InvalidConfig("tol must be finite and positive")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise InvalidConfig("max_iter must be an integer of at least 1")
        if self.score not in SCORE_NAMES:
            raise InvalidConfig(f"unknown score {self.score!r}; choose from "
                                f"{', '.join(SCORE_NAMES)}")


@dataclass(frozen=True)
class SeparationResult:
    """Demixing estimate, its convergence record and the solver's findings.

    recovered is exactly data times demixing^T.  trajectory holds one value
    per iteration of the measure it names: "stationarity_norm" (relative
    gradient; the last entry is always the norm at the returned demixing,
    which a run stopped by max_iter appends) or "last_sweep_gain"
    (orthogonal: the best rotation gain of each sweep).  report holds the
    findings under their report.json keys: score (the SolverConfig.score
    name; each output's psi_i is that fixed score or, for "adaptive", a
    ScoreTable; None for the orthogonal search) and no_improvement, true
    when no rotation ever beat the noise floor (Gaussian-like data; always
    false for the relative gradient).
    The relative gradient adds stability_margins, the array of each output's
    kappa_i = E psi_i'(Y_i) E Y_i^2 - E psi_i(Y_i) Y_i, and stable: every
    margin is positive, so the outputs are a stable point of the likelihood.
    """

    demixing: np.ndarray
    recovered: Dataset
    iterations: int
    converged: bool
    trajectory: np.ndarray
    measure: str
    report: dict


def stationarity_matrix(Y: Dataset, scores) -> np.ndarray:
    """F with F_ij = (1/T) sum_t psi_i(Y_ti) Y_tj, where scores holds one
    fixed score or ScoreTable per channel.

    At a maximum-likelihood separation point the off-diagonal part
    vanishes; its Frobenius norm is the solver's convergence measure.
    The solver's own _newton_terms computes it: an overflow is Diverged.
    """
    scores = list(scores)
    if len(scores) != Y.N:
        raise InvalidConfig(f"need one score per channel ({Y.N})")
    return _newton_terms(Y.samples, scores)[0]


def _newton_terms(Y: np.ndarray, scores):
    """F, a_i = E psi_i'(Y_i), v_i = E Y_i^2 of the outputs Y, and the
    solver's stopping measure: the Frobenius norm of offdiag F.

    Each score is a fixed score or a ScoreTable; one call gives a channel's
    psi and psi', so a table locates every sample on its grid once.
    """
    T, n = Y.shape
    Psi = np.empty_like(Y)
    a = np.empty(n)
    with np.errstate(over="raise", invalid="raise"):
        try:
            for i, score in enumerate(scores):
                Psi[:, i], dpsi = score(Y[:, i])
                a[i] = np.mean(dpsi)
            F = Psi.T @ Y / T
            v = np.mean(Y * Y, axis=0)
        except FloatingPointError as exc:
            raise Diverged("score or stationarity overflow") from exc
    if not np.isfinite(F).all():
        raise Diverged("score or stationarity overflow")
    return F, a, v, float(np.linalg.norm(F - np.diag(np.diag(F))))


def _newton_direction(F: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Regularized pairwise Newton direction D (zero diagonal).

    For each pair i < j, (D_ij, D_ji) solves the Hessian block
    [[a_i v_j, 1], [1, a_j v_i]] (D_ij, D_ji) = (F_ij, F_ji) once the
    block's eigenvalues are clipped from below at HESSIAN_EIGENVALUE_FLOOR
    (Ablin, Cardoso & Gramfort 2018).  Evaluated for all ordered pairs at
    once: entry (i, j) is the first row of block (i, j)'s inverse, and
    entry (j, i) the second.
    """
    p = np.outer(a, v)  # block (i, j) is [[p_ij, 1], [1, p_ji]]
    half = 0.5 * (p - p.T)
    r = np.sqrt(half * half + 1.0)
    mid = 0.5 * (p + p.T)
    inv_hi = 1.0 / np.maximum(mid + r, HESSIAN_EIGENVALUE_FLOOR)
    inv_lo = 1.0 / np.maximum(mid - r, HESSIAN_EIGENVALUE_FLOOR)
    # eigenvectors (c, s) and (-s, c) of the larger and smaller eigenvalue
    cc = 0.5 + 0.5 * half / r
    cs = 0.5 / r
    D = F * (cc * inv_hi + (1.0 - cc) * inv_lo) + F.T * (cs * (inv_hi - inv_lo))
    np.fill_diagonal(D, 0.0)
    return D


def _objective_value(Y: np.ndarray) -> float:
    """C(Y) - sum G(Y_i), which equals I(Y) - G(Y); G(Y) is a linear
    invariant, so this proxy falls exactly as the mutual information does.
    A singular output covariance reads +inf."""
    try:
        corr = correlation_C(Covariance(Y.T @ Y / Y.shape[0]))
    except SingularCovariance:
        return math.inf
    return corr - sum(_negentropy_raw(Y[:, i]) for i in range(Y.shape[1]))


def relative_gradient_ica(data: Dataset, config: SolverConfig) -> SeparationResult:
    """Multiplicative-update maximum-likelihood ICA with a quasi-Newton step.

    Starts from the whitener of the data and iterates B <- (I - mu D) B
    with Y recomputed each step, where D is the relative gradient
    offdiag F(Y) preconditioned by the regularized 2 x 2 Hessian blocks
    at independence, [[a_i v_j, F_ii], [F_jj, a_j v_i]] with
    a_i = E psi_i'(Y_i) and v_i = E Y_i^2.  Row i of each block and of F
    is divided by f_i = F_ii = E psi_i(Y_i) Y_i where that lies in
    (0, a_i v_i), i.e. where the margin kappa_i is positive, and by 1
    elsewhere; _newton_direction then solves the unit off-diagonal form.
    mu starts at config.step (1 is the full Newton step).  Every
    OUTER_CADENCE iterations the objective proxy is monitored (halving mu
    if it rose beyond estimator noise) and adaptive score tables are
    refreshed.  Stops when the off-diagonal stationarity norm falls below
    tol; the first time adaptive tables fitted at an earlier iterate meet
    that rule, they are refit on the current outputs and the rule is
    checked again.  The report carries the stability margins of the final
    outputs, taken with the scores of the last stopping check: adaptive
    tables refit at the stopping rule that do not meet it are stepped on,
    so the margins can differ by about 1e-3 from those of tables refit on
    the final outputs (README).
    """
    X = data.samples
    n = data.N
    if data.T <= 10 * n:
        raise TooFewSamples("need T > 10 N for separation")
    adaptive = config.score == "adaptive"
    if adaptive and data.T < SCORE_TABLE_MIN_SAMPLES:
        raise TooFewSamples(f"the adaptive score needs T >= "
                            f"{SCORE_TABLE_MIN_SAMPLES} samples, got {data.T}")
    B = whitener(sample_covariance(data)).copy()
    # iteration 0's demixing: its proxy is first needed at iteration
    # OUTER_CADENCE, which most runs stop before
    start = B
    mu = config.step

    def fit(Y):
        # the product model the outputs are measured against: one kernel
        # table per output for "adaptive", the fixed score otherwise
        return ([score_table(y) for y in Y.T] if adaptive
                else [make_score(config.score)] * n)

    trajectory = []
    converged = False
    prev_obj = None
    refit_at_stop = adaptive
    for it in range(config.max_iter):
        Y = X @ B.T
        if it % OUTER_CADENCE == 0:
            scores = fit(Y)
            if it:
                if prev_obj is None:
                    prev_obj = _objective_value(X @ start.T)
                obj = _objective_value(Y)
                if obj > prev_obj + OBJECTIVE_NOISE_MARGIN:
                    mu *= 0.5
                prev_obj = obj
        F, a, v, norm = _newton_terms(Y, scores)
        if norm < config.tol and refit_at_stop and it % OUTER_CADENCE:
            # the tables describe an earlier iterate: refit them once on
            # these outputs before trusting the stopping rule
            refit_at_stop = False
            scores = fit(Y)
            F, a, v, norm = _newton_terms(Y, scores)
        trajectory.append(norm)
        if norm < config.tol:
            converged = True
            break
        f = np.diag(F)
        f = np.where((f > 0.0) & (f < a * v), f, 1.0)
        B = (np.eye(n) - mu * _newton_direction(F / f[:, None], a / f, v)) @ B
        if not np.isfinite(B).all() or np.abs(B).max() > DIVERGENCE_BOUND:
            raise Diverged("demixing matrix left the trust region")
    iterations = len(trajectory)
    if not converged:
        Y = X @ B.T
        F, a, v, norm = _newton_terms(Y, scores)
        trajectory.append(norm)
    margins = a * v - np.diag(F)
    Y.flags.writeable = False
    return SeparationResult(B, Dataset(Y), iterations, converged,
                            np.asarray(trajectory), "stationarity_norm",
                            {"score": config.score, "no_improvement": False,
                             "stability_margins": margins,
                             "stable": bool((margins > 0.0).all())})


def _brent_max(f, x: float, fx: float, lo: float, hi: float,
               tol: float) -> tuple[float, float]:
    """Maximize f on [lo, hi] by Brent's method (Brent 1973, ch. 5).

    Starts from x in [lo, hi], whose value fx is already known, and
    alternates parabolic steps through the three best points with golden
    sections.  Stops once both ends of the bracket lie within tol of the
    best point, so the maximizer of an f unimodal on [lo, hi] is located
    to tol.  Returns (argmax, max) over the points evaluated.
    """
    cgold = 0.5 * (3.0 - math.sqrt(5.0))
    tol1 = 0.5 * tol
    a, b = lo, hi
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            # vertex of the parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if (x + d) - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = tol1 if xm >= x else -tol1
        if not parabolic:
            e = (a - x) if x >= xm else (b - x)
            d = cgold * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _pair_gain(yi: np.ndarray, yj: np.ndarray):
    """The gain of rotating (yi, yj) by theta: the rise of the pair's summed
    negentropy.  Every variance is taken from the pair's centred 2 x 2
    second moments: var(c yi - s yj) = c^2 S_ii + s^2 S_jj - 2 c s S_ij.
    The centred pair is rotated in float64 into two reused buffers, and
    every term, the base included, is estimated on float32 sort keys.
    """
    xi = yi - yi.mean()
    xj = yj - yj.mean()
    sii, sij, sjj = (float(a @ b) / xi.size
                     for a, b in ((xi, xi), (xi, xj), (xj, xj)))
    base = (_negentropy_raw(xi, var=sii, float32=True)
            + _negentropy_raw(xj, var=sjj, float32=True))
    u, w = np.empty((2, xi.size))

    def gain(theta):
        c, s = math.cos(theta), math.sin(theta)
        cross = 2.0 * c * s * sij
        np.subtract(np.multiply(xi, c, out=u), np.multiply(xj, s, out=w),
                    out=u)
        first = _negentropy_raw(u, var=c * c * sii + s * s * sjj - cross,
                                float32=True)
        # u is free again: it holds s xi while w turns into s xi + c xj
        np.add(np.multiply(xi, s, out=u), np.multiply(xj, c, out=w), out=w)
        return (first
                + _negentropy_raw(w, var=s * s * sii + c * c * sjj + cross,
                                  float32=True)
                - base)

    return gain


def _coarse_peak(gain) -> float:
    # the best of the COARSE_ANGLES; the gain at theta = 0 is exactly 0
    values = [gain(t) if t else 0.0 for t in COARSE_ANGLES]
    return COARSE_ANGLES[int(np.argmax(values))]


def _angle_tol(T: int) -> float:
    """Angle resolution, radians, of the search of a pair of T rows."""
    return ANGLE_TOL / math.sqrt(T)


def _search_pair(yi: np.ndarray, yj: np.ndarray) -> tuple[float, float]:
    """Givens angle and gain of the best rotation of one output pair.

    One coarse scan reads the gain (_pair_gain) at the 15 nonzero
    COARSE_ANGLES on every stride-th row, stride = ceil(T / COARSE_ROWS)
    (1 up to COARSE_ROWS rows); a subsample with a zero variance is not
    scanned, the full pair is.  _brent_max then refines the best coarse
    angle +- COARSE_SPAN on the full pair to _angle_tol(T) = ANGLE_TOL /
    sqrt(T) radians, starting from the full pair's gain at that angle: the
    estimated angle's own error falls as 1 / sqrt(T), and Brent's last
    steps below it would compare estimator jitter.  The returned gain is
    always a full-data value.
    """
    stride = -(-yi.size // COARSE_ROWS)
    try:
        peak = _coarse_peak(_pair_gain(yi[::stride], yj[::stride]))
    except DegenerateSample:
        # every stride-th row can be constant where the pair is not
        peak = _coarse_peak(_pair_gain(yi, yj))
    gain = _pair_gain(yi, yj)
    return _brent_max(gain, peak, gain(peak) if peak else 0.0,
                      peak - COARSE_SPAN, peak + COARSE_SPAN,
                      _angle_tol(yi.size))


def orthogonal_ica(data: Dataset, config: SolverConfig) -> SeparationResult:
    """Whiten, then rotate to maximize summed marginal non-Gaussianity.

    Jacobi sweeps over channel pairs in lexicographic order; each pair's
    Givens angle is located by _search_pair: a scan of 15 coarse angles
    over (-pi/4, pi/4] on every ceil(T / COARSE_ROWS)-th row, then Brent's
    method on the full pair around the best one, to ANGLE_TOL / sqrt(T)
    radians (8.9e-4 at 5e4 rows, 2e-4 at 1e6), which shrinks with the
    angle's own estimation error.  The pair gain is the m-spacing
    negentropy of float32 sort keys of the centred, float64-rotated pair
    (within about 1e-8 nats of the float64 estimate).
    A rotation is kept when it improves the pair's negentropy sum by more
    than config.tol; sweeping stops when no pair improves by that much, or
    after config.max_iter sweeps (never more than MAX_SWEEPS).  A rejected
    pair is not searched again until one of its columns has been rotated
    by at least REOPEN_ANGLE: the stopping rule does not promise that a
    pair was searched after its columns' last rotation, only after the
    last one of at least REOPEN_ANGLE.  The returned demixing is the
    rotation times the whitener, so the recovered channels are exactly
    decorrelated.
    """
    X = data.samples
    n = data.N
    if data.T <= 10 * n:
        raise TooFewSamples("need T > 10 N for separation")
    W = whitener(sample_covariance(data))
    Y = X @ W.T
    U = np.eye(n)
    sweep_gains = []
    best_gain_ever = 0.0
    converged = False
    rotated = [0] * n  # rotations applied to each column so far
    # pair -> rotation counts of its columns when its search was rejected
    rejected = {}
    for _ in range(min(MAX_SWEEPS, config.max_iter)):
        sweep_best = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                if rejected.get((i, j)) == (rotated[i], rotated[j]):
                    # same columns give the same search and the same
                    # rejection; best_gain_ever already holds its gain
                    continue
                yi, yj = Y[:, i], Y[:, j]
                theta, improvement = _search_pair(yi, yj)
                # a full-data gain, never less than the full pair's gain
                # at the coarse peak (0 when that peak is theta = 0)
                best_gain_ever = max(best_gain_ever, improvement)
                if improvement > config.tol:
                    sweep_best = max(sweep_best, improvement)
                    c, s = math.cos(theta), math.sin(theta)
                    # yi and yj are views of these columns: both new
                    # columns are computed before either is written
                    Y[:, i], Y[:, j] = c * yi - s * yj, s * yi + c * yj
                    U[[i, j]] = np.array([[c, -s], [s, c]]) @ U[[i, j]]
                    if abs(theta) >= REOPEN_ANGLE:
                        rotated[i] += 1
                        rotated[j] += 1
                else:
                    rejected[i, j] = (rotated[i], rotated[j])
        sweep_gains.append(sweep_best)
        if sweep_best <= config.tol:
            converged = True
            break
    B = U @ W
    # release the rotated outputs before the recovered ones are built
    Y = yi = yj = None
    recovered = X @ B.T
    recovered.flags.writeable = False
    return SeparationResult(
        B, Dataset(recovered), len(sweep_gains), converged,
        np.asarray(sweep_gains, dtype=float), "last_sweep_gain",
        {"score": None,
         "no_improvement": bool(best_gain_ever < NO_IMPROVEMENT_FLOOR)})
