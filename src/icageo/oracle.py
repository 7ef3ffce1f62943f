"""Reference computations for the divergence identities.

Two worlds live here.  Discrete bivariate distributions give the product
Pythagoras and mutual-information identities exactly, to round-off.
Analytic 2-D densities are base densities under a linear frame (a
rotation, a shear, a Gaussian's Cholesky factor), handled by midpoint
quadrature on grids that respect that frame: bounded supports get cell
edges aligned to the support boundary, unbounded axes take cells that
widen as s = c sinh(u) under equal steps in u, so tails are reached with
few cells, and a density is integrated in pulled-back base coordinates so
the change of variables is exact.  A grid's cells are the outer product of
two per-axis width vectors, and every sum weights a cell by its own area.
Each grid belongs to one density (quad_kld_2d takes q's mass on q's own
base grid), so MAX_GRID_CELLS bounds them all.  A base density is given by
its closed-form log.  Every grid is walked once, in row blocks whose log
densities are written into buffers reused by every block: a base is
evaluated at the grid's base coordinates, and when the map from grid to
base coordinates is axis-aligned, the log of a product base is the outer
sum of two 1-D vectors.  Only the sums a term needs (masses, row and
column masses, a cross moment, sum P ln P) are kept, so no grid-sized
array is built.

The four projection targets of the joint identity (product of marginals,
Gaussian fit, independent Gaussian fit) are all built from the same grid
measure, so the identity residuals reflect the identity itself rather than
discretization error; the discretization error shows up in the individual
terms and shrinks at first order or better as the step is refined.  A
Gaussian fit matches the grid measure's second moments, so the
cross-entropy to it is a closed form of those moments: only
sum pi ln(pi / w), w each cell's area, and quad_kld_2d's divergence to a
given density, need the grid's cells.
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import _frozen, read_json
from .errors import (DimensionMismatch, IcageoError, InsufficientCoverage,
                     InvalidDistribution, SingularTransform)
from .estimators import _relative_entropy
from .gaussian import (Covariance, correlation_C, gaussian_kld,
                       verify_gaussian_pythagoras)
from .rng import Rng
from .sources import SourceSpec, parse_source

# allowed deviation of quadrature mass from 1
MASS_TOL = 1e-4
# grid points a quadrature evaluates at once, whatever the step: blocks of
# 2**15 to 2**16 points stay in cache and ran the default grids fastest.
# Weighted sums over a block go row by row (np.vecdot), and column sums
# through einsum: a threaded BLAS splits one dot over a whole block, and
# those splits made the built-in suite 3 times slower whenever another
# process held one of 2 CPUs
QUAD_BLOCK_POINTS = 1 << 15
# an unbounded grid axis takes ceil(2 * SINH_SCALE * SINH_U / step)
# midpoint cells of equal width in u over [-SINH_U, SINH_U] under
# s = SINH_SCALE * sinh(u) (Takahasi & Mori 1974): at most step / SINH_SCALE
# wide in u, so a cell at u is at most step * cosh(u) wide in s, the
# central cell about the step, and tails decay double-exponentially in u;
# 800 cells at the default step
SINH_SCALE = 1.25
SINH_U = 3.2
# how far an unbounded axis reaches in s, about 15.3: a Laplace tail beyond
# it holds e**-21.6 of the mass.  It stays short of about 22.8: from there
# the grid's corners hold points where the base of the built-in rho = 0.5
# Gaussian is still positive and N(0, I) has underflowed, so quad_kld_2d
# would refuse that divergence as infinite
SINH_REACH = SINH_SCALE * math.sinh(SINH_U)
# s = 0 lies this fraction of a cell from the nearest cell center on an
# unbounded axis.  s = 0 is the one point where an unbounded source family
# may have a kink (the Laplace cusp), and a midpoint rule's h**2 error from
# a kink x
# cells from a center is proportional to x**2 - x + 1/6 (the Bernoulli
# polynomial B2), whose root this is: the 2-D Laplace pair's mass then
# misses 1 by 1.5e-4 at step 0.03 with s = 0 on a cell edge, and by 4e-9
# here
KINK_OFFSET = 0.5 - 1.0 / math.sqrt(12.0)
# most cells a grid may hold at its step.  A grid walk's memory does not
# grow with the grid, so the bound limits run time: a grid at the bound
# holds about 52 times the default step's 6.4e5 cells, and one
# quad_kld_2d on it took about 40 times as long (0.44 s against 0.012 s)
MAX_GRID_CELLS = 1 << 25
# stands in for ln 0 in a P-weighted sum of logs, once P = exp(ln P) is
# taken: finite, so a cell where P = 0 adds 0 * LN_ZERO = 0.  exp is taken
# of the logs as they are, since it takes -inf about 5 times faster than a
# finite value that underflows
LN_ZERO = -1000.0


# -- discrete world -------------------------------------------------------

@dataclass(frozen=True)
class DiscreteJoint:
    """Bivariate probability table: K1 x K2, entries >= 0, total = 1."""

    probabilities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probabilities", _frozen(self.probabilities))
        p = self.probabilities
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise InvalidDistribution("joint table must be a 2-D matrix")
        if not np.isfinite(p).all() or (p < 0).any():
            raise InvalidDistribution("joint entries must be finite and >= 0")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise InvalidDistribution("joint entries must sum to 1")
        if (p.sum(axis=1) == 0).any() or (p.sum(axis=0) == 0).any():
            raise InvalidDistribution("joint table has an all-zero row or column")

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.probabilities
        return p.sum(axis=1), p.sum(axis=0)


def discrete_mi(joint: DiscreteJoint) -> float:
    """Exact mutual information of a bivariate table, in nats."""
    px, py = joint.marginals()
    return _relative_entropy(joint.probabilities,
                             np.log(px)[:, None] + np.log(py))


def verify_product_pythagoras(joint: DiscreteJoint,
                              target_marginals) -> dict:
    """Divergence to a product target vs. mutual information plus marginal
    divergences; the two sides agree to round-off for any valid inputs.
    Returns the identity's lhs, rhs, residual |lhs - rhs| and the terms
    of its right side."""
    p = joint.probabilities
    tx = np.asarray(target_marginals[0], dtype=float)
    ty = np.asarray(target_marginals[1], dtype=float)
    if tx.shape != (p.shape[0],) or ty.shape != (p.shape[1],):
        raise DimensionMismatch("target marginals do not match the joint shape")
    for t in (tx, ty):
        # a NaN fails no comparison, so finiteness is asked for first
        if (not np.isfinite(t).all() or (t <= 0).any()
                or abs(float(t.sum()) - 1.0) > 1e-12):
            raise InvalidDistribution("target marginals must be finite, "
                                      "strictly positive and sum to 1")
    px, py = joint.marginals()
    mi = discrete_mi(joint)
    kx = _relative_entropy(px, np.log(tx))
    ky = _relative_entropy(py, np.log(ty))
    lhs = _relative_entropy(p, np.log(tx)[:, None] + np.log(ty))
    rhs = mi + kx + ky
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs), "terms": {
        "mutual_information": mi,
        "marginal_kld_1": kx,
        "marginal_kld_2": ky,
    }}


def random_discrete_joint(k1: int, k2: int,
                          gen: "np.random.Generator") -> DiscreteJoint:
    """Random strictly positive joint table, for property sweeps."""
    p = gen.random((k1, k2)) + 1e-3
    total = p.sum()
    p /= total
    # push residual round-off into the largest entry so the total is exact
    i, j = np.unravel_index(np.argmax(p), p.shape)
    p[i, j] += 1.0 - p.sum()
    return DiscreteJoint(p)


# -- analytic densities ---------------------------------------------------

@dataclass(frozen=True)
class AnalyticDensity2D:
    """Closed-form 2-D density: a base density under a linear frame.

    log_base(s1, s2, out) writes ln of the density of the base coordinates
    s into out, elementwise on broadcastable arrays s1 and s2 (-inf off the
    support), and returns out; s1 and s2 are scratch that it may
    overwrite.  frame is a 2x2 matrix F, and the density is that of
    y = F s.  base_support gives the exact support interval per base axis,
    or None if unbounded, so the support is an axis-aligned box (possibly
    unbounded) in s.  Quadrature evaluates log_base at each grid's base
    coordinates, one row block at a time into a reused buffer: when the
    map from grid to base coordinates is axis-aligned, log_base receives a
    column and a row, and a product base is the outer sum of two 1-D
    log-density vectors.
    """

    log_base: object
    frame: np.ndarray
    base_support: tuple

    def __post_init__(self):
        object.__setattr__(self, "frame", _frozen(self.frame))
        L = self.frame
        if L.shape != (2, 2) or not np.isfinite(L).all():
            raise InvalidDistribution("frame must be a finite 2x2 matrix")
        if abs(np.linalg.det(L)) < 1e-12:
            raise SingularTransform("density frame is singular")

    def logpdf(self, points) -> np.ndarray:
        """ln of the density at observation points y, shape (..., 2): ln of
        the base at s = F⁻¹ y minus ln |det F|."""
        s = np.asarray(points, dtype=float) @ np.linalg.inv(self.frame).T
        # s is this call's own array, so log_base may overwrite it
        out = self.log_base(s[..., 0], s[..., 1], np.empty(s.shape[:-1]))
        out -= math.log(abs(np.linalg.det(self.frame)))
        return out

    def pdf(self, points) -> np.ndarray:
        """The density at observation points y, shape (..., 2)."""
        return np.exp(self.logpdf(points))

    def y_axis_support(self, axis: int):
        """Support interval along an observation axis, when it is exact.

        Only a diagonal frame maps base-axis boxes to observation-axis
        boxes; any other frame returns None and the axis is treated as
        unbounded by observation-aligned grids.
        """
        L = self.frame
        if abs(L[0, 1]) > 0 or abs(L[1, 0]) > 0:
            return None
        sup = self.base_support[axis]
        if sup is None:
            return None
        a = L[axis, axis]
        lo, hi = sup[0] * a, sup[1] * a
        return (min(lo, hi), max(lo, hi))


def _log_product(a: SourceSpec, b: SourceSpec):
    """The log base of a product density: ln a(s1) + ln b(s2), each taken
    in place, so a block of full coordinate arrays needs no temporary."""

    def log_base(s1, s2, out):
        return np.add(a.logpdf(s1, out=s1), b.logpdf(s2, out=s2), out=out)

    return log_base


def _float_array(x, error: type, message: str) -> np.ndarray:
    """x as a new float array; a ragged or non-numeric x raises
    error(message), the error its wrong shape raises."""
    try:
        return np.array(x, dtype=float)
    except (TypeError, ValueError):
        raise error(message) from None


def gaussian_density(cov) -> AnalyticDensity2D:
    """Zero-mean bivariate Gaussian: the standard normal pair, whose log is
    -(s1² + s2²)/2 - ln 2π, under the Cholesky factor of cov."""
    message = "need a 2x2 covariance"
    cov = _float_array(cov, DimensionMismatch, message)
    if cov.shape != (2, 2):
        raise DimensionMismatch(message)
    c00, c11 = cov[0, 0], cov[1, 1]
    c10 = 0.5 * (cov[0, 1] + cov[1, 0])
    # the lower-triangular L with cov = L Lᵀ; l11² is NaN, not positive,
    # when c00 is not positive or an entry is NaN
    l00 = math.sqrt(c00) if c00 > 0 else math.nan
    l10 = c10 / l00
    l11_sq = c11 - l10 * l10
    if not l11_sq > 0:
        raise InvalidDistribution("covariance is not positive definite")
    chol = [[l00, 0.0], [l10, math.sqrt(l11_sq)]]
    normal = SourceSpec("gaussian")
    return AnalyticDensity2D(_log_product(normal, normal), chol, (None, None))


def gaussian_mixture_density(weights, means, covs) -> AnalyticDensity2D:
    """Mixture of bivariate Gaussians with overall mean zero."""
    per_part = "mixture needs one positive weight per part"
    per_weight = "mixture needs one 2-vector mean per weight"
    w = _float_array(weights, InvalidDistribution, per_part)
    mu = _float_array(means, InvalidDistribution, per_weight)
    if w.ndim != 1 or mu.shape != (len(w), 2):
        raise InvalidDistribution(per_weight)
    parts = [gaussian_density(c) for c in covs]
    # written so that NaN, which fails every comparison, is refused; an
    # infinite weight makes the sum infinite
    if len(parts) != len(w) or not (w > 0).all():
        raise InvalidDistribution(per_part)
    if not abs(w.sum() - 1.0) <= 1e-12:
        raise InvalidDistribution("mixture weights must sum to 1")
    if not (np.isfinite(mu).all() and np.abs(w @ mu).max() <= 1e-12):
        raise InvalidDistribution("mixture means must be finite, with overall "
                                  "mean zero")

    def log_base(s1, s2, out):
        # log-sum-exp of ln wi + ln gi(s - mi) around the largest term,
        # which a Gaussian's log keeps finite wherever the grid reaches
        pts = np.stack(np.broadcast_arrays(s1, s2), axis=-1)
        terms = [math.log(wi) + g.logpdf(pts - mi)
                 for wi, mi, g in zip(w, mu, parts)]
        top = np.maximum.reduce(terms)
        np.log(sum(np.exp(t - top) for t in terms), out=out)
        out += top
        return out

    return AnalyticDensity2D(log_base, np.eye(2), (None, None))


def product_density(s1: SourceSpec, s2: SourceSpec) -> AnalyticDensity2D:
    """Independent pair of unit-variance scalar sources."""

    return AnalyticDensity2D(_log_product(s1, s2), np.eye(2),
                             (s1.support(), s2.support()))


def rotated_product_density(s1: SourceSpec, s2: SourceSpec,
                            angle_rad: float) -> AnalyticDensity2D:
    """Independent source pair rotated counterclockwise by the given angle:
    the image of their product density under R = [[c, -s], [s, c]]."""
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return linear_image(product_density(s1, s2), [[c, -s], [s, c]])


def linear_image(p: AnalyticDensity2D, A) -> AnalyticDensity2D:
    """Pushforward of p through an invertible linear map y -> A y: the same
    base under the frame A F."""
    message = "transform must be a finite 2x2 matrix"
    A = _float_array(A, SingularTransform, message)
    if A.shape != (2, 2) or not np.isfinite(A).all():
        raise SingularTransform(message)
    if abs(np.linalg.det(A)) < 1e-12:
        raise SingularTransform("transform is singular")
    return AnalyticDensity2D(p.log_base, A @ p.frame, p.base_support)


# -- quadrature grids -----------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Width of a quadrature grid's central cells.  A bounded axis takes
    cells of about the step whose edges meet the support's ends; an
    unbounded axis's cells widen as about step * cosh(u) towards its reach
    of +-SINH_REACH.  A step whose grid of two unbounded axes holds more
    than MAX_GRID_CELLS cells is refused here, and every grid a quadrature
    walks is checked again on its own supports (_grid_axes)."""

    step: float = 0.01

    def __post_init__(self):
        # a bool is a Real (True would grid at step 1); a string or None
        # would fail the comparison with a TypeError
        if (isinstance(self.step, bool) or not isinstance(self.step, numbers.Real)
                or not 0 < self.step < math.inf):
            raise InvalidDistribution("grid step must be a number, finite "
                                      "and > 0")
        _check_cells(None, None, self.step)


def _axis_count(support, step: float):
    """Cells of one axis at the step, a bounded axis's two padding cells
    included; inf for a step too fine to count them."""
    n = (2.0 * SINH_SCALE * SINH_U if support is None
         else support[1] - support[0]) / step
    if not n < MAX_GRID_CELLS:
        return math.inf
    return max(1, math.ceil(n - 1e-9)) + (0 if support is None else 2)


def _check_cells(xsupport, ysupport, step: float):
    # a grid of more than MAX_GRID_CELLS cells is InvalidDistribution
    cells = _axis_count(xsupport, step) * _axis_count(ysupport, step)
    if not cells <= MAX_GRID_CELLS:
        raise InvalidDistribution(
            f"grid at step {step:g} holds {cells:.3g} cells, more than "
            f"{MAX_GRID_CELLS}; coarsen the step")


def _grid_axes(xsupport, ysupport, step: float):
    """(sx, wx, sy, wy): _axis_cells of both axes of a grid, refused with
    InvalidDistribution before either is built if the grid holds more than
    MAX_GRID_CELLS cells: a bounded support that a diagonal frame has
    stretched can hold more cells than an unbounded axis."""
    _check_cells(xsupport, ysupport, step)
    return (*_axis_cells(xsupport, step), *_axis_cells(ysupport, step))


def _axis_cells(support, step: float):
    """Midpoint cell centers and widths for one axis.

    Bounded axes adjust the width so support edges land exactly on cell
    boundaries (padded by one cell of zero density each side); unbounded
    axes likewise fit their cells to [-SINH_U, SINH_U] in u, each at most
    step / SINH_SCALE wide there and SINH_SCALE cosh(u) times that in
    s = SINH_SCALE sinh(u), with s = 0 KINK_OFFSET of a cell from the
    nearest center.
    """
    n = _axis_count(support, step)
    if support is None:
        h = 2.0 * SINH_U / n
        u = h * (np.arange(n) - n // 2 + KINK_OFFSET)
        return SINH_SCALE * np.sinh(u), (h * SINH_SCALE) * np.cosh(u)
    lo_s, hi_s = support
    h = (hi_s - lo_s) / (n - 2)
    return lo_s - h + h * (np.arange(n) + 0.5), np.full(n, h)


def _log_blocks(p: AnalyticDensity2D, M: np.ndarray, sx: np.ndarray,
                sy: np.ndarray):
    """(rows, L, E) for each row block of the tensor grid sx x sy: L holds
    ln of p's base at the base coordinates s = M u of the block's points u,
    and E is an array of L's shape for the consumer's exp(L); both are views
    of buffers that each block overwrites.  log_base gets the coordinates as
    scratch: for a diagonal M a column and a row made afresh for each
    block, otherwise two more reused full planes."""
    step = max(1, QUAD_BLOCK_POINTS // len(sy))
    diagonal = M[0, 1] == 0 and M[1, 0] == 0
    row0 = M[0, 1] * sy
    row1 = M[1, 1] * sy
    buffers = np.empty((2 if diagonal else 4, min(step, len(sx)), len(sy)))
    for start in range(0, len(sx), step):
        rows = slice(start, start + step)
        u1 = sx[rows, None]
        L, E, *planes = buffers[:, :len(u1)]
        if diagonal:
            s1, s2 = M[0, 0] * u1, M[1, 1] * sy
        else:
            s1 = np.add(M[0, 0] * u1, row0, out=planes[0])
            s2 = np.add(M[1, 0] * u1, row1, out=planes[1])
        yield rows, p.log_base(s1, s2, L), E


def _weighable(L: np.ndarray, E: np.ndarray) -> np.ndarray:
    """L, made safe to weight by E = exp(L): if E holds a 0, every entry of
    L below LN_ZERO, -inf among them, is raised to it in place."""
    return np.maximum(L, LN_ZERO, out=L) if E.min() == 0 else L


def quad_kld_2d(p: AnalyticDensity2D, q: AnalyticDensity2D,
                grid: GridSpec = GridSpec()) -> float:
    """Midpoint-rule KLD(p || q) over p's own base grid.

    The divergence is summed over p's base grid, and q's mass is taken on
    q's own base grid, so each grid belongs to one density and holds at
    most MAX_GRID_CELLS cells.  InsufficientCoverage is raised unless at
    least 1 - 1e-4 of both masses is captured and q's density is positive,
    not underflowed, at every point where p's is.
    """
    sx, wx, sy, wy = _grid_axes(*p.base_support, grid.step)
    # P and Q are the bases' values: the densities times |det F| of p's
    # and q's frames, so their log ratio is ln P - ln Q + ln(det_q / det_p)
    det_p = abs(np.linalg.det(p.frame))
    det_q = abs(np.linalg.det(q.frame))
    sum_p = sum_p_log_ratio = 0.0  # the last sums P (ln P - ln Q)
    vanishes = False
    # p's base to q's: a solve may miss the identity of two equal frames by
    # round-off, and KLD(p || p) is exactly 0 only on equal coordinates
    to_q = (np.eye(2) if np.array_equal(p.frame, q.frame)
            else np.linalg.solve(q.frame, p.frame))
    for (rows, log_p, P), (_, log_q, Q) in zip(
            _log_blocks(p, np.eye(2), sx, sy), _log_blocks(q, to_q, sx, sy)):
        np.exp(log_p, out=P)
        np.exp(log_q, out=Q)
        # Q = 0, or underflowed, where P > 0 makes the divergence infinite
        vanishes = vanishes or (Q.min() == 0 and P[Q == 0].any())
        np.subtract(_weighable(log_p, P), _weighable(log_q, Q), out=log_q)
        # each cell weighs its area: wy in place, a row's wx on its sums
        P *= wy
        sum_p += wx[rows] @ P.sum(axis=1)
        sum_p_log_ratio += wx[rows] @ np.vecdot(P, log_q)
    # q's mass on q's own base grid
    qx, qwx, qy, qwy = _grid_axes(*q.base_support, grid.step)
    mass_q = sum(qwx[rows] @ np.vecdot(np.exp(L, out=Q), qwy)
                 for rows, L, Q in _log_blocks(q, np.eye(2), qx, qy))
    _check_mass(grid.step, sum_p, mass_q)
    if vanishes:
        raise InsufficientCoverage(
            f"q's density is 0 where p's is positive at step {grid.step:g}; "
            "the divergence is infinite or beyond the grid's range")
    return float(sum_p_log_ratio + math.log(det_q / det_p) * sum_p)


# -- the joint-identity report -------------------------------------------

def _check_mass(step: float, *masses: float):
    if not all(abs(m - 1.0) <= MASS_TOL for m in masses):
        raise InsufficientCoverage(
            f"grid captures mass {', '.join(f'{m:.6f}' for m in masses)} at "
            f"step {step:g}: the step is too coarse for the density, or the "
            f"density reaches beyond the grid's +-{SINH_REACH:.3g}")


def _grid_measure(p: AnalyticDensity2D, xs: np.ndarray, ys: np.ndarray,
                  wx: np.ndarray, wy: np.ndarray):
    """Sums of the normalized cell masses pi of p on the tensor grid
    xs x ys of observation coordinates, whose cells are wx x wy wide, in
    one walk of its row blocks: the row and column sums of pi, the mass
    the grid captures (unchecked), the uncentered second moments of pi,
    which its zero-mean Gaussian fit matches, and sum pi ln(pi / w), w
    each cell's area, which is minus the entropy of the grid density."""
    rows = np.empty(len(xs))
    cols = np.zeros(len(ys))
    cross = p_log_p = 0.0
    for block, L, P in _log_blocks(p, np.linalg.inv(p.frame), xs, ys):
        # P, p's base at the block's points, times each cell's area is its
        # cell masses up to the one factor 1 / |det F|: wy is taken in
        # place, and a row's wx on its sums
        np.exp(L, out=P)
        P *= wy
        w = wx[block]
        rows[block] = w * P.sum(axis=1)
        cols += np.einsum("i,ij->j", w, P)
        cross += (w * xs[block]) @ np.vecdot(P, ys)
        p_log_p += w @ np.vecdot(P, _weighable(L, P))
    total = rows.sum()
    mass = total / abs(np.linalg.det(p.frame))
    total = total or math.nan  # no mass: pi is NaN, and the check fails
    rows /= total
    cols /= total
    cross /= total
    m2 = np.array([[rows @ (xs * xs), cross], [cross, cols @ (ys * ys)]])
    # pi / w = P / total, so sum pi ln(pi / w) = sum P w ln P / total - ln total
    return rows, cols, mass, m2, p_log_p / total - math.log(total)


def _fit_cross_entropy(m2: np.ndarray) -> float:
    """sum pi ln q for a d-dimensional grid measure pi (d = 1 or 2) with
    uncentered second moments m2, q its zero-mean Gaussian fit:
    -(d + d ln 2 pi + ln det m2) / 2, because q's quadratic form averages
    to d under pi."""
    d = len(m2)
    det = m2[0, 0] if d == 1 else m2[0, 0] * m2[1, 1] - m2[0, 1] ** 2
    if det <= 0:
        raise InvalidDistribution("grid covariance is not positive definite")
    return -0.5 * (d + d * math.log(2.0 * math.pi) + math.log(det))


def verify_four_point_identity(p: AnalyticDensity2D,
                               grid: GridSpec = GridSpec()) -> dict:
    """Check the joint divergence identity on one density.

    All projection targets come from the same observation-aligned grid
    measure: marginals from row/column sums, Gaussian fits from the grid's
    second moments, so every divergence to a fit is sum pi ln(pi / w)
    minus a closed form, w the cells' sizes.  lhs = mutual information
    plus marginal non-Gaussianities; rhs = correlation plus joint
    non-Gaussianity.  Returns lhs, rhs, residual |lhs - rhs| and terms:
    every divergence of both sides, the shared hypotenuse (divergence to
    the independent Gaussian fit), the residual of each of its two
    decompositions and the grid's mass.
    """
    xs, wx, ys, wy = _grid_axes(p.y_axis_support(0), p.y_axis_support(1),
                                grid.step)
    px, py, mass, m2, neg_entropy = _grid_measure(p, xs, ys, wx, wy)
    _check_mass(grid.step, mass)
    # each marginal's sum pi ln(pi / w)
    h1 = _relative_entropy(px, np.log(wx))
    h2 = _relative_entropy(py, np.log(wy))
    f1 = _fit_cross_entropy(m2[:1, :1])
    f2 = _fit_cross_entropy(m2[1:, 1:])
    mutual_info = neg_entropy - h1 - h2
    g1, g2 = h1 - f1, h2 - f2
    g_joint = neg_entropy - _fit_cross_entropy(m2)
    hyp = neg_entropy - f1 - f2
    corr = correlation_C(Covariance(m2))

    lhs = mutual_info + g1 + g2
    rhs = corr + g_joint
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs), "terms": {
        "mutual_information": mutual_info,
        "marginal_negentropy_1": g1,
        "marginal_negentropy_2": g2,
        "sum_marginal_negentropies": g1 + g2,
        "correlation": corr,
        "joint_negentropy": g_joint,
        "hypotenuse_kld": hyp,
        "residual_product_route": abs(hyp - lhs),
        "residual_gaussian_route": abs(hyp - rhs),
        "mass": mass,
    }}


def _negentropy_quad(p: AnalyticDensity2D, grid: GridSpec) -> float:
    """Joint non-Gaussianity of p, measured on its base density on its own
    base grid: G does not change under p's frame, an invertible linear
    map, and the frame enters none of the grid's sums."""
    sx, wx, sy, wy = _grid_axes(*p.base_support, grid.step)
    base = AnalyticDensity2D(p.log_base, np.eye(2), p.base_support)
    _, _, mass, m2, neg_entropy = _grid_measure(base, sx, sy, wx, wy)
    _check_mass(grid.step, mass)
    return neg_entropy - _fit_cross_entropy(m2)


def gaussianity_invariance_check(p: AnalyticDensity2D, transform,
                                 grid: GridSpec = GridSpec()) -> float:
    """|G(p) - G(A p)| by quadrature of each one's base density.

    A p keeps p's base and support, and G is computed from the base alone,
    so the residual is exactly 0 for any invertible A by construction.  It
    checks that the frame never enters G, not the invariance of G on
    independently laid out grids."""
    g_before = _negentropy_quad(p, grid)
    g_after = _negentropy_quad(linear_image(p, transform), grid)
    return abs(g_before - g_after)


# -- built-in verification suite ------------------------------------------

def _check(name, lhs, rhs, threshold, terms=None):
    residual = abs(lhs - rhs)
    return {"name": name, "lhs": float(lhs), "rhs": float(rhs),
            "residual": float(residual), "threshold": float(threshold),
            "passed": bool(residual < threshold),
            "terms": {k: float(v) for k, v in (terms or {}).items()}}


def _report_check(name, report: dict, threshold):
    terms = report["terms"]
    entry = _check(name, report["lhs"], report["rhs"], threshold, terms)
    # the two route residuals must independently clear the threshold
    extra = max(terms.get("residual_product_route", 0.0),
                terms.get("residual_gaussian_route", 0.0))
    entry["passed"] = bool(entry["passed"] and extra < threshold)
    return entry


def builtin_suite(step: float = GridSpec.step) -> list[dict]:
    """The default `verify` run: every identity at its documented tolerance."""
    checks = []
    gen = Rng(20240901).generator()

    # exact discrete identities
    joint = DiscreteJoint([[0.4, 0.1], [0.1, 0.4]])
    exact_mi = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
    checks.append(_check("discrete_mi_symmetric_table",
                         discrete_mi(joint), exact_mi, 1e-12))
    checks.append(_check("discrete_mi_deterministic_coupling",
                         discrete_mi(DiscreteJoint([[0.5, 0.0], [0.0, 0.5]])),
                         math.log(2.0), 1e-12))
    checks.append(_report_check(
        "product_pythagoras_own_marginals",
        verify_product_pythagoras(joint, joint.marginals()), 1e-12))
    rnd = random_discrete_joint(4, 3, gen)
    t1 = np.full(4, 0.25)
    t2 = np.array([0.5, 0.3, 0.2])
    checks.append(_report_check(
        "product_pythagoras_random_targets",
        verify_product_pythagoras(rnd, (t1, t2)), 1e-12))

    # closed-form Gaussian geometry
    p_cov = Covariance([[1.0, 0.3], [0.3, 1.0]])
    t_cov = Covariance([[2.0, 0.0], [0.0, 2.0]])
    checks.append(_check("gaussian_pythagoras_closed_form",
                         verify_gaussian_pythagoras(p_cov, t_cov), 0.0, 1e-10))
    d = np.diag([1.7, 0.4])
    c0 = Covariance([[1.0, 0.5], [0.5, 1.0]])
    c1 = Covariance(d @ c0.matrix @ d)
    checks.append(_check("correlation_diagonal_scaling_exact",
                         correlation_C(c0), correlation_C(c1), 1e-10))

    # quadrature vs closed forms
    grid = GridSpec(step=step)
    rho_cov = [[1.0, 0.5], [0.5, 1.0]]
    iso_cov = [[1.0, 0.0], [0.0, 1.0]]
    rho = gaussian_density(rho_cov)
    iso = gaussian_density(iso_cov)
    kld_rho = quad_kld_2d(rho, iso, grid)
    checks.append(_check("quad_kld_gaussian_rho_half", kld_rho,
                         gaussian_kld(Covariance(rho_cov), Covariance(iso_cov)),
                         1e-4))
    checks.append(_check("quad_kld_self_zero",
                         quad_kld_2d(iso, iso, grid), 0.0, 1e-6))
    stretched = gaussian_density([[2.0, 0.0], [0.0, 1.0]])
    checks.append(_check("quad_kld_axis_stretch",
                         quad_kld_2d(stretched, iso, grid),
                         0.5 * (2.0 - 1.0 + math.log(0.5)) / 1.0, 1e-4))

    uniform = SourceSpec("uniform")
    laplace = SourceSpec("laplace")
    rot_unif = rotated_product_density(uniform, uniform, math.radians(45.0))
    g_pred = 2.0 * uniform.negentropy_nats()
    checks.append(_check("rotated_uniform_vs_gaussian_negentropy",
                         quad_kld_2d(rot_unif, iso, grid), g_pred, 1e-3))

    # joint identity on the three reference densities
    for name, dens in (
            ("four_point_gaussian_rho_half", rho),
            ("four_point_product_uniform_laplace",
             product_density(uniform, laplace)),
            ("four_point_rotated_laplace_30deg",
             rotated_product_density(laplace, laplace, math.radians(30.0)))):
        checks.append(_report_check(name, verify_four_point_identity(dens, grid),
                                    1e-3))

    # invariance under linear maps
    unif_prod = product_density(uniform, uniform)
    lap_prod = product_density(laplace, laplace)
    checks.append(_check("g_invariance_shear_on_uniform",
                         gaussianity_invariance_check(
                             unif_prod, [[2.0, 1.0], [0.0, 1.0]], grid),
                         0.0, 1e-3))
    th = math.radians(37.0)
    rot37 = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    checks.append(_check("g_invariance_rotation_on_laplace",
                         gaussianity_invariance_check(lap_prod, rot37, grid),
                         0.0, 1e-3))
    A = np.array([[1.1, 0.4], [-0.3, 0.9]])
    rhs = quad_kld_2d(linear_image(rho, A), linear_image(iso, A), grid)
    checks.append(_check("kld_invariance_linear_map", kld_rho, rhs, 1e-3))
    return checks


# -- user-supplied verify specs -------------------------------------------

def load_verify_spec(path) -> list[dict]:
    """Parse a JSON spec file into verification checks.

    Accepted shapes: {"joint": [[...]], "targets": [[...], [...]]} for a
    discrete table, or {"density": {"form": ..., ...}, "step": 0.01} for an
    analytic density fed to the joint-identity check.  A field that no check
    reads is an input error, as is one that the density's form does not
    read.  Every input error names the file; a check's own coverage failure
    does not.
    """
    spec = read_json(path, InvalidDistribution)
    checks = []
    try:
        if "joint" not in spec and "density" not in spec:
            raise InvalidDistribution("spec needs a 'joint' or 'density' field")
        # a field no check reads would be ignored, a misspelt step silently
        read = ({"joint", "targets"} if "joint" in spec else set()) | (
            {"density", "step"} if "density" in spec else set())
        _refuse_unread(spec, read, "a 'joint' spec reads 'joint' and "
                       "'targets', a 'density' spec 'density' and 'step'")
        if "joint" in spec:
            targets = spec.get("targets")
            if "targets" in spec and not (isinstance(targets, list)
                                          and len(targets) == 2):
                raise InvalidDistribution(
                    "field 'targets' must hold two marginal vectors")
            try:
                joint = DiscreteJoint(spec["joint"])
                report = verify_product_pythagoras(joint, targets
                                                   or joint.marginals())
            except (TypeError, ValueError) as exc:
                raise InvalidDistribution("field 'joint' or 'targets' is not "
                                          f"a numeric table: {exc}") from exc
            checks.append(_report_check("user_product_pythagoras", report,
                                        1e-12))
        if "density" in spec:
            dens = _density_from_json(spec["density"])
            grid = GridSpec(step=spec.get("step", GridSpec.step))
    except IcageoError as exc:
        raise InvalidDistribution(f"{path}: {exc}") from exc
    if "density" in spec:
        checks.append(_report_check("user_four_point_identity",
                                    verify_four_point_identity(dens, grid),
                                    1e-3))
    return checks


def _refuse_unread(obj: dict, read, what: str):
    # InvalidDistribution naming every key of obj outside read
    unread = sorted(obj.keys() - read)
    if unread:
        raise InvalidDistribution(
            f"unread field {', '.join(map(repr, unread))}: {what}")


# the fields each density form of a spec reads
DENSITY_FIELDS = {"gaussian": ("form", "cov"),
                  "gaussian_mixture": ("form", "weights", "means", "covs"),
                  "product_of_1d": ("form", "sources"),
                  "rotated_product": ("form", "sources", "angle_deg")}


def _density_from_json(obj) -> AnalyticDensity2D:
    if not isinstance(obj, dict) or "form" not in obj:
        raise InvalidDistribution("density needs a 'form' field")
    form = obj["form"]
    if not isinstance(form, str) or form not in DENSITY_FIELDS:
        raise InvalidDistribution(f"unknown density form {form!r}")
    _refuse_unread(obj, DENSITY_FIELDS[form], f"density form {form!r} reads "
                   f"{', '.join(map(repr, DENSITY_FIELDS[form]))}")
    try:
        if form == "gaussian":
            return gaussian_density(obj["cov"])
        if form == "gaussian_mixture":
            return gaussian_mixture_density(obj["weights"], obj["means"],
                                            obj["covs"])
        sources = obj["sources"]
        if not (isinstance(sources, list) and len(sources) == 2):
            raise InvalidDistribution(
                f"'sources' must be a list of two names, got {sources!r}")
        a, b = map(parse_source, sources)
        if form == "product_of_1d":
            return product_density(a, b)
        return rotated_product_density(a, b,
                                       math.radians(float(obj["angle_deg"])))
    except (KeyError, TypeError, ValueError) as exc:
        # absent keys, wrong types, ragged matrices
        raise InvalidDistribution(f"density form {form!r} has a missing or "
                                  f"malformed field: {exc}") from exc
