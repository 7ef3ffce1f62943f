"""The blocked base-coordinate quadrature against whole-grid references.

The references below evaluate each grid at once, in observation
coordinates, with the Gaussian pdfs' quadratic forms taken by einsum, and
sum each relative entropy over the cells where its first density is
positive.  The blocked code evaluates the log of each density's base at
the grid's base coordinates and sums the same terms in another order, so
every value must agree to 1e-12, and the coverage check must fail on the
same inputs.
Every cell is weighted by its own area, the product of its two axis
widths.  The built-in suite must also keep the values recorded in
builtin_suite_values.json.
"""
import json
import math
from pathlib import Path
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from icageo import (GridSpec, IcageoError, InsufficientCoverage,
                    builtin_suite, gaussian_density, gaussian_mixture_density,
                    linear_image, product_density, quad_kld_2d,
                    rotated_product_density, verify_four_point_identity)
from icageo.oracle import (MASS_TOL, QUAD_BLOCK_POINTS, AnalyticDensity2D,
                           _axis_cells, _log_blocks, _negentropy_quad)
from icageo.sources import parse_source

TOL = 1e-12


# -- the whole-grid references -------------------------------------------------

def check_mass(*masses):
    if any(abs(m - 1.0) > MASS_TOL for m in masses):
        raise InsufficientCoverage("reference grid misses mass")


def as_base_density(pdf, frame):
    """The density with observation-space pdf under `frame`, as a base
    density given by its log: ln base(s) = ln(pdf(F s) |det F|)."""
    frame = np.asarray(frame, dtype=float)
    jac = abs(np.linalg.det(frame))

    def log_base(s1, s2, out):
        s = np.stack(np.broadcast_arrays(s1, s2), axis=-1)
        with np.errstate(divide="ignore"):
            return np.log(pdf(s @ frame.T) * jac, out=out)

    return AnalyticDensity2D(log_base, frame, (None, None))


def reference_gaussian_density(cov):
    cov = np.array(cov, dtype=float)
    chol = np.linalg.cholesky(0.5 * (cov + cov.T))
    prec = np.linalg.inv(cov)
    norm = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))

    def pdf(points):
        pts = np.asarray(points, dtype=float)
        quad = np.einsum("...i,ij,...j->...", pts, prec, pts)
        return norm * np.exp(-0.5 * quad)

    return as_base_density(pdf, chol)


def reference_gaussian_mixture_density(weights, means, covs):
    w = np.asarray(weights, dtype=float)
    mu = np.asarray(means, dtype=float).reshape(len(w), 2)
    sig = [np.array(c, dtype=float) for c in covs]
    precs = [np.linalg.inv(c) for c in sig]
    norms = [1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(c))) for c in sig]

    def pdf(points):
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for wi, mi, pr, nm in zip(w, mu, precs, norms):
            d = pts - mi
            quad = np.einsum("...i,ij,...j->...", d, pr, d)
            out += wi * nm * np.exp(-0.5 * quad)
        return out

    return as_base_density(pdf, np.eye(2))


def reference_base_grid(p, grid):
    """The observation points of p's base grid, and each one's cell area
    in observation coordinates."""
    sx, wx = _axis_cells(p.base_support[0], grid.step)
    sy, wy = _axis_cells(p.base_support[1], grid.step)
    S = np.stack(np.meshgrid(sx, sy, indexing="ij"), axis=-1)
    return S @ p.frame.T, np.outer(wx, wy) * abs(np.linalg.det(p.frame))


def reference_quad_kld_2d(p, q, grid):
    # the divergence over p's base grid; q's mass on q's own base grid
    Y, cell = reference_base_grid(p, grid)
    Yq, q_cell = reference_base_grid(q, grid)
    P = p.pdf(Y)
    Q = q.pdf(Y)
    check_mass(float((P * cell).sum()), float((q.pdf(Yq) * q_cell).sum()))
    mask = P > 0
    if (Q[mask] == 0).any():
        raise InsufficientCoverage("q vanishes where p does not")
    vals = (P * cell)[mask] * (np.log(P[mask]) - np.log(Q[mask]))
    return float(vals.sum())


def reference_log_gauss_1d(x, var):
    return -0.5 * (x * x / var + math.log(2.0 * math.pi * var))


def reference_log_gauss_2d(xx, yy, m2):
    det = m2[0, 0] * m2[1, 1] - m2[0, 1] ** 2
    a = m2[1, 1] / det
    b = m2[0, 0] / det
    c = -m2[0, 1] / det
    quad = a * xx * xx + 2.0 * c * xx * yy + b * yy * yy
    return -0.5 * quad - math.log(2.0 * math.pi) - 0.5 * math.log(det)


def reference_four_point(p, grid):
    """lhs, rhs, residual and terms of the whole-grid joint identity."""
    xs, wx = _axis_cells(p.y_axis_support(0), grid.step)
    ys, wy = _axis_cells(p.y_axis_support(1), grid.step)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    P = p.pdf(np.stack([xx, yy], axis=-1))
    w = np.outer(wx, wy)
    mass = float((P * w).sum())
    check_mass(mass)
    pi = P * w
    pi /= pi.sum()
    px = pi.sum(axis=1)
    py = pi.sum(axis=0)
    m2 = np.empty((2, 2))
    m2[0, 0] = float(np.sum(px * xs * xs))
    m2[1, 1] = float(np.sum(py * ys * ys))
    m2[0, 1] = m2[1, 0] = float(np.sum(pi * xx * yy))
    log_phi1 = reference_log_gauss_1d(xs, m2[0, 0]) + np.log(wx)
    log_phi2 = reference_log_gauss_1d(ys, m2[1, 1]) + np.log(wy)
    log_phi_joint = reference_log_gauss_2d(xx, yy, m2) + np.log(w)
    log_phi_indep = log_phi1[:, None] + log_phi2[None, :]
    mask = pi > 0
    log_pi = np.log(pi[mask])
    mx = px > 0
    my = py > 0
    log_px = np.log(px, out=np.zeros_like(px), where=mx)
    log_py = np.log(py, out=np.zeros_like(py), where=my)
    log_pxpy = (log_px[:, None] + log_py[None, :])[mask]
    mutual_info = float(np.sum(pi[mask] * (log_pi - log_pxpy)))
    g1 = float(np.sum(px[mx] * (np.log(px[mx]) - log_phi1[mx])))
    g2 = float(np.sum(py[my] * (np.log(py[my]) - log_phi2[my])))
    g_joint = float(np.sum(pi[mask] * (log_pi - log_phi_joint[mask])))
    hyp = float(np.sum(pi[mask] * (log_pi - log_phi_indep[mask])))
    corr = 0.5 * (math.log(m2[0, 0] * m2[1, 1])
                  - math.log(m2[0, 0] * m2[1, 1] - m2[0, 1] ** 2))
    lhs = mutual_info + g1 + g2
    rhs = corr + g_joint
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "mutual_information": mutual_info, "marginal_negentropy_1": g1,
            "marginal_negentropy_2": g2, "sum_marginal_negentropies": g1 + g2,
            "correlation": corr, "joint_negentropy": g_joint,
            "hypotenuse_kld": hyp, "residual_product_route": abs(hyp - lhs),
            "residual_gaussian_route": abs(hyp - rhs), "mass": mass}


def reference_negentropy_quad(p, grid):
    Y, cell = reference_base_grid(p, grid)
    P = p.pdf(Y)
    check_mass(float((P * cell).sum()))
    pi = P * cell
    pi /= pi.sum()
    y1 = Y[..., 0]
    y2 = Y[..., 1]
    m2 = np.empty((2, 2))
    m2[0, 0] = float(np.sum(pi * y1 * y1))
    m2[1, 1] = float(np.sum(pi * y2 * y2))
    m2[0, 1] = m2[1, 0] = float(np.sum(pi * y1 * y2))
    log_phi = reference_log_gauss_2d(y1, y2, m2) + np.log(cell)
    mask = pi > 0
    return float(np.sum(pi[mask] * (np.log(pi[mask]) - log_phi[mask])))


# -- drawn densities and grids -------------------------------------------------

SOURCES = ["uniform", "laplace", "generalized-gaussian(4)"]


def build(case):
    """(density, reference density) for one drawn case."""
    kind, args, image = case
    if kind == "gaussian":
        v1, v2, r = args
        cov = [[v1, r * math.sqrt(v1 * v2)], [r * math.sqrt(v1 * v2), v2]]
        pair = gaussian_density(cov), reference_gaussian_density(cov)
    elif kind == "mixture":
        # "wide" is one Gaussian of variance 100, of which a grid reaching
        # +-15.3 keeps 76%: every quadrature of it fails the coverage check
        parts = (([1.0], [[0.0, 0.0]], [[[100.0, 0.0], [0.0, 100.0]]])
                 if args == "wide" else
                 ([0.4, 0.6], [[1.2, 0.6], [-0.8, -0.4]],
                  [[[0.5, 0.1], [0.1, 0.4]], [[0.6, -0.1], [-0.1, 0.5]]]))
        pair = (gaussian_mixture_density(*parts),
                reference_gaussian_mixture_density(*parts))
    else:
        a, b, angle = args
        s1, s2 = parse_source(a), parse_source(b)
        dens = (product_density(s1, s2) if kind == "product"
                else rotated_product_density(s1, s2, math.radians(angle)))
        pair = dens, dens  # these pdfs are unchanged
    if image is not None:
        pair = tuple(linear_image(d, image) for d in pair)
    return pair


CASE = st.one_of(
    st.tuples(st.just("gaussian"),
              st.tuples(st.floats(0.4, 2.0), st.floats(0.4, 2.0),
                        st.floats(-0.8, 0.8))),
    st.tuples(st.sampled_from(["product", "rotated"]),
              st.tuples(st.sampled_from(SOURCES), st.sampled_from(SOURCES),
                        st.floats(0.0, 90.0))),
    st.tuples(st.just("mixture"), st.sampled_from([None, "wide"])),
).flatmap(lambda c: st.tuples(
    st.just(c[0]), st.just(c[1]),
    st.one_of(st.none(), st.sampled_from(
        [[[1.1, 0.4], [-0.3, 0.9]], [[0.8, 0.0], [0.5, 1.2]],
         [[1.3, -0.2], [0.0, 0.7]]]))))
# most steps in this range give a row count that is no multiple of a block
STEP = st.floats(0.02, 0.05)

QUAD_SETTINGS = settings(max_examples=40,
                         suppress_health_check=[HealthCheck.too_slow])

GAUSS = ("gaussian", (1.0, 1.0, 0.5), None)
UNIFORM_PAIR = ("product", ("uniform", "uniform", 0.0), None)
WIDE = ("mixture", "wide", None)


def outcome(fn, *args):
    """The value, or the type of the error raised."""
    try:
        return fn(*args)
    except IcageoError as exc:
        return type(exc)


def assert_same(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    if isinstance(want, dict):
        assert set(got) == set(want)
        for k in want:
            assert abs(got[k] - want[k]) <= TOL, k
    else:
        assert abs(got - want) <= TOL


@QUAD_SETTINGS
@given(case=CASE, target=CASE, step=STEP)
@example(case=WIDE, target=GAUSS, step=0.02)
@example(case=GAUSS, target=WIDE, step=0.02)
def test_quad_kld_2d_matches_whole_grid(case, target, step):
    (p, p_ref), (q, q_ref) = build(case), build(target)
    grid = GridSpec(step=step)
    assert_same(outcome(quad_kld_2d, p, q, grid),
                outcome(reference_quad_kld_2d, p_ref, q_ref, grid))


@pytest.mark.parametrize("p, q, grid", [
    # q underflows beyond |y1| of about 38.6, inside p's grid of +-153;
    # flooring ln q there gave 47.178 against the closed form 47.197
    (gaussian_density([[100.0, 0.0], [0.0, 1.0]]), gaussian_density(np.eye(2)),
     GridSpec()),
    # q is 0 off a rotated square that p's Gaussian mass overhangs, so the
    # KLD is +inf; flooring ln q gave 140.10
    (build(("mixture", None, None))[0],
     rotated_product_density(parse_source("uniform"), parse_source("uniform"),
                             math.radians(30.0)), GridSpec(step=0.02)),
], ids=["underflow", "infinite"])
def test_quad_kld_2d_refuses_where_q_vanishes_and_p_does_not(p, q, grid):
    with pytest.raises(InsufficientCoverage, match="q's density is 0"):
        quad_kld_2d(p, q, grid)


def four_point(p, grid):
    rep = verify_four_point_identity(p, grid)
    return {"lhs": rep["lhs"], "rhs": rep["rhs"], "residual": rep["residual"],
            **rep["terms"]}


@QUAD_SETTINGS
@given(case=CASE, step=STEP)
@example(case=WIDE, step=0.02)
@example(case=UNIFORM_PAIR, step=0.05)
def test_four_point_identity_matches_whole_grid(case, step):
    p, p_ref = build(case)
    grid = GridSpec(step=step)
    assert_same(outcome(four_point, p, grid),
                outcome(reference_four_point, p_ref, grid))


@QUAD_SETTINGS
@given(case=CASE, step=STEP)
@example(case=WIDE, step=0.02)
@example(case=UNIFORM_PAIR, step=0.05)
def test_negentropy_quad_matches_whole_grid(case, step):
    p, p_ref = build(case)
    grid = GridSpec(step=step)
    assert_same(outcome(_negentropy_quad, p, grid),
                outcome(reference_negentropy_quad, p_ref, grid))


@pytest.mark.parametrize("M", [
    [[0.8, -0.6], [0.6, 0.8]],                # a rotation: full blocks
    [[1.5, 0.0], [0.0, -0.5]],                # diagonal: a column and a row
], ids=["rotation", "diagonal"])
@pytest.mark.parametrize("nx, ny", [
    (3, 80),                                  # fewer rows than one block
    (5 * (QUAD_BLOCK_POINTS // 800), 800),    # a multiple of the block
    (1001, 1600),                             # not a multiple
    (4, QUAD_BLOCK_POINTS + 1),               # rows wider than a block
])
def test_base_blocks_tile_the_whole_grid(nx, ny, M):
    M = np.array(M)
    sx = np.linspace(-1.0, 1.0, nx)
    sy = np.linspace(-2.0, 2.0, ny)
    seen = []

    def log_base(s1, s2, out):
        # copied, since a non-diagonal M's blocks share two buffers
        seen.append([a.copy() for a in np.broadcast_arrays(s1, s2)])
        return out

    p = AnalyticDensity2D(log_base, np.eye(2), (None, None))
    rows = [r for r, _, _ in _log_blocks(p, M, sx, sy)]
    blocks = [(r, *s) for r, s in zip(rows, seen)]
    rows = [range(nx)[r] for r, _, _ in blocks]
    assert [i for r in rows for i in r] == list(range(nx))
    for r, s1, s2 in blocks:
        assert s1.shape == s2.shape == (len(range(nx)[r]), ny)
        assert s1.shape[0] * ny <= max(QUAD_BLOCK_POINTS, ny)
    S = np.stack(np.meshgrid(sx, sy, indexing="ij"), axis=-1)
    np.testing.assert_allclose(
        np.concatenate([np.stack([s1, s2], axis=-1) for _, s1, s2 in blocks]),
        S @ M.T, rtol=0, atol=1e-15)


def test_builtin_suite_keeps_recorded_values():
    path = Path(__file__).with_name("builtin_suite_values.json")
    want = json.loads(path.read_text(encoding="utf-8"))
    got = builtin_suite()
    assert [(c["name"], c["passed"]) for c in got] == [
        (c["name"], c["passed"]) for c in want]
    for g, w in zip(got, want):
        assert abs(g["lhs"] - w["lhs"]) <= TOL, g["name"]
        assert abs(g["rhs"] - w["rhs"]) <= TOL, g["name"]
        assert list(g["terms"]) == list(w["terms"]), g["name"]
        for k in w["terms"]:
            assert abs(g["terms"][k] - w["terms"][k]) <= TOL, (g["name"], k)


def test_builtin_suite_memory_is_bounded():
    # the whole-grid suite peaked at 275 MiB, and the blocked suite that
    # kept one cell-mass array per grid measure at 21.8 MiB; a streamed
    # grid keeps a few block buffers
    tracemalloc.start()
    try:
        builtin_suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20
