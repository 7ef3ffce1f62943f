"""Tests for the exact reference distributions and identity checks."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from icageo import (Covariance, DimensionMismatch, DiscreteJoint, GridSpec,
                    InsufficientCoverage, InvalidDistribution, IoError,
                    SingularTransform, SourceSpec, builtin_suite, discrete_mi,
                    gaussian_density, gaussian_kld, gaussian_mixture_density,
                    gaussianity_invariance_check, linear_image,
                    load_verify_spec, product_density, quad_kld_2d,
                    random_discrete_joint, rotated_product_density,
                    verify_four_point_identity, verify_product_pythagoras)
from icageo import oracle
from icageo.oracle import AnalyticDensity2D, _report_check

# hand-computed sum p ln(p/(px py)) for the 2x2 table below
TABLE = [[0.30, 0.10], [0.05, 0.55]]
TABLE_MI = 0.2504109913534126
KLD_RHO_HALF = 0.14384103622589045
UNIFORM_NEGENT = 0.1764852083106725
LAPLACE_NEGENT = 0.07236494292469997

# continuum mutual information of the 30-degree rotated Laplace pair:
# 2 h(y1) - 2 h(laplace), where y1 = s1 cos 30 - s2 sin 30 sums two
# Laplace variables of scales a, c and has the density
# (a e^(-|x|/a) - c e^(-|x|/c)) / (2 (a^2 - c^2)); h(y1) by 30-digit
# quadrature of that density
ROT_LAP_MI_CONTINUUM = 0.08077963654469523

COARSE = GridSpec(step=0.02)


# -- discrete tables ----------------------------------------------------------

def test_discrete_joint_validation():
    DiscreteJoint(TABLE)
    with pytest.raises(InvalidDistribution):
        DiscreteJoint([[0.5, -0.1], [0.3, 0.3]])
    with pytest.raises(InvalidDistribution):
        DiscreteJoint([[0.5, 0.4]])  # sums to 0.9
    with pytest.raises(InvalidDistribution):
        DiscreteJoint([[0.5, 0.5], [0.0, 0.0]])  # zero row
    with pytest.raises(InvalidDistribution):
        DiscreteJoint([0.5, 0.5])  # not 2-D


def test_discrete_mi_known_values():
    assert_allclose(discrete_mi(DiscreteJoint(TABLE)), TABLE_MI,
                    rtol=0, atol=1e-15)
    # perfectly coupled two-state table carries exactly ln 2
    coupled = DiscreteJoint([[0.5, 0.0], [0.0, 0.5]])
    assert_allclose(discrete_mi(coupled), math.log(2.0), rtol=0, atol=1e-15)
    # product table carries zero up to round-off
    px = np.array([0.3, 0.7])
    py = np.array([0.2, 0.5, 0.3])
    assert abs(discrete_mi(DiscreteJoint(np.outer(px, py)))) < 1e-15


def test_product_pythagoras_with_own_marginals():
    joint = DiscreteJoint(TABLE)
    rep = verify_product_pythagoras(joint, joint.marginals())
    assert set(rep) == {"lhs", "rhs", "residual", "terms"}
    assert rep["residual"] < 1e-15
    # with the joint's own marginals the divergence is exactly the MI
    assert_allclose(rep["lhs"], TABLE_MI, rtol=0, atol=1e-15)
    assert rep["terms"]["marginal_kld_1"] == 0.0


def test_product_pythagoras_random_sweep():
    gen = np.random.default_rng(100)
    for _ in range(50):
        k1 = int(gen.integers(2, 6))
        k2 = int(gen.integers(2, 6))
        joint = random_discrete_joint(k1, k2, gen)
        tx = gen.random(k1) + 0.05
        ty = gen.random(k2) + 0.05
        tx, ty = tx / tx.sum(), ty / ty.sum()
        tx[0] += 1.0 - tx.sum()
        ty[0] += 1.0 - ty.sum()
        rep = verify_product_pythagoras(joint, (tx, ty))
        assert rep["residual"] < 1e-12
        assert rep["terms"]["mutual_information"] >= 0.0


def entropy(p):
    return -float(np.sum(p * np.log(p)))


def random_marginal(k, gen):
    t = gen.random(k) + 0.05
    t /= t.sum()
    t[0] += 1.0 - t.sum()
    return t


@settings(max_examples=200)
@given(k1=st.integers(1, 8), k2=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_discrete_identities_hold_on_random_tables(k1, k2, seed):
    gen = np.random.default_rng(seed)
    joint = random_discrete_joint(k1, k2, gen)
    px, py = joint.marginals()
    mi = discrete_mi(joint)
    assert abs(mi - (entropy(px) + entropy(py)
                     - entropy(joint.probabilities))) <= 1e-12
    assert mi >= -1e-12
    rep = verify_product_pythagoras(joint, (random_marginal(k1, gen),
                                            random_marginal(k2, gen)))
    assert rep["residual"] <= 1e-12
    assert rep["terms"]["mutual_information"] == mi
    own = verify_product_pythagoras(joint, (px, py))
    assert abs(own["lhs"] - mi) <= 1e-12 and own["residual"] <= 1e-12


def test_product_pythagoras_rejects_bad_targets():
    joint = DiscreteJoint(TABLE)
    with pytest.raises(DimensionMismatch):
        verify_product_pythagoras(joint, (np.ones(3) / 3, np.ones(2) / 2))
    with pytest.raises(InvalidDistribution):
        verify_product_pythagoras(joint, (np.array([1.0, 0.0]),
                                          np.array([0.5, 0.5])))


def test_random_discrete_joint_is_exact_and_reproducible():
    a = random_discrete_joint(5, 4, np.random.default_rng(7))
    b = random_discrete_joint(5, 4, np.random.default_rng(7))
    assert a.probabilities.sum() == 1.0
    assert (a.probabilities > 0).all()
    assert_allclose(a.probabilities, b.probabilities, rtol=0, atol=0)


# -- analytic densities ----------------------------------------------------------

def test_gaussian_density_normalized_on_grid():
    p = gaussian_density([[1.0, 0.5], [0.5, 1.0]])
    xs = np.linspace(-8, 8, 801)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    mass = p.pdf(np.stack([xx, yy], axis=-1)).sum() * (xs[1] - xs[0]) ** 2
    assert_allclose(mass, 1.0, atol=1e-6)


def test_product_density_support_is_exact():
    p = product_density(SourceSpec("uniform"), SourceSpec("laplace"))
    lo, hi = p.y_axis_support(0)
    assert_allclose([lo, hi], [-math.sqrt(3), math.sqrt(3)])
    assert p.y_axis_support(1) is None  # Laplace is unbounded
    # rotation destroys axis alignment, so no exact support either way
    r = rotated_product_density(SourceSpec("uniform"), SourceSpec("uniform"),
                                math.radians(30.0))
    assert r.y_axis_support(0) is None


def test_gaussian_mixture_validation():
    eye = [[1.0, 0.0], [0.0, 1.0]]
    gaussian_mixture_density([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], [eye, eye])
    with pytest.raises(InvalidDistribution):
        gaussian_mixture_density([0.6, 0.5], [[1.0, 0.0], [-1.0, 0.0]],
                                 [eye, eye])  # weights sum to 1.1
    with pytest.raises(InvalidDistribution):
        gaussian_mixture_density([0.5, 0.5], [[1.0, 0.0], [-0.5, 0.0]],
                                 [eye, eye])  # overall mean not zero
    with pytest.raises(InvalidDistribution):
        gaussian_mixture_density([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]],
                                 [eye])  # one covariance for two parts
    for weights, means in [
            ([math.nan, 0.5], [[1.0, 0.0], [-1.0, 0.0]]),
            ([math.inf, 0.5], [[0.0, 0.0], [0.0, 0.0]]),
            ([0.5, 0.5], [[math.nan, 0.0], [0.0, 0.0]]),
            ([0.5, 0.5], [[math.inf, 0.0], [-math.inf, 0.0]]),
            ([0.5, 0.5], [[0.0, 0.0]]),  # one mean for two parts
            ([0.5, 0.5], [1.0, 0.0, -1.0, 0.0]),  # not 2-vectors
            ([0.5, 0.5], [[1.0], [-1.0]])]:
        with pytest.raises(InvalidDistribution):
            gaussian_mixture_density(weights, means, [eye, eye])


EYE = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("call,error,message", [
    (lambda: gaussian_density([[1, 0], [0]]), DimensionMismatch,
     "need a 2x2 covariance"),
    (lambda: gaussian_mixture_density([0.5, 0.5], [[1, 0], [-1]], [EYE] * 2),
     InvalidDistribution, "one 2-vector mean per weight"),
    (lambda: gaussian_mixture_density(["a", "b"], [[1, 0], [-1, 0]], [EYE] * 2),
     InvalidDistribution, "one positive weight per part"),
    (lambda: linear_image(gaussian_density(EYE), [[1, 0], [0]]),
     SingularTransform, "finite 2x2 matrix"),
    (lambda: linear_image(gaussian_density(EYE), [["a", 0], [0, 1]]),
     SingularTransform, "finite 2x2 matrix"),
], ids=["cov-ragged", "means-ragged", "weights-text", "transform-ragged",
        "transform-text"])
def test_ragged_or_text_density_input_raises_its_shape_error(call, error,
                                                               message):
    # the error a wrong shape raises, not numpy's bare ValueError
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]],
                                 [[1.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [0.0, 1.0]]])
def test_covariance_that_is_not_positive_definite_is_refused(cov):
    with pytest.raises(InvalidDistribution, match="not positive definite"):
        gaussian_density(cov)
    eye = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(InvalidDistribution, match="not positive definite"):
        gaussian_mixture_density([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]],
                                 [eye, cov])


def test_gaussian_frame_is_the_cholesky_factor():
    cov = np.array([[1.3, -0.4], [-0.4, 0.7]])
    p = gaussian_density(cov)
    assert_allclose(p.frame, np.linalg.cholesky(cov), rtol=1e-15, atol=0)
    pts = np.random.default_rng(4).standard_normal((50, 2))
    quad = np.einsum("ni,ij,nj->n", pts, np.linalg.inv(cov), pts)
    want = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
    assert_allclose(p.pdf(pts), want, rtol=1e-13)


def test_linear_image_matches_transformed_gaussian():
    S = np.array([[1.0, 0.3], [0.3, 0.8]])
    A = np.array([[1.2, -0.4], [0.5, 0.9]])
    img = linear_image(gaussian_density(S), A)
    direct = gaussian_density(A @ S @ A.T)
    pts = np.random.default_rng(0).standard_normal((200, 2))
    assert_allclose(img.pdf(pts), direct.pdf(pts), rtol=1e-12)
    with pytest.raises(SingularTransform):
        linear_image(gaussian_density(S), [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularTransform):
        linear_image(gaussian_density(S), [[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(SingularTransform):
        AnalyticDensity2D(lambda s1, s2, out: out, [[1.0, 2.0], [2.0, 4.0]],
                          (None, None))


@pytest.mark.parametrize("degrees", [30.0, 45.0])
def test_rotated_product_turns_counterclockwise(degrees):
    s1, s2 = SourceSpec("uniform"), SourceSpec("laplace")
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    rot = rotated_product_density(s1, s2, math.radians(degrees))
    assert_array_equal(rot.frame, [[c, -s], [s, c]])
    y = np.random.default_rng(3).uniform(-3.0, 3.0, (400, 2))
    want = s1.pdf(c * y[:, 0] + s * y[:, 1]) * s2.pdf(-s * y[:, 0]
                                                      + c * y[:, 1])
    assert (want > 0).sum() > 100
    assert_allclose(rot.pdf(y), want, rtol=1e-13, atol=0)


# -- quadrature KLD ----------------------------------------------------------------

def test_quad_kld_gaussian_closed_form():
    rho = gaussian_density([[1.0, 0.5], [0.5, 1.0]])
    iso = gaussian_density([[1.0, 0.0], [0.0, 1.0]])
    assert_allclose(quad_kld_2d(rho, iso, COARSE), KLD_RHO_HALF, atol=1e-6)
    assert abs(quad_kld_2d(iso, iso, COARSE)) < 1e-9


def test_quad_kld_of_a_density_with_itself_is_exactly_zero():
    # a solve of the frame against itself misses the identity by round-off
    p = linear_image(gaussian_density([[1.0, 0.5], [0.5, 1.0]]),
                     [[1.1, 0.4], [-0.3, 0.9]])
    assert quad_kld_2d(p, p, COARSE) == 0.0


def test_quad_kld_walks_only_grids_of_one_density(monkeypatch):
    # p's grid holds 400 cells an axis at step 0.02; widened to cover q's,
    # five times wider, it would reach +-76 in p's coordinates
    lengths = []
    axis_cells = oracle._axis_cells

    def recorded(*args):
        centers, h = axis_cells(*args)
        lengths.append(len(centers))
        return centers, h

    monkeypatch.setattr(oracle, "_axis_cells", recorded)
    iso = gaussian_density(np.eye(2))
    kld = quad_kld_2d(iso, gaussian_density(25 * np.eye(2)), COARSE)
    assert lengths and max(lengths) <= 400
    assert abs(kld - gaussian_kld(Covariance(np.eye(2)),
                                  Covariance(25 * np.eye(2)))) <= 1e-4


def test_quad_kld_rotated_uniform_negentropy():
    # a rotated uniform square keeps identity covariance, so its KLD to the
    # standard Gaussian equals twice the uniform negentropy
    rot = rotated_product_density(SourceSpec("uniform"), SourceSpec("uniform"),
                                  math.radians(45.0))
    iso = gaussian_density([[1.0, 0.0], [0.0, 1.0]])
    assert_allclose(quad_kld_2d(rot, iso, COARSE), 2 * UNIFORM_NEGENT,
                    atol=1e-3)


def test_quad_kld_raises_when_box_too_small():
    # a mixture's frame is the identity, so its base grid reaches +-15.3,
    # which keeps only 76% of a Gaussian of variance 100
    wide = gaussian_mixture_density([1.0], [[0.0, 0.0]],
                                    [[[100.0, 0.0], [0.0, 100.0]]])
    iso = gaussian_density([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InsufficientCoverage, match="mass 0.764165, 1.000000 "
                       "at step 0.02: .* beyond the grid's [+]-15.3$"):
        quad_kld_2d(wide, iso, COARSE)


def test_grid_spec_validation_and_halving():
    # a bool would grid at step 1; text and None fail a comparison
    for step in (0.0, -0.01, True, "0.1", None):
        with pytest.raises(InvalidDistribution, match="finite and > 0"):
            GridSpec(step=step)


def test_grid_spec_rejects_unbounded_work():
    for step in (math.inf, math.nan, 1e-5, 1e-320):
        with pytest.raises(InvalidDistribution):
            GridSpec(step=step)
    # the finest grid the tests build stays admitted
    assert GridSpec(step=0.005).step == 0.005
    # 5715**2 cells are admitted, 5798**2 are more than MAX_GRID_CELLS
    assert GridSpec(step=0.0014).step == 0.0014
    with pytest.raises(InvalidDistribution, match=r"holds 3.36e\+07 cells"):
        GridSpec(step=0.00138)


def test_a_stretched_bounded_grid_above_the_cell_cap_is_refused(monkeypatch):
    # diag(20, 20) stretches the uniform square's +-sqrt(3) to +-34.6 on
    # both observation axes: 6931**2 cells at the default step, more than
    # MAX_GRID_CELLS, refused before any axis is built
    built = []
    monkeypatch.setattr(oracle, "_axis_cells",
                        lambda *args: built.append(args))
    uniform = SourceSpec("uniform")
    wide = linear_image(product_density(uniform, uniform),
                        np.diag([20.0, 20.0]))
    with pytest.raises(InvalidDistribution, match=r"holds 4.8e\+07 cells"):
        verify_four_point_identity(wide)
    assert not built
    monkeypatch.undo()
    # diag(14, 14) holds 4852**2 cells, under the cap
    ok = linear_image(product_density(uniform, uniform),
                      np.diag([14.0, 14.0]))
    rep = verify_four_point_identity(ok)
    assert rep["terms"]["mass"] == pytest.approx(1.0)


def test_default_unbounded_axis_is_800_cells_with_step_wide_center():
    step = GridSpec().step
    centers, widths = oracle._axis_cells(None, step)
    assert len(centers) == len(widths) <= 800
    # the central cell holds s = 0, KINK_OFFSET of a cell from its center
    mid = np.argmin(np.abs(centers))
    assert_allclose(widths[mid], step, rtol=1e-4)
    assert_allclose(centers[mid] / widths[mid], oracle.KINK_OFFSET, rtol=1e-4)
    # the cells widen towards both tails and reach past 15
    assert (np.diff(widths[mid:]) > 0).all() and (np.diff(widths[:mid]) < 0).all()
    assert centers[0] < -15.0 and centers[-1] > 15.0


@pytest.mark.parametrize("family, bound", [
    # measured -8.4e-8, mostly the variance beyond the grid's reach; the
    # +-8 box of equal cells read 6.27e-4 below
    ("laplace", 1e-7),
    # measured -9.4e-9; the +-8 box read 2.1e-4 below
    ("cosh-reciprocal", 2e-8),
])
def test_negentropy_quad_reaches_heavy_tails(family, bound):
    s = SourceSpec(family)
    g = oracle._negentropy_quad(product_density(s, s), GridSpec())
    assert abs(g - 2 * s.negentropy_nats()) < bound


# -- the four-point identity ----------------------------------------------------------

def test_four_point_identity_exact_on_references():
    cases = [
        gaussian_density([[1.0, 0.5], [0.5, 1.0]]),
        product_density(SourceSpec("uniform"), SourceSpec("laplace")),
        rotated_product_density(SourceSpec("laplace"), SourceSpec("laplace"),
                                math.radians(30.0)),
    ]
    for dens in cases:
        rep = verify_four_point_identity(dens, COARSE)
        assert rep["residual"] < 1e-12
        assert rep["terms"]["residual_product_route"] < 1e-12
        assert rep["terms"]["residual_gaussian_route"] < 1e-12
        assert abs(rep["terms"]["mass"] - 1.0) < 1e-4
        assert rep["terms"]["mutual_information"] >= -1e-14  # round-off only


def test_four_point_terms_match_closed_forms():
    rep = verify_four_point_identity(
        gaussian_density([[1.0, 0.5], [0.5, 1.0]]), COARSE)
    # Gaussian joint: negentropies vanish, MI equals the correlation term
    assert abs(rep["terms"]["mutual_information"] - KLD_RHO_HALF) < 1e-3
    assert abs(rep["terms"]["correlation"] - KLD_RHO_HALF) < 1e-3
    assert abs(rep["terms"]["joint_negentropy"]) < 1e-3
    rep = verify_four_point_identity(
        product_density(SourceSpec("uniform"), SourceSpec("laplace")), COARSE)
    # independent pair: MI and correlation vanish, negentropies are analytic
    assert abs(rep["terms"]["mutual_information"]) < 1e-3
    assert abs(rep["terms"]["correlation"]) < 1e-3
    assert abs(rep["terms"]["marginal_negentropy_1"] - UNIFORM_NEGENT) < 1e-3
    assert abs(rep["terms"]["marginal_negentropy_2"] - LAPLACE_NEGENT) < 1e-3


def test_four_point_identity_on_gaussian_mixture():
    eye = [[0.5, 0.1], [0.1, 0.4]]
    dens = gaussian_mixture_density([0.4, 0.6],
                                    [[1.2, 0.6], [-0.8, -0.4]],
                                    [eye, [[0.6, -0.1], [-0.1, 0.5]]])
    rep = verify_four_point_identity(dens, COARSE)
    assert rep["residual"] < 1e-12
    assert rep["terms"]["joint_negentropy"] > 0.01  # visibly non-Gaussian


def test_four_point_terms_converge_to_continuum():
    lap = SourceSpec("laplace")
    dens = rotated_product_density(lap, lap, math.radians(30.0))
    mi_by_step = {}
    for step in (0.04, 0.02, 0.01, 0.005):
        rep = verify_four_point_identity(dens, GridSpec(step=step))
        assert rep["residual"] < 1e-12  # identity holds at every resolution
        mi_by_step[step] = rep["terms"]["mutual_information"]
    # independent continuum oracle pins the limit: 5.4e-9 off at 0.005
    assert abs(mi_by_step[0.005] - ROT_LAP_MI_CONTINUUM) < 1e-7
    # term error vs the finest run shrinks by at least 2x per halving while
    # the step limits it; below about 1e-7 (from step 0.02) the midpoint
    # error of the cusps, which cut the cells obliquely, oscillates
    e_coarse = abs(mi_by_step[0.04] - mi_by_step[0.005])
    e_mid = abs(mi_by_step[0.02] - mi_by_step[0.005])
    assert e_mid < 0.5 * e_coarse


def test_identity_report_json_shape():
    # an identity report as `verify` writes it into identities.json
    rep = verify_four_point_identity(
        gaussian_density([[1.0, 0.2], [0.2, 1.0]]), COARSE)
    doc = _report_check("four_point", rep, 1e-3)
    assert set(doc) == {"name", "lhs", "rhs", "residual", "threshold",
                        "passed", "terms"}
    assert isinstance(doc["terms"]["correlation"], float)
    json.dumps(doc)  # serializable as-is


# -- invariance properties -------------------------------------------------------------

def test_negentropy_invariance_under_linear_maps():
    unif = product_density(SourceSpec("uniform"), SourceSpec("uniform"))
    shear = [[2.0, 1.0], [0.0, 1.0]]
    assert gaussianity_invariance_check(unif, shear, COARSE) < 1e-3
    lap = product_density(SourceSpec("laplace"), SourceSpec("laplace"))
    th = math.radians(37.0)
    rot = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    assert gaussianity_invariance_check(lap, rot, COARSE) < 1e-3


def test_kld_invariance_under_linear_maps():
    rho = gaussian_density([[1.0, 0.5], [0.5, 1.0]])
    iso = gaussian_density([[1.0, 0.0], [0.0, 1.0]])
    A = np.array([[1.1, 0.4], [-0.3, 0.9]])
    before = quad_kld_2d(rho, iso, COARSE)
    after = quad_kld_2d(linear_image(rho, A), linear_image(iso, A), COARSE)
    assert abs(before - after) < 1e-3


# -- the builtin suite and user specs ----------------------------------------------------

def test_builtin_suite_all_green():
    checks = builtin_suite(step=0.02)
    assert len(checks) >= 12
    assert all(c["passed"] for c in checks)
    names = [c["name"] for c in checks]
    assert len(names) == len(set(names))
    for c in checks:
        assert {"name", "lhs", "rhs", "residual", "threshold",
                "passed", "terms"} <= set(c)


def test_load_verify_spec_joint_and_density(tmp_path):
    spec = tmp_path / "user.json"
    spec.write_text(json.dumps({
        "joint": TABLE,
        "targets": [[0.4, 0.6], [0.3, 0.7]],
        "density": {"form": "rotated_product",
                    "sources": ["laplace", "cosh-reciprocal"],
                    "angle_deg": 20.0},
        "step": 0.02,
    }))
    checks = load_verify_spec(spec)
    assert [c["name"] for c in checks] == ["user_product_pythagoras",
                                           "user_four_point_identity"]
    assert all(c["passed"] for c in checks)


def test_load_verify_spec_diagnostics(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(IoError):
        load_verify_spec(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"joint\": [[0.5,\n}")
    with pytest.raises(InvalidDistribution) as exc:
        load_verify_spec(bad)
    assert "line" in str(exc.value)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(InvalidDistribution):
        load_verify_spec(empty)
    noform = tmp_path / "noform.json"
    noform.write_text(json.dumps({"density": {"cov": [[1, 0], [0, 1]]}}))
    with pytest.raises(InvalidDistribution):
        load_verify_spec(noform)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"density": {"form": "cauchy"}}))
    with pytest.raises(InvalidDistribution):
        load_verify_spec(unknown)
