"""Acceptance gate: one test per headline guarantee of the package.

Each test prints exactly one `acceptance N: PASS|FAIL - <label>` line with
the measured numbers, then asserts.  Run `pytest -v tests/test_acceptance.py`
to see the verdict per criterion.
"""
import math
import time

import numpy as np

from icageo import (Covariance, Dataset, GridSpec, MixingModel, Rng,
                    SolverConfig, amari_index, correlation_C, diagnose,
                    gaussian_density,
                    gaussianity_invariance_check, linear_image, make_score,
                    mutual_information, negentropy_scalar, orthogonal_ica,
                    parse_source, product_density, quad_kld_2d, random_mixing,
                    random_discrete_joint, relative_gradient_ica,
                    rotated_product_density, sample_covariance, simulate,
                    stationarity_matrix, verify_four_point_identity,
                    verify_gaussian_pythagoras, verify_product_pythagoras,
                    whitener)
from icageo.errors import Diverged

# unit-variance closed forms used as calibration truths
NEGENT_UNIFORM = 0.1764852083106725
NEGENT_LAPLACE = 0.07236494292469997
MI_GAUSS_RHO_HALF = 0.14384103622589045
# mutual-information term of the 30-degree rotated Laplace pair on the
# same quadrature at step 0.0025 (fine-step reference, frozen); the
# continuum value is 0.0807796365447
ROT_LAP_MI_FINE = 0.08077963564993018

MIXED_FAMILIES = ("laplace", "laplace", "uniform", "uniform")


def _gate(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {label}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"acceptance {num} failed: {label} [{detail}]"


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _random_pd(gen, n: int) -> np.ndarray:
    M = gen.standard_normal((n, n))
    return M @ M.T + 0.1 * np.eye(n)


def _mixed_mixture(trial: int, families):
    """Seeded mixing problem: T=20000 rows, condition number drawn in [1, 10]."""
    rng = Rng(61000 + trial)
    specs = tuple(parse_source(f) for f in families)
    cond = 1.0 + 9.0 * float(rng.child(0).generator().uniform())
    A = random_mixing(len(specs), rng.child(1), cond)
    X, _ = simulate(MixingModel(A, specs), 20000, rng.child(2))
    return X, A


def test_acceptance_1_exact_identity_suite():
    t0 = time.perf_counter()
    gen = np.random.default_rng(101)
    worst_discrete = 0.0
    for _ in range(1000):
        k1 = int(gen.integers(2, 6))
        k2 = int(gen.integers(2, 6))
        joint = random_discrete_joint(k1, k2, gen)
        # divergence to the product of own marginals, then to a random product
        own = verify_product_pythagoras(joint, joint.marginals())
        tx = gen.uniform(0.1, 1.0, size=k1)
        ty = gen.uniform(0.1, 1.0, size=k2)
        rand = verify_product_pythagoras(joint, (tx / tx.sum(), ty / ty.sum()))
        worst_discrete = max(worst_discrete, abs(own.residual),
                             abs(rand.residual))
    worst_gauss = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 6))
        p = Covariance(_random_pd(gen, n))
        q = Covariance(_random_pd(gen, n))
        worst_gauss = max(worst_gauss, abs(verify_gaussian_pythagoras(p, q)))
    elapsed = time.perf_counter() - t0
    ok = worst_discrete < 1e-12 and worst_gauss < 1e-10 and elapsed < 10.0
    _gate(1, "divergence identities hold at round-off", ok,
          f"discrete {worst_discrete:.2e}, gaussian {worst_gauss:.2e}, "
          f"{elapsed:.1f}s")


def test_acceptance_2_quadrature_identity_suite():
    t0 = time.perf_counter()
    densities = {
        "gaussian": gaussian_density(np.array([[1.0, 0.5], [0.5, 1.0]])),
        "product": product_density(parse_source("uniform"),
                                   parse_source("laplace")),
        "rotated": rotated_product_density(parse_source("laplace"),
                                           parse_source("laplace"),
                                           math.radians(30.0)),
    }
    coarse, fine = GridSpec(step=0.02), GridSpec(step=0.01)
    worst = 0.0
    halving_ok = True
    for density in densities.values():
        rep_c = verify_four_point_identity(density, coarse)
        rep_f = verify_four_point_identity(density, fine)
        for rep in (rep_c, rep_f):
            worst = max(worst, abs(rep.residual),
                        abs(rep.terms["residual_product_route"]),
                        abs(rep.terms["residual_gaussian_route"]))
        # identity residuals sit at round-off, hence the epsilon floor
        halving_ok &= abs(rep_f.residual) <= abs(rep_c.residual) + 1e-9
    # a genuinely step-limited quantity must improve when the step halves:
    # the mutual-information term versus its fine-step reference
    mi_err = [abs(verify_four_point_identity(densities["rotated"], g)
                  .terms["mutual_information"] - ROT_LAP_MI_FINE)
              for g in (coarse, fine)]
    # and the quadrature negentropy of a rotated uniform pair vs closed form
    rot_unif = rotated_product_density(parse_source("uniform"),
                                       parse_source("uniform"),
                                       math.radians(30.0))
    white = gaussian_density(np.eye(2))
    neg_err = [abs(quad_kld_2d(rot_unif, white, g) - 2.0 * NEGENT_UNIFORM)
               for g in (coarse, fine)]
    elapsed = time.perf_counter() - t0
    ok = (worst < 1e-3 and halving_ok and mi_err[1] < mi_err[0]
          and mi_err[1] < 1e-6 and neg_err[1] < neg_err[0]
          and elapsed < 60.0)
    _gate(2, "quadrature identities hold and tighten as the step halves", ok,
          f"worst residual {worst:.2e}, mi err {mi_err[0]:.1e}->{mi_err[1]:.1e}, "
          f"negent err {neg_err[0]:.1e}->{neg_err[1]:.1e}, {elapsed:.1f}s")


def test_acceptance_3_invariance_suite():
    gen = np.random.default_rng(303)
    grid = GridSpec(step=0.02)

    def random_transform():
        while True:
            A = gen.standard_normal((2, 2))
            if abs(np.linalg.det(A)) > 0.3 and np.linalg.cond(A) < 6.0:
                return A

    base = product_density(parse_source("uniform"), parse_source("laplace"))
    worst_g = max(gaussianity_invariance_check(base, random_transform(), grid)
                  for _ in range(20))

    p = gaussian_density(np.array([[1.0, 0.5], [0.5, 1.0]]))
    q = gaussian_density(np.array([[1.5, 0.0], [0.0, 0.7]]))
    kld = quad_kld_2d(p, q, grid)
    worst_kld = 0.0
    for _ in range(20):
        A = random_transform()
        mapped = quad_kld_2d(linear_image(p, A), linear_image(q, A), grid)
        worst_kld = max(worst_kld, abs(mapped - kld))

    worst_c = 0.0
    for _ in range(20):
        cov = _random_pd(gen, int(gen.integers(2, 5)))
        d = gen.uniform(0.2, 5.0, size=cov.shape[0])
        scaled = cov * np.outer(d, d)
        worst_c = max(worst_c, abs(correlation_C(Covariance(cov))
                                   - correlation_C(Covariance(scaled))))
    ok = worst_g < 1e-3 and worst_kld < 1e-3 and worst_c < 1e-10
    _gate(3, "linear invariance of G, KLD, and diagonal-scaling of C", ok,
          f"G {worst_g:.2e}, KLD {worst_kld:.2e}, C {worst_c:.2e}")


def test_acceptance_4_estimator_calibration():
    T = 100000
    gen = np.random.default_rng(404)
    unif = negentropy_scalar(parse_source("uniform").sample(gen, T))
    lap = negentropy_scalar(parse_source("laplace").sample(gen, T))
    L = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
    mi = mutual_information(
        Dataset(gen.standard_normal((T, 2)) @ L.T)).value
    point_ok = (abs(unif - NEGENT_UNIFORM) < 0.02
                and abs(lap - NEGENT_LAPLACE) < 0.02
                and abs(mi - MI_GAUSS_RHO_HALF) < 0.02)

    neg_err, mi_err = [], []
    for n in (1000, 10000, 100000):
        ne, me = [], []
        for seed in range(5):
            g = np.random.default_rng(1000 * n + seed)
            x = parse_source("laplace").sample(g, n)
            ne.append(abs(negentropy_scalar(x) - NEGENT_LAPLACE))
            z = g.standard_normal((n, 2)) @ L.T
            me.append(abs(mutual_information(Dataset(z)).value
                          - MI_GAUSS_RHO_HALF))
        neg_err.append(float(np.mean(ne)))
        mi_err.append(float(np.mean(me)))
    decay_ok = all(e2 < e1 + 0.005 for e1, e2 in zip(neg_err, neg_err[1:])) \
        and all(e2 < e1 + 0.005 for e1, e2 in zip(mi_err, mi_err[1:])) \
        and neg_err[2] < neg_err[0] and mi_err[2] < mi_err[0]
    ok = point_ok and decay_ok
    _gate(4, "estimators reproduce closed forms and tighten with T", ok,
          f"unif {unif:.4f}, laplace {lap:.4f}, mi {mi:.4f}, "
          f"negent errs {neg_err}, mi errs {mi_err}")


def test_acceptance_5_objective_is_rotation_invariant_sum():
    T = 100000
    rng = Rng(505)
    S = np.column_stack([
        parse_source("uniform").sample(rng.child(0).generator(), T),
        parse_source("laplace").sample(rng.child(1).generator(), T)])
    A = np.array([[1.0, 0.6], [-0.4, 1.0]])
    X = S @ A.T
    W = whitener(sample_covariance(Dataset(X)))
    Z = X @ W.T

    gen = np.random.default_rng(506)
    totals = []
    for _ in range(16):
        Y = Z @ _rotation(gen.uniform(0.0, math.pi)).T
        mi = mutual_information(Dataset(Y)).value
        gsum = sum(negentropy_scalar(Y[:, i]) for i in range(2))
        totals.append(mi + gsum)
    spread = max(totals) - min(totals)

    # minimizing MI over rotations = maximizing the negentropy sum, because
    # the total above is rotation-invariant; scan the cheap surrogate densely
    angles = np.arange(0.0, 90.0, 0.5)
    gsums = []
    for deg in angles:
        Y = Z @ _rotation(math.radians(deg)).T
        gsums.append(sum(negentropy_scalar(Y[:, i]) for i in range(2)))
    theta_hat = float(angles[int(np.argmax(gsums))])

    fine = np.arange(0.0, 90.0, 0.02)
    amaris = [amari_index(_rotation(math.radians(d)) @ W @ A)
              for d in fine]
    theta_star = float(fine[int(np.argmin(amaris))])
    # separation is defined modulo quarter turns (channel swap and signs)
    dist = abs(theta_hat - theta_star) % 90.0
    dist = min(dist, 90.0 - dist)

    ok = spread <= 0.06 and dist <= 5.0
    _gate(5, "mi plus negentropy sum constant over rotations, minimizer "
             "matches the separating angle", ok,
          f"spread {spread:.4f}, angle gap {dist:.2f} deg")


def test_acceptance_6_relative_gradient_separation():
    worst_trial_s = 0.0
    hits = 0
    for trial in range(20):
        X, A = _mixed_mixture(trial, MIXED_FAMILIES)
        t0 = time.perf_counter()
        result = relative_gradient_ica(X, SolverConfig(score="adaptive"))
        worst_trial_s = max(worst_trial_s, time.perf_counter() - t0)
        if amari_index(result.demixing @ A) < 0.05:
            hits += 1

    tanh_hits = 0
    for trial in range(20):
        X, A = _mixed_mixture(100 + trial, ("laplace",) * 4)
        result = relative_gradient_ica(X, SolverConfig(score="tanh"))
        if amari_index(result.demixing @ A) < 0.05:
            tanh_hits += 1

    # tanh assumes heavy tails; on uniform sources the fixed point flips
    # stability and the solver must not quietly pretend to separate
    tanh_misses = 0
    for trial in range(20):
        X, A = _mixed_mixture(200 + trial, ("uniform",) * 4)
        try:
            result = relative_gradient_ica(X, SolverConfig(score="tanh"))
            if amari_index(result.demixing @ A) > 0.2:
                tanh_misses += 1
        except Diverged:
            tanh_misses += 1

    ok = (hits >= 19 and worst_trial_s < 30.0 and tanh_hits >= 19
          and tanh_misses >= 10)
    _gate(6, "adaptive scores separate mixed kurtosis, tanh-only fails on "
             "uniform sources", ok,
          f"adaptive {hits}/20, tanh-laplace {tanh_hits}/20, "
          f"tanh-uniform misses {tanh_misses}/20, "
          f"slowest trial {worst_trial_s:.1f}s")


def test_acceptance_7_orthogonal_separation():
    hits = 0
    decorrelated = 0
    for trial in range(20):
        X, A = _mixed_mixture(trial, MIXED_FAMILIES)
        result = orthogonal_ica(X, SolverConfig())
        if amari_index(result.demixing @ A) < 0.05:
            hits += 1
        c = correlation_C(sample_covariance(result.recovered))
        if c < 1e-10:
            decorrelated += 1
    ok = hits >= 19 and decorrelated == 20
    _gate(7, "orthogonal search separates and decorrelates exactly", ok,
          f"amari hits {hits}/20, exact decorrelation {decorrelated}/20")


def test_acceptance_8_stationarity_at_independence():
    T = 100000
    N = 4
    bound = 3.0 * N / math.sqrt(T)
    scores = {name: make_score(name) for name in ("tanh", "cube", "identity")}
    worst = {name: 0.0 for name in scores}
    for seed in range(20):
        rng = Rng(80000 + seed)
        S = Dataset(np.column_stack([
            parse_source("uniform").sample(rng.child(j).generator(), T)
            for j in range(N)]))
        for name, model in scores.items():
            F = stationarity_matrix(S, [model] * N)
            off = F - np.diag(np.diag(F))
            worst[name] = max(worst[name], float(np.linalg.norm(off)))
    ok = all(v < bound for v in worst.values())
    _gate(8, "score-weighted cross moments vanish on independent sources", ok,
          ", ".join(f"{k} {v:.4f}" for k, v in worst.items())
          + f" vs bound {bound:.4f}")


def test_acceptance_9_gaussian_non_identifiability_control():
    rng = Rng(909)
    specs = tuple(parse_source("gaussian") for _ in range(3))
    A = random_mixing(3, rng.child(0), 5.0)
    X, _ = simulate(MixingModel(A, specs), 20000, rng.child(1))
    result = orthogonal_ica(X, SolverConfig())
    # the Amari index is deliberately NOT checked: any rotation of a white
    # Gaussian vector is an equally valid answer
    report = diagnose(result.recovered, seed=0)
    gsum = sum(g for g in report.marginal_negentropies)
    ok = (result.report["no_improvement"] is True and result.converged is True
          and gsum < 0.02)
    _gate(9, "gaussian-only mixtures flag no improvement and show no "
             "non-gaussianity", ok,
          f"no_improvement={result.report['no_improvement']}, "
          f"converged={result.converged}, sum negentropy {gsum:.4f}")
