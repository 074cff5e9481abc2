"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with -s to see
the lines live)."""

import time

import numpy as np

from conftest import make_models, random_sym
from oqrisk import classical, cumulants, deviations, gaussian, quartic
from oqrisk.matfun import expm
from oqrisk.model import pr_residual

PAPER_EIGS = np.array([-0.5532 + 2.5929j, -0.5532 - 2.5929j, -1.3302, -4.2068])
PAPER_P = np.array([
    [3.7981, -2.5143, -3.8716, -1.6214],
    [-2.5143, 4.9443, 0.5356, 0.4305],
    [-3.8716, 0.5356, 6.7086, 2.8509],
    [-1.6214, 0.4305, 2.8509, 1.4473],
])
PAPER_T = np.array([
    [131.5431, -108.9564, -138.4442, -58.4033],
    [-108.9564, 138.7545, 60.4808, 21.2105],
    [-138.4442, 60.4808, 204.6153, 91.4998],
    [-58.4033, 21.2105, 91.4998, 41.2158],
])
PAPER_GAMMA = np.array([
    [1.4750, -0.4852, -1.4090, -0.2636],
    [-0.4852, 0.6271, 0.2354, 0.1475],
    [-1.4090, 0.2354, 1.6303, 0.3569],
    [-0.2636, 0.1475, 0.3569, 0.2676],
])


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_01_paper_regression(paper, paper_deviation):
    model, pi = paper
    start = time.monotonic()
    eigs = np.sort_complex(np.linalg.eigvals(model.a))
    ok_eig = np.abs(eigs - np.sort_complex(PAPER_EIGS)).max() < 1e-3
    steady = gaussian.gramian_steady(model)
    ok_p = np.abs(steady.p - PAPER_P).max() < 5e-3 * np.abs(PAPER_P).max()
    mean = quartic.mean_rate(model, pi)
    ok_mean = abs(mean - 74.9147) / 74.9147 < 2e-3
    rate, t_mat, _ = quartic.variance_rate(model, pi)
    ok_t = np.abs(t_mat - PAPER_T).max() < 5e-3 * np.abs(PAPER_T).max()
    ok_var = abs(rate - 8.9399e3) / 8.9399e3 < 2e-3
    theta0 = quartic.theta_threshold(model, pi)
    ok_theta0 = abs(theta0 - 0.0168) < 5e-4
    env = paper_deviation.envelope
    ok_mu = abs(env.mu - 0.5532) < 1e-3
    ok_gamma = np.abs(env.gamma - PAPER_GAMMA).max() < 5e-3 * np.abs(PAPER_GAMMA).max()
    ok_alpha = abs(env.alpha - 69.6784) / 69.6784 < 1e-2
    elapsed = time.monotonic() - start
    ok = all((ok_eig, ok_p, ok_mean, ok_t, ok_var, ok_theta0, ok_mu, ok_gamma,
              ok_alpha, elapsed < 5.0))
    _report(1, "published-example regression", ok,
            f"mean={mean:.4f} var={rate:.1f} theta0={theta0:.4f} "
            f"mu={env.mu:.4f} alpha={env.alpha:.4f} in {elapsed:.2f}s")


def test_criterion_02_duality_sweep():
    worst = 0.0
    for model, rng in make_models(seed=211, count=200):
        pi = random_sym(rng, model.n)
        _, t_mat, q_mat = quartic.variance_rate(model, pi)
        seed_mat = (gaussian.gramian_steady(model).p @ pi @ gaussian.gramian_steady(model).p
                    + model.theta @ pi @ model.theta)
        primal = 4.0 * np.sum(pi * t_mat)
        dual = 4.0 * np.sum(q_mat * seed_mat)
        worst = max(worst, abs(primal - dual) / (1.0 + abs(primal)))
    _report(2, "Lyapunov duality on 200 random models", worst <= 1e-9,
            f"worst residual {worst:.2e}")


def test_criterion_03_pr_residual_sweep(paper, tiny):
    worst = 0.0
    models = [m for m, _ in make_models(seed=223, count=200)] + [paper[0], tiny]
    for model in models:
        scale = 1.0 + np.linalg.norm(model.a) * np.linalg.norm(model.theta)
        worst = max(worst, pr_residual(model) / scale)
    _report(3, "physical-realizability residual on all constructed models",
            worst <= 1e-10, f"worst normalized residual {worst:.2e}")


def test_criterion_04_frequency_time_consistency():
    worst_rate = 0.0
    for model, rng in make_models(seed=227, count=20):
        pi = random_sym(rng, model.n)
        rate, _, _ = quartic.variance_rate(model, pi)
        c2 = cumulants.cumulant_rate(model, pi, 2)
        scale = max(abs(rate), 1e-9)
        worst_rate = max(worst_rate, abs(c2 - rate) / scale)
    ok_rate = worst_rate <= 1e-4

    worst_td = 0.0
    for model, rng in make_models(seed=229, count=2, sizes=(2,)):
        pi = random_sym(rng, 2, psd=True)
        horizon = 20.0 / -model.spectral_abscissa
        for r, grid in ((2, 401), (3, 161)):
            rate = cumulants.cumulant_rate(model, pi, r)
            td = cumulants.cumulant_finite_td(model, pi, r, horizon, grid)
            worst_td = max(worst_td, abs(td / horizon - rate) / abs(rate))
    ok_td = worst_td <= 0.05
    _report(4, "cumulant frequency/time consistency", ok_rate and ok_td,
            f"rate gap {worst_rate:.2e}, averaging gap {worst_td:.2%}")


def test_criterion_05_oracle_equivalence():
    worst = 0.0
    for seed in (233, 239):
        model, rng = make_models(seed=seed, count=1, sizes=(2,))[0]
        pi = random_sym(rng, 2, psd=True)
        times = np.sort(rng.uniform(0.0, 2.5, 6))
        weights = rng.uniform(0.1, 0.5, 6)
        moments = [
            cumulants.wick_moment_oracle(model, pi, r, times, weights)
            for r in (1, 2, 3)
        ]
        _, k2, k3 = cumulants.cumulants_from_moments(moments)
        for r, val in ((2, k2), (3, k3)):
            ref = cumulants.cumulant_td_discretized(model, pi, r, times, weights)
            worst = max(worst, abs(val - ref) / abs(ref))
    _report(5, "pairing-oracle cumulants match the descent formula",
            worst <= 1e-8, f"worst relative gap {worst:.2e}")


def test_criterion_06_delta_tables():
    import math

    ok3 = cumulants.delta_table(3).counts == {(0,): 1, (1,): 1}
    ok4 = cumulants.delta_table(4).counts == {(0, 0): 1, (0, 1): 2,
                                              (1, 0): 2, (1, 1): 1}
    ok_struct = True
    start = time.monotonic()
    for r in range(2, 12):
        table = cumulants.delta_table(r)
        ok_struct &= table.total() == math.factorial(r - 1)
        ok_struct &= all(
            table.counts[tuple(1 - b for b in bits)] == cnt
            for bits, cnt in table.counts.items()
        )
    elapsed = time.monotonic() - start
    ok = ok3 and ok4 and ok_struct and elapsed < 60.0
    _report(6, "descent tables exact and structurally certified to r=11", ok,
            f"r<=11 sweep in {elapsed:.1f}s")


def test_criterion_07_spectral_identity(paper, tiny):
    res_paper = gaussian.spectral_identity_residual(paper[0])
    res_tiny = gaussian.spectral_identity_residual(tiny)
    ok = res_paper < 1e-6 and res_tiny < 1e-6
    _report(7, "density integrates back to the quantum covariance", ok,
            f"defects {res_paper:.2e} / {res_tiny:.2e}")


def test_criterion_08_tiny_closed_forms(tiny, tiny_deviation):
    pi = np.eye(2)
    steady = gaussian.gramian_steady(tiny)
    ok_p = np.abs(steady.p - 0.5 * np.eye(2)).max() < 1e-13
    rate, _, _ = quartic.variance_rate(tiny, pi)
    ok_var = abs(rate) < 1e-12
    taus = np.array([-2.0, -0.3, 0.0, 0.8, 3.0])
    ok_n = all(
        abs(tiny_deviation.n_kernel(t) - np.exp(-abs(t))) < 1e-10 for t in taus
    )
    ok_f0 = abs(tiny_deviation.f_infnorm() - 2.0) < 1e-8
    qef = tiny_deviation.qef_upper_rate(3.0 / 16.0)
    ok_qef = abs(qef - 0.5) < 1e-8
    bound, theta_star = tiny_deviation.cramer_bound_numeric(4.0)
    ok_cramer = abs(bound + 0.25) < 1e-6 and abs(theta_star - 3.0 / 16.0) < 1e-6
    classical_var = classical.classical_quadform_variance(tiny, pi)
    quantum_var = 2.0 * np.sum(pi * (steady.p @ pi @ steady.p
                                     + tiny.theta @ pi @ tiny.theta))
    ok_gap = abs(classical_var - 1.0) < 1e-12 and abs(quantum_var) < 1e-12
    ok = all((ok_p, ok_var, ok_n, ok_f0, ok_qef, ok_cramer, ok_gap))
    _report(8, "one-mode closed-form suite", ok,
            f"qef={qef:.10f} bound={bound:.8f} theta*={theta_star:.8f} "
            f"classical/quantum var {classical_var:.1f}/{quantum_var:.1e}")


def test_criterion_09_envelope_crosscheck():
    rng = np.random.default_rng(241)
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.2, 60.0)
        mu = rng.uniform(0.1, 4.0)
        theta = rng.uniform(0.05, 0.95) * 0.25 * mu / alpha
        num = deviations.envelope_log_integral(alpha, mu, theta)
        closed = deviations.envelope_log_integral_closed(alpha, mu, theta)
        worst = max(worst, abs(num - closed) / abs(closed))
    _report(9, "numeric/closed-form envelope integral crosscheck",
            worst <= 1e-6, f"worst relative gap {worst:.2e}")


def test_criterion_10_monte_carlo(paper, tiny):
    model, _ = paper
    start = time.monotonic()
    h, lag, paths = 0.05, 10, 100_000
    batch = classical.simulate(model, h, lag, paths, seed=20240)
    cov0, covlag = classical.mc_stationary_stats(batch, lag)
    steady = gaussian.gramian_steady(model)
    target0 = steady.quantum_cov
    target_lag = expm(model.a, lag * h) @ steady.quantum_cov
    dev0 = (np.abs(cov0.value - target0) / cov0.stderr).max()
    devl = (np.abs(covlag.value - target_lag) / covlag.stderr).max()
    ok_cov = dev0 <= 5.0 and devl <= 5.0

    est = classical.mc_rs_rate(tiny, np.eye(2), 0.1, 20.0, paths, seed=20241)
    sde_target = classical.classical_rs_rate_sde(tiny, np.eye(2), 0.1)
    halved = 0.5 * (1.0 - np.sqrt(0.8))  # the paper-variant value
    # the estimate targets the exact T = 20 rate of the chain it simulates;
    # that rate is the sde variant's up to the boundary term T (rho_c - sde) =
    # -0.00311 and the step's bias T (target - rho_c) = +0.00014, together
    # T |target - sde| = 0.00297 at the certified 320 steps
    ok_rate = (abs(est.value - est.target) <= 3.0 * est.stderr
               and 20.0 * abs(est.target - sde_target) <= 0.004)
    # the tiebreaker experiment: the simulated process decisively rejects
    # the halved normalization
    rejection_sigma = abs(est.value - halved) / est.stderr
    ok_adjudication = rejection_sigma > 50.0
    elapsed = time.monotonic() - start
    ok = ok_cov and ok_rate and ok_adjudication and elapsed < 120.0
    _report(10, "exact-discretization Monte Carlo", ok,
            f"cov devs {dev0:.2f}/{devl:.2f} sigma; rate {est.value:.5f}"
            f"+-{est.stderr:.5f} vs target {est.target:.5f}, sde {sde_target:.5f} "
            f"(halved variant rejected at {rejection_sigma:.0f} sigma) "
            f"in {elapsed:.0f}s")


def test_criterion_11_classical_rate_variants(paper, tiny):
    worst_ratio = 0.0
    for model, pi in ((tiny, np.eye(2)), paper):
        theta_max = 1.0 / model.weight_facts(pi).density_peak
        for frac in (0.05, 0.2, 0.5, 0.8):
            theta = frac * theta_max
            sde = classical.classical_rs_rate_sde(model, pi, theta)
            paper_v = classical.classical_rs_rate_paper(model, pi, theta)
            worst_ratio = max(worst_ratio,
                              abs(sde - 2.0 * paper_v) / max(abs(sde), 1e-12))
    ok_ratio = worst_ratio <= 1e-10

    model, pi = paper
    mean = quartic.mean_rate(model, pi)
    theta = 1e-5
    slope = classical.classical_rs_rate_sde(model, pi, theta) / theta
    ok_slope = abs(slope - mean) / mean <= 1e-3
    _report(11, "classical rate variants (factor two and slope)",
            ok_ratio and ok_slope,
            f"ratio defect {worst_ratio:.2e}, slope {slope:.4f} vs {mean:.4f}")


def test_criterion_12_qcf_recurrence():
    worst = 0.0
    max_mod = 0.0
    count = 0
    for model, rng in make_models(seed=251, count=34):
        for _ in range(3):
            if count >= 100:
                break
            npts = int(rng.integers(2, 5))
            times = np.sort(rng.uniform(0.0, 4.0, npts))
            vecs = rng.standard_normal((npts, model.n))
            full = gaussian.qcf_multipoint_steady(model, times, vecs)
            max_mod = max(max_mod, abs(full))
            dt = times[-1] - times[-2]
            folded = vecs[:-1].copy()
            folded[-1] = folded[-1] + expm(model.a, dt).T @ vecs[-1]
            reduced = gaussian.qcf_multipoint_steady(model, times[:-1], folded)
            factor = np.exp(-0.5 * vecs[-1] @ gaussian.gramian_finite(model, dt) @ vecs[-1])
            worst = max(worst, abs(full - reduced * factor) / max(abs(full), 1e-300))
            count += 1
    ok = worst <= 1e-10 and max_mod <= 1.0 + 1e-14 and count == 100
    _report(12, "multi-point QCF recurrence and modulus bound", ok,
            f"{count} instances, worst defect {worst:.2e}, max modulus "
            f"{max_mod:.6f}")
