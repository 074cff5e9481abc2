"""Cross-module checks on structurally atypical but valid models:
rectangular coupling (channel count different from the state dimension)
and non-canonical commutation weights."""

import numpy as np
import pytest

from conftest import hurwitz_model
from oqrisk import (
    CcrMatrix,
    canonical_ccr,
    cumulant_rate,
    gramian_steady,
    mc_stationary_stats,
    pr_residual,
    qcf_multipoint_steady,
    simulate,
    variance_rate,
)
from oqrisk.gaussian import spectral_identity_residual


@pytest.mark.parametrize("n,m", [(4, 2), (2, 4), (6, 2)])
def test_rectangular_coupling_pipeline(n, m):
    model, rng = hurwitz_model(canonical_ccr(n), m, seed=n * 31 + m)
    assert model.b.shape == (n, m)
    assert model.omega.shape == (m, m)
    scale = 1.0 + np.linalg.norm(model.a) * np.linalg.norm(model.theta)
    assert pr_residual(model) <= 1e-10 * scale

    steady = gramian_steady(model)
    assert np.linalg.eigvalsh(steady.quantum_cov).min() >= -1e-8 * np.linalg.norm(
        steady.p, 2
    )
    assert spectral_identity_residual(model) < 1e-6

    pi = rng.standard_normal((n, n))
    pi = pi @ pi.T
    rate, _, _ = variance_rate(model, pi)
    c2 = cumulant_rate(model, pi, 2)
    assert c2 == pytest.approx(rate, rel=1e-4)

    batch = simulate(model, 0.1, 5, 4000, seed=5)
    cov0, _ = mc_stationary_stats(batch, 0)
    dev = np.abs(cov0.value - steady.quantum_cov) / cov0.stderr
    assert dev.max() < 6.0


def test_noncanonical_ccr_weights():
    # any nonsingular antisymmetric weight matrix is admissible, not just
    # the position/momentum block form
    rng = np.random.default_rng(77)
    n = 4
    for _ in range(50):
        raw = rng.standard_normal((n, n))
        theta = raw - raw.T
        if np.linalg.svd(theta, compute_uv=False)[-1] > 0.3:
            break
    ccr = CcrMatrix(theta)
    model, rng2 = hurwitz_model(ccr, n, seed=123)
    scale = 1.0 + np.linalg.norm(model.a) * np.linalg.norm(model.theta)
    assert pr_residual(model) <= 1e-10 * scale

    steady = gramian_steady(model)
    wmin = np.linalg.eigvalsh(steady.quantum_cov).min()
    assert wmin >= -1e-8 * np.linalg.norm(steady.p, 2)

    pi = rng2.standard_normal((n, n))
    pi = pi @ pi.T
    rate, _, _ = variance_rate(model, pi)
    assert cumulant_rate(model, pi, 2) == pytest.approx(rate, rel=1e-4)

    times = np.sort(rng2.uniform(0.0, 3.0, 3))
    vecs = rng2.standard_normal((3, n))
    assert abs(qcf_multipoint_steady(model, times, vecs)) <= 1.0 + 1e-15
