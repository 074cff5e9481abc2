import numpy as np
import pytest
import scipy.linalg

from oqrisk import DeviationAnalysis, model_from_matrices, paper_example_model, random_model
from oqrisk.matfun import RULE_BLOCK
from oqrisk.model import PhysicalParams, block_j, build_model, canonical_ccr

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.fixture(scope="session")
def tiny():
    """One-mode vacuum-eigenstate example: A = -I, B = J2, P = I/2."""
    return model_from_matrices(0.5 * J2, np.zeros((2, 2)), np.eye(2))


@pytest.fixture(scope="session")
def paper():
    """The pinned two-mode regression example: (model, Pi)."""
    return paper_example_model()


@pytest.fixture(scope="session")
def tiny_deviation(tiny):
    return DeviationAnalysis(tiny, np.eye(2))


@pytest.fixture(scope="session")
def paper_deviation(paper):
    model, pi = paper
    return DeviationAnalysis(model, pi)


def by_blocks(f):
    """``integrate_frequency``'s ``blocks(level, nodes)`` from ``f`` of a block of frequencies."""
    return lambda _, nodes: (f(nodes[lo:lo + RULE_BLOCK]) for lo in range(0, nodes.size, RULE_BLOCK))


def damped_mode():
    """A lightly damped mode: eigenvalues -0.003 +- 10i."""
    eye = np.eye(2)
    return model_from_matrices(canonical_ccr(2).theta, 10.0 * eye, np.sqrt(0.003) * eye)


def make_models(seed, count, sizes=(2, 4, 6)):
    """Deterministic stream of random Hurwitz models of mixed size."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = sizes[k % len(sizes)]
        out.append((random_model(rng, n=n), rng))
    return out


def hurwitz_model(ccr, m, seed):
    """The first draw of ``R`` (symmetric) and ``M`` (``m x n``) with unit
    normal entries from ``default_rng(seed)`` whose drift has abscissa below
    -0.1, and the generator (rectangular couplings for ``m != n``).  The
    eigenvalues of ``A = 2 Theta (R + M' J M)`` screen each draw, with a
    1e-9 margin, and only a draw that passes is built and decided on."""
    rng = np.random.default_rng(seed)
    n, j = ccr.n, block_j(m)
    for _ in range(5000):
        r = rng.standard_normal((n, n))
        r = 0.5 * (r + r.T)
        mat = rng.standard_normal((m, n))
        if np.linalg.eigvals(2.0 * ccr.theta @ (r + mat.T @ j @ mat)).real.max() < -0.1 + 1e-9:
            model = build_model(ccr, PhysicalParams(r=r, m=mat))
            if model.spectral_abscissa < -0.1:
                return model, rng
    raise RuntimeError("no stable draw")


def random_sym(rng, n, psd=False):
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    if psd:
        a = a @ a.T + 0.05 * np.eye(n)
        a = 0.5 * (a + a.T)
    return a


def congruent_oscillators(rng, n):
    """Hurwitz model of order ``n``: damped one-mode oscillators (dampings in
    [0.45, 1]) mixed by a random symplectic congruence ``S = e^{2 Theta H}``,
    so the drift is dense with the oscillators' spectrum."""
    k = n // 2
    theta = canonical_ccr(n).theta
    freqs = np.concatenate([np.linspace(0.5, 3.0, k)] * 2)
    damps = np.concatenate([rng.permutation(np.linspace(0.45, 1.0, k))] * 2)
    h = random_sym(rng, n)
    s = scipy.linalg.expm(2.0 * theta @ (0.5 * h / np.linalg.norm(h, 2)))
    s_inv = np.linalg.inv(s)
    r = s_inv.T @ np.diag(freqs) @ s_inv
    return model_from_matrices(theta, 0.5 * (r + r.T), np.diag(np.sqrt(damps)) @ s_inv)


def congruent_n32():
    """``(model, Pi)``: the n = 32 congruent-oscillator model and a random PSD
    weight, both from seed 32."""
    rng = np.random.default_rng(32)
    model = congruent_oscillators(rng, 32)
    return model, random_sym(rng, 32, psd=True)
