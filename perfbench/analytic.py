"""The benchmark's own numerics for inputs and check targets.

Plain numpy/scipy on the model matrices; nothing here calls oqrisk, so a
change to what oqrisk returns cannot change what the benchmark asks of it
or what it compares against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
from scipy.optimize import minimize_scalar


def steady_p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution of ``A P + P A' + B B' = 0`` (Bartels-Stewart)."""
    p = scipy.linalg.solve_continuous_lyapunov(a, -b @ b.T)
    return 0.5 * (p + p.T)


def sqrt_psd(k: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(k)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def n_zero(p, theta, pi) -> float:
    """``N(0) = ||sqrt(Pi) (P + i Theta) sqrt(Pi)||_2``."""
    root = sqrt_psd(pi)
    return float(np.linalg.norm(root @ (p + 1j * theta) @ root, 2))


def envelope_alpha(a, p, theta, pi) -> float:
    """Envelope amplitude ``||sqrt(Pi) sqrt(G)|| ||G^-1/2 (P + i Theta)
    sqrt(Pi)||`` with ``G = V V*`` from unit-norm eigenvectors of ``A``."""
    _, vecs = np.linalg.eig(a)
    gamma = (vecs @ vecs.conj().T).real
    gamma = 0.5 * (gamma + gamma.T)
    w, v = np.linalg.eigh(gamma)
    root_g = (v * np.sqrt(w)) @ v.T
    inv_root_g = (v / np.sqrt(w)) @ v.T
    root_pi = sqrt_psd(pi)
    return float(
        np.linalg.norm(root_pi @ root_g, 2)
        * np.linalg.norm(inv_root_g @ (p + 1j * theta) @ root_pi, 2)
    )


def weighted_density_peak(a, b, j, pi) -> float:
    """Two-sided ``sup_lam lambda_max(sqrt(Pi) D(lam) sqrt(Pi))`` with
    ``D = G Omega G*``, ``G = (i lam - A)^-1 B``; equals
    ``sigma_max(sqrt(Pi) G Omega)^2 / 2`` since ``Omega^2 = 2 Omega``.

    A grid over both signs of frequency, fine enough to resolve every
    resonance, then a bounded scalar refinement around the best node.
    """
    omega = np.eye(j.shape[0]) + 1j * j
    root = sqrt_psd(pi)
    eigs, vecs = np.linalg.eig(a)
    left = root @ vecs
    right = np.linalg.solve(vecs, b @ omega)

    def top(lams):
        lams = np.atleast_1d(lams)
        res = 1.0 / (1j * lams[:, None] - eigs[None, :])
        mats = np.einsum("ij,kj,jl->kil", left, res, right)
        return 0.5 * np.linalg.svd(mats, compute_uv=False)[:, 0] ** 2

    # a resonance at Im(eig) is about |Re(eig)| wide: sample it ten times
    span = 2.0 * (np.abs(eigs.imag).max() + np.abs(eigs.real).max()) + 1.0
    step = 0.1 * np.abs(eigs.real).min()
    lams = np.linspace(-span, span, 2 * int(span / step) + 1)
    vals = np.concatenate([top(lams[k:k + 2048]) for k in range(0, lams.size, 2048)])
    best = int(np.argmax(vals))
    lo = lams[max(best - 1, 0)]
    hi = lams[min(best + 1, lams.size - 1)]
    res = minimize_scalar(lambda x: -top(x)[0], bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10 * (1.0 + abs(lams[best]))})
    return float(max(vals[best], -res.fun))


def default_mc_step(a) -> float:
    """The step ``mc_rs_rate`` documents when none is given:
    ``min(0.02, 0.1 / (1 + ||A||_2))``."""
    return min(0.02, 0.1 / (1.0 + np.linalg.norm(a, 2)))


def descent_counts(r: int) -> dict:
    """Permutations of ``{1..r-1}`` counted by their pattern of consecutive
    inversions, as a tuple of ``r - 2`` bits."""
    counts = {}
    for perm in itertools.permutations(range(r - 1)):
        bits = tuple(int(x > y) for x, y in zip(perm, perm[1:]))
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def cumulant_rate(a, b, j, pi, r, nodes=4096) -> float:
    """Growth rate of the r-th cumulant of the running cost,

        (2^{r-2} / pi) sum_gamma Delta_{r,gamma}
            integral Tr(Pi D prod_k Pi D^{[gamma_k]} Pi D^{[1]}) dlam,

    with ``D = G Omega G*``, ``D^{[1]} = G conj(Omega) G*``,
    ``G = (i lam - A)^-1 B``: the trapezoid rule in ``u`` on
    ``lam = s tan(u)``, which converges geometrically for this smooth
    integrand that decays like ``lam^-2r``."""
    omega = np.eye(j.shape[0]) + 1j * j
    eigs, vecs = np.linalg.eig(a)
    vb = np.linalg.solve(vecs, b)
    scale = float(np.abs(eigs).max())
    u = (np.arange(nodes) + 0.5) * (math.pi / nodes) - 0.5 * math.pi
    lams = scale * np.tan(u)
    jac = scale / np.cos(u) ** 2
    counts = descent_counts(r)
    total = 0.0
    for k in range(0, nodes, 512):
        res = 1.0 / (1j * lams[k:k + 512, None] - eigs[None, :])
        g = np.einsum("ij,kj,jl->kil", vecs, res, vb)
        gh = np.conj(np.swapaxes(g, 1, 2))
        pid = (pi @ (g @ omega @ gh), pi @ (g @ omega.conj() @ gh))
        # one running product per pattern prefix, shared by its extensions
        prefixes = {(): pid[0]}
        for _ in range(r - 2):
            prefixes = {bits + (bit,): mat @ pid[bit]
                        for bits, mat in prefixes.items() for bit in (0, 1)}
        vals = sum(counts.get(bits, 0) * np.einsum("kii->k", mat @ pid[1])
                   for bits, mat in prefixes.items())
        total += float(np.sum(vals.real * jac[k:k + 512]))
    return 2.0 ** (r - 2) / math.pi * total * (math.pi / nodes)


def _augmented_chain(a, b, j, h):
    """Exact one-step discretization of the classical twin's augmented
    real process: ``(phi, noise_factor, invariant_factor)``."""
    bb = b @ b.T
    bjb = b @ j @ b.T
    q_aug = 0.5 * np.block([[bb, -bjb], [bjb, bb]])
    a_aug = np.kron(np.eye(2), a)
    p_aug = scipy.linalg.solve_continuous_lyapunov(a_aug, -q_aug)
    p_aug = 0.5 * (p_aug + p_aug.T)
    phi = np.kron(np.eye(2), scipy.linalg.expm(h * a))
    sigma = p_aug - phi @ p_aug @ phi.T
    sigma = 0.5 * (sigma + sigma.T)
    return phi, _factor(sigma), _factor(p_aug)


def _factor(mat):
    w, v = np.linalg.eigh(mat)
    return v * np.sqrt(np.clip(w, 0.0, None))


def _log_mgf_step(mat, factor):
    """For ``x = mu + L z``: ``E exp(x' M x) = det(I - 2 L'ML)^-1/2 *
    exp(mu' K mu)``; returns ``(K, log det term)``."""
    inner = np.eye(factor.shape[1]) - 2.0 * factor.T @ mat @ factor
    sign, logdet = np.linalg.slogdet(inner)
    if sign <= 0:
        raise ValueError("exponential moment is infinite")
    ml = mat @ factor
    k = mat + 2.0 * ml @ np.linalg.solve(inner, ml.T)
    return 0.5 * (k + k.T), -0.5 * logdet


def mc_rate_target(a, b, j, pi, theta, horizon, h) -> float:
    """Exact ``(1/T) log E exp(theta phi)`` for the trapezoid cost
    ``phi = sum_k c_k zeta_k* Pi zeta_k`` on the exactly discretized chain
    started in its invariant law: the quantity ``mc_rs_rate`` estimates at
    the same step.  Backward recursion on quadratic exponents."""
    steps = max(2, int(round(horizon / h)))
    h = horizon / steps
    phi, noise, init = _augmented_chain(a, b, j, h)
    q = np.kron(np.eye(2), pi)  # zeta* Pi zeta = xi'Pi xi + eta'Pi eta
    mat = 0.5 * h * theta * q
    total = 0.0
    for k in range(steps - 1, -1, -1):
        kmat, term = _log_mgf_step(mat, noise)
        total += term
        weight = 0.5 * h if k == 0 else h
        mat = weight * theta * q + phi.T @ kmat @ phi
        mat = 0.5 * (mat + mat.T)
    _, term = _log_mgf_step(mat, init)
    return (total + term) / horizon
