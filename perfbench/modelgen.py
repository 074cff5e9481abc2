"""Certified oscillator models of any even order, built by construction.

Rejection sampling (``oqrisk.random_model``) almost never draws a Hurwitz
drift beyond n = 8, so the n-sweep builds its models instead:

* a direct sum of one-mode damped oscillators in ``canonical_ccr(n)``'s
  block order (position k at index k, momentum k at index k + n/2), with
  ``R = diag(W, W)`` and ``M = diag(sqrt G, sqrt G)``, so that
  ``A = [[-G, W], [-W, -G]]`` with eigenvalues ``-g_k +- i w_k``;
* a random symplectic congruence ``S = expm(2 Theta H)`` (H symmetric),
  mapping ``R -> S^-T R S^-1`` and ``M -> M S^-1``; then ``A -> S A S^-1``
  and ``B -> S B``, so physical realizability and the spectrum survive.

Everything here is plain numpy/scipy: no oqrisk output feeds the inputs.
The certificates (``S Theta S' = Theta``, spectrum match, Hurwitz margin)
are checked before the matrices leave this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

SYMPLECTIC_TOL = 1e-12
SPECTRUM_TOL = 1e-8
DAMP_MIN = 0.45
MIX_NORM = 0.5  # ||2 Theta H||_2 = ||H||_2; keeps cond(S) <= e^1


@dataclass(frozen=True)
class GeneratedModel:
    """Physical data of one generated oscillator plus its certificates."""

    n: int
    theta: np.ndarray
    r: np.ndarray
    m: np.ndarray
    pi: np.ndarray
    a: np.ndarray  # 2 Theta (R + M' J M), computed here for the checks
    b: np.ndarray
    margin: float  # min_k g_k
    symplectic_residual: float
    spectrum_residual: float


class CertificateError(RuntimeError):
    """A generated model failed one of its construction certificates."""


def block_j(m: int) -> np.ndarray:
    half = m // 2
    out = np.zeros((m, m))
    out[:half, half:] = np.eye(half)
    out[half:, :half] = -np.eye(half)
    return out


def _match_residual(got: np.ndarray, want: np.ndarray) -> float:
    """Largest distance from each wanted eigenvalue to its nearest computed
    one, after greedy one-to-one matching."""
    left = list(got)
    worst = 0.0
    for w in want:
        k = int(np.argmin([abs(g - w) for g in left]))
        worst = max(worst, abs(left.pop(k) - w))
    return worst


def generate(n: int, rng: np.random.Generator) -> GeneratedModel:
    """One certified Hurwitz model of order ``n`` (even) with ``m = n``
    field channels and a positive definite cost weight."""
    if n <= 0 or n % 2:
        raise ValueError(f"order must be even and positive, got {n}")
    k = n // 2
    # a fixed spectrum per size, randomly paired: the seed moves the
    # eigenvectors, not the decay rate and bandwidth that set the cost
    freqs = np.linspace(0.5, 3.0, k)
    damps = rng.permutation(np.linspace(DAMP_MIN, 1.0, k))
    theta = 0.5 * block_j(n)
    jm = block_j(n)
    r0 = np.diag(np.concatenate([freqs, freqs]))
    m0 = np.diag(np.sqrt(np.concatenate([damps, damps])))

    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    h *= MIX_NORM / np.linalg.norm(h, 2)
    s = scipy.linalg.expm(2.0 * theta @ h)
    s_inv = np.linalg.inv(s)
    r = s_inv.T @ r0 @ s_inv
    r = 0.5 * (r + r.T)  # exactly symmetric, as PhysicalParams demands
    m = m0 @ s_inv

    symp = float(np.linalg.norm(s @ theta @ s.T - theta) / np.linalg.norm(theta))
    if symp > SYMPLECTIC_TOL * np.linalg.cond(s) ** 2:
        raise CertificateError(f"S Theta S' - Theta residual {symp:.3e}")
    a = 2.0 * theta @ (r + m.T @ jm @ m)
    b = 2.0 * theta @ m.T
    eigs = np.concatenate([-damps + 1j * freqs, -damps - 1j * freqs])
    got = np.linalg.eigvals(a)
    spec_res = _match_residual(got, eigs) / (1.0 + np.linalg.norm(a, 2))
    if spec_res > SPECTRUM_TOL:
        raise CertificateError(f"spectrum moved by {spec_res:.3e} (relative)")
    margin = float(damps.min())
    if got.real.max() > -0.5 * margin:
        raise CertificateError(
            f"spectral abscissa {got.real.max():.3e} above half the margin {margin:.3e}"
        )

    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    pi = (q * rng.uniform(0.5, 2.0, n)) @ q.T
    pi = 0.5 * (pi + pi.T)
    return GeneratedModel(
        n=n, theta=theta, r=r, m=m, pi=pi, a=a, b=b, margin=margin,
        symplectic_residual=symp, spectrum_residual=spec_res,
    )
