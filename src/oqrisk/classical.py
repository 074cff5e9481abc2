"""Classical complex-diffusion twin of the oscillator.

The complex process ``dzeta = A zeta dt + (1/sqrt 2) B Omega domega`` (with
a standard real Wiener process ``omega``) reproduces the oscillator's
two-point covariances exactly: its invariant law is circular complex
Gaussian with ``E(zeta zeta*) = P + i Theta`` and lagged covariance
``e^{tau A}(P + i Theta)``.  Higher moments differ; the one-point variance
of ``zeta* Pi zeta`` is ``<Pi, P Pi P - Theta Pi Theta>`` against the
quantum value ``2 <Pi, P Pi P + Theta Pi Theta>``.

Simulation uses the exact one-step discretization of the augmented real
process ``[Re zeta; Im zeta]``: stepping matrix ``e^{h (I2 (x) A)}`` and
the exact one-step noise covariance, so Monte Carlo error is purely
statistical.  Two risk-sensitive rate normalizations ship side by side:

* ``classical_rs_rate_paper``: ``-(1/4 pi) integral ln det(I - theta Pi D)``,
  the convention that treats ``D/2`` as the density of ``zeta`` (consistent
  with reading ``zeta`` as a real vector process);
* ``classical_rs_rate_sde``:  the same integral with a ``1/2 pi`` prefactor,
  which is the rate of the circular complex process actually defined by the
  SDE above (its small-theta slope is the true stationary mean ``<Pi, P>``).

The Monte Carlo estimator ``mc_rs_rate`` is the tiebreaker experiment; its
verdict (it matches the sde variant) is recorded in analysis reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (
    InsufficientPaths,
    NotHurwitz,
    NumericalDefect,
    StepperConstructionFailure,
    ThetaOutOfRange,
    VarianceBlowup,
)
from .gaussian import gramian_steady
from .matfun import expm, lyap_solve, opnorm2, sqrt_psd
from .model import OqhoModel
from .quartic import _as_weight

__all__ = [
    "InvariantCov",
    "AugmentedStepper",
    "SimBatch",
    "McEstimate",
    "augmented_invariant_cov",
    "invariant_classical_cov",
    "simulate",
    "zeta_view",
    "mc_stationary_stats",
    "classical_quadform_variance",
    "mc_quadform_variance",
    "classical_rs_rate_paper",
    "classical_rs_rate_sde",
    "classical_rate_series",
    "mc_rs_rate",
    "rs_theta_max",
]


@dataclass(frozen=True)
class InvariantCov:
    """Invariant covariance of the augmented real process and its complex
    reduction ``E(zeta zeta*)``."""

    aug: np.ndarray
    complex_cov: np.ndarray


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with per-entry standard errors; deterministic
    for a fixed seed."""

    value: np.ndarray | float | complex
    stderr: np.ndarray | float
    paths: int
    seed: int


def augmented_invariant_cov(p: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``[[P, -Theta], [Theta, P]] / 2``, the augmented real form of ``P + i Theta``."""
    return 0.5 * np.block([[p, -theta], [theta, p]])


def invariant_classical_cov(model: OqhoModel) -> InvariantCov:
    """Invariant covariance of the twin; PSD with complex reduction
    ``P + i Theta`` attached."""
    steady = gramian_steady(model)
    return InvariantCov(
        aug=augmented_invariant_cov(steady.p, model.theta),
        complex_cov=steady.quantum_cov,
    )


@dataclass(frozen=True)
class AugmentedStepper:
    """Exact one-step discretization of the augmented linear SDE.

    ``phi_aug = e^{h (I2 (x) A)}`` and ``noise_chol`` is the principal
    square root of the exact one-step noise covariance
    ``P_aug - phi_aug P_aug phi_aug'``, so the chain has the invariant law
    as its exact stationary distribution for any step size.  Principal
    roots do not depend on an eigenbasis, so sampled paths move
    continuously with the model even where eigenvalues are degenerate.
    """

    h: float
    phi_aug: np.ndarray
    noise_chol: np.ndarray
    sigma_aug: np.ndarray
    p_aug: np.ndarray

    @classmethod
    def build(cls, model: OqhoModel, h: float) -> "AugmentedStepper":
        if h <= 0:
            raise StepperConstructionFailure("step size must be positive")
        try:
            # stationary covariance straight from the augmented equation; for
            # physically realizable models it equals augmented_invariant_cov(P, Theta)
            b = model.b
            q_aug = augmented_invariant_cov(b @ b.T, b @ model.j @ b.T)
            p_aug = lyap_solve(np.kron(np.eye(2), model.a), q_aug)
            p_aug = 0.5 * (p_aug + p_aug.T)
            phi = np.kron(np.eye(2), expm(model.a, h))
            sigma = p_aug - phi @ p_aug @ phi.T
            sigma = 0.5 * (sigma + sigma.T)
            wmin = np.linalg.eigvalsh(sigma)[0]
            if wmin < -1e-10 * max(opnorm2(sigma), 1e-300):
                raise StepperConstructionFailure(
                    f"one-step noise covariance has eigenvalue {wmin:.3e}"
                )
            chol = sqrt_psd(sigma)
        except NotHurwitz as exc:
            raise StepperConstructionFailure(str(exc)) from exc
        return cls(h=h, phi_aug=phi, noise_chol=chol, sigma_aug=sigma, p_aug=p_aug)


@dataclass(frozen=True)
class SimBatch:
    """Simulated trajectories of the augmented state, shape
    ``(steps + 1, paths, 2n)``."""

    thetas: np.ndarray
    h: float
    seed: int

    @property
    def steps(self) -> int:
        return self.thetas.shape[0] - 1

    @property
    def paths(self) -> int:
        return self.thetas.shape[1]


def _rng(seed: int) -> np.random.Generator:
    # SFC64 keyed by the seed: deterministic, and numpy's fastest normal draws
    return np.random.Generator(np.random.SFC64(seed))


def zeta_view(states: np.ndarray) -> np.ndarray:
    """Complex state ``zeta = xi + i eta`` from stacked real coordinates."""
    n = states.shape[-1] // 2
    return states[..., :n] + 1j * states[..., n:]


def _chain(model: OqhoModel, h, steps, paths, seed, initial="invariant"):
    """Yield the ``steps + 1`` states of the exact chain (the seeded stream
    draws the initial state, then one noise per step) in two ``(paths, 2n)``
    buffers that later steps overwrite: a caller that keeps a state copies it."""
    stepper = AugmentedStepper.build(model, h)
    rng = _rng(seed)
    state, nxt, noise = (np.zeros((paths, 2 * model.n)) for _ in range(3))
    if initial == "invariant":
        np.matmul(rng.standard_normal(out=noise), sqrt_psd(stepper.p_aug).T, out=state)
    elif initial != "zero":
        raise ValueError("initial must be 'invariant' or 'zero'")
    yield state
    for _ in range(steps):
        np.matmul(rng.standard_normal(out=noise), stepper.noise_chol.T, out=nxt)
        nxt += np.matmul(state, stepper.phi_aug.T, out=noise)
        state, nxt = nxt, state
        yield state


def simulate(
    model: OqhoModel,
    h: float,
    steps: int,
    paths: int,
    seed: int,
    initial: str = "invariant",
) -> SimBatch:
    """Exact-discretization Monte Carlo of the augmented process.

    Draws the initial states from the invariant Gaussian law (or zero with
    ``initial="zero"``) and iterates the exact one-step recursion; output
    is bitwise-deterministic for a fixed seed.  Memory is the
    ``(steps+1) * paths * 2n`` doubles returned; the chain is stationary
    from step 0, so lagged statistics need only ``steps = lag``.
    """
    out = np.empty((steps + 1, paths, 2 * model.n))
    for k, state in enumerate(_chain(model, h, steps, paths, seed, initial)):
        out[k] = state
    return SimBatch(thetas=out, h=h, seed=seed)


def _entrywise_estimate(samples: np.ndarray, paths: int, seed: int) -> McEstimate:
    mean = samples.mean(axis=0)
    dev = samples - mean
    var = (dev.real**2).mean(axis=0) + (dev.imag**2).mean(axis=0)
    stderr = np.sqrt(var / paths)
    return McEstimate(value=mean, stderr=stderr, paths=paths, seed=seed)


def mc_stationary_stats(batch: SimBatch, lag_steps: int) -> tuple[McEstimate, McEstimate]:
    """Sample estimates of ``E(zeta zeta*)`` and the lagged
    ``E(zeta(t + tau) zeta(t)*)`` with per-entry standard errors.

    Targets are ``P + i Theta`` and ``e^{tau A}(P + i Theta)`` for
    ``tau = lag_steps * h``; estimated at the final step against the step
    ``lag_steps`` earlier.
    """
    if batch.paths < 100:
        raise InsufficientPaths(f"need at least 100 paths, got {batch.paths}")
    if not 0 <= lag_steps <= batch.steps:
        raise ValueError("lag exceeds the simulated horizon")
    z_now = zeta_view(batch.thetas[-1])
    z_lag = zeta_view(batch.thetas[-1 - lag_steps])
    cov0 = np.einsum("pi,pj->pij", z_now, z_now.conj())
    covl = np.einsum("pi,pj->pij", z_now, z_lag.conj())
    return (
        _entrywise_estimate(cov0, batch.paths, batch.seed),
        _entrywise_estimate(covl, batch.paths, batch.seed),
    )


def classical_quadform_variance(model: OqhoModel, pi) -> float:
    """Stationary variance of ``zeta* Pi zeta``:
    ``<Pi, P Pi P - Theta Pi Theta>``."""
    pi = _as_weight(pi)
    p = gramian_steady(model).p
    theta = model.theta
    return float(np.sum(pi * (p @ pi @ p - theta @ pi @ theta)))


def mc_quadform_variance(batch: SimBatch, pi) -> McEstimate:
    """Per-sample variance estimate of ``zeta* Pi zeta`` at the final step;
    validator for :func:`classical_quadform_variance`."""
    if batch.paths < 100:
        raise InsufficientPaths(f"need at least 100 paths, got {batch.paths}")
    vals = _quadform(batch.thetas[-1], _as_weight(pi))
    var = vals.var(ddof=1)
    # stderr of a sample variance via the fourth central moment
    m4 = ((vals - vals.mean()) ** 4).mean()
    stderr = np.sqrt(max(m4 - var**2 * (batch.paths - 3) / (batch.paths - 1), 0.0) / batch.paths)
    return McEstimate(value=float(var), stderr=float(stderr), paths=batch.paths, seed=batch.seed)


def _quadform(states: np.ndarray, pi: np.ndarray, scratch=None, out=None) -> np.ndarray:
    """Rows of ``zeta* Pi zeta = xi' Pi xi + eta' Pi eta`` (exact for real
    symmetric Pi) as ``((x (I2 (x) Pi)) * x) 1``, optionally into buffers."""
    tmp = np.matmul(states, np.kron(np.eye(2), pi), out=scratch)
    np.multiply(tmp, states, out=tmp)
    return np.matmul(tmp, np.ones(states.shape[-1]), out=out)


def _density_integral(model: OqhoModel, pi: np.ndarray, g) -> float:
    """integral over R of ``g`` of the weighted density's eigenvalues."""
    eigs = model.weight_facts(pi).density_eigs
    val, _ = quad(lambda lam: g(eigs(lam)), -np.inf, np.inf,
                  epsabs=1e-11, epsrel=1e-11, limit=600)
    return val


def rs_theta_max(model: OqhoModel, pi) -> float:
    """Upper end of the finiteness interval for the rate variants; equals
    ``2 / ||sqrt(Pi) G Omega||_inf^2`` since ``Omega^2 = 2 Omega``."""
    pi = _as_weight(pi)
    if not np.any(pi):
        return math.inf
    return 1.0 / model.weight_facts(pi).density_peak


def _logdet_rate(model: OqhoModel, pi, theta: float, prefactor: float) -> float:
    pi = _as_weight(pi)
    if theta == 0.0 or not np.any(pi):
        return 0.0
    peak = model.weight_facts(pi).density_peak
    if theta < 0 or theta * peak >= 1.0 - 1e-9:
        raise ThetaOutOfRange(
            f"theta = {theta} outside the finiteness range (0, {1.0 / peak:.6e})"
        )

    def log_det(w: np.ndarray) -> float:
        # the peak scan above can miss the top of the density; every node
        # the quadrature visits is checked as well
        if theta * w[-1] >= 1.0:
            raise ThetaOutOfRange(
                f"theta = {theta} reaches theta * eig(Pi D) = {theta * w[-1]:.6f} >= 1"
            )
        return float(np.log1p(-theta * w).sum())

    val = prefactor * _density_integral(model, pi, log_det)
    if not math.isfinite(val):
        raise NumericalDefect(f"log-det rate is not finite at theta = {theta}")
    return val


def classical_rs_rate_paper(model: OqhoModel, pi, theta: float) -> float:
    """Risk-sensitive rate as printed: ``-(1/4 pi) integral ln det(I -
    theta Pi D(lam)) dlam``; small-theta slope ``<Pi, P> / 2``."""
    return _logdet_rate(model, pi, theta, -1.0 / (4.0 * np.pi))


def classical_rs_rate_sde(model: OqhoModel, pi, theta: float) -> float:
    """Rate of the twin as defined by its SDE: the same log-det integral
    with a ``1/2 pi`` prefactor; small-theta slope ``<Pi, P>``.  Exactly
    twice the printed variant on the shared domain."""
    return _logdet_rate(model, pi, theta, -1.0 / (2.0 * np.pi))


def classical_rate_series(model: OqhoModel, pi, theta: float, orders: int = 6) -> float:
    """Truncated series ``(1/4 pi) sum_r (theta^r / r) integral Tr((Pi D)^r)``
    for the printed variant; crosscheck within the geometric remainder."""
    return _density_integral(
        model, _as_weight(pi),
        lambda w: sum(theta**r / r * float((w**r).sum()) for r in range(1, orders + 1)),
    ) / (4.0 * np.pi)


def mc_rs_rate(
    model: OqhoModel,
    pi,
    theta: float,
    horizon: float,
    paths: int,
    seed: int,
    h: float | None = None,
) -> McEstimate:
    """Monte Carlo estimate of the twin's risk-sensitive rate.

    Accumulates the running cost by trapezoid weights over the exactly
    discretized chain (the stationary mean is then unbiased and the
    remaining discretization bias is O(h^2)), applies log-mean-exp across
    paths and divides by the horizon.  The standard error comes from a
    delete-one jackknife; the estimator carries a positive bias of order
    stderr^2.  Refuses parameter ranges where the exponential estimator
    degenerates (effective sample size below 50).
    """
    pi = _as_weight(pi)
    if theta == 0.0 or not np.any(pi):
        return McEstimate(value=0.0, stderr=0.0, paths=paths, seed=seed)
    peak = model.weight_facts(pi).density_peak
    if theta < 0 or theta * peak > 0.3:
        raise ThetaOutOfRange(
            f"theta = {theta} beyond the low-variance envelope 0.3/peak = "
            f"{0.3 / peak:.6e}"
        )
    if h is None:
        h = min(0.02, 0.1 / (1.0 + opnorm2(model.a)))
    steps = max(2, int(round(horizon / h)))
    h = horizon / steps

    acc, vals, scratch = 0.0, np.empty(paths), np.empty((paths, 2 * model.n))
    for k, state in enumerate(_chain(model, h, steps, paths, seed)):
        acc += (0.5 * h if k in (0, steps) else h) * _quadform(state, pi, scratch, vals)
    arg = theta * acc
    peak_arg = arg.max()
    weights = np.exp(arg - peak_arg)
    total = weights.sum()
    ess = total**2 / (weights**2).sum()
    if ess < 50.0:
        raise VarianceBlowup(f"effective sample size {ess:.1f} below 50")
    rate = (np.log(total / paths) + peak_arg) / horizon
    loo = (np.log((total - weights) / (paths - 1)) + peak_arg) / horizon
    stderr = np.sqrt((paths - 1) / paths * ((loo - loo.mean()) ** 2).sum())
    return McEstimate(value=float(rate), stderr=float(stderr), paths=paths, seed=seed)
