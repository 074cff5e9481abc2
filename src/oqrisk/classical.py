"""Classical complex-diffusion twin of the oscillator.

The complex process ``dzeta = A zeta dt + (1/sqrt 2) B Omega domega`` (with
a standard real Wiener process ``omega``) reproduces the oscillator's
two-point covariances exactly: its invariant law is circular complex
Gaussian with ``E(zeta zeta*) = P + i Theta`` and lagged covariance
``e^{tau A}(P + i Theta)``.  Higher moments differ; the one-point variance
of ``zeta* Pi zeta`` is ``<Pi, P Pi P - Theta Pi Theta>`` against the
quantum value ``2 <Pi, P Pi P + Theta Pi Theta>``.

Simulation uses the exact one-step discretization of the augmented real
process ``x = [Re zeta; Im zeta]``: stepping matrix ``e^{h (I2 (x) A)}`` and
the exact one-step noise covariance, so the step enters a Monte Carlo rate
only through the trapezoid sum of the cost, and ``finite_horizon_rate``
gives the exact value that the estimate targets.  The invariant law ``P +
i Theta`` is the model's certified ``SteadyState``, never solved again; a
model without one (``B = 0``) has no twin.  The chain runs in the
coordinates ``y = U'x`` of a frame ``U`` of the support of its invariant law
``P_aug``: when the invariant state is pure (``P + i Theta`` of rank
``n/2``), ``x`` never leaves an ``n``-dimensional subspace of ``R^2n`` and
``U`` is the polar factor of ``P_aug[:, :n] = [P; Theta] / 2``, so each step
draws ``n`` normals, not ``2n``; for any other law ``U`` is the identity.
Two risk-sensitive rate normalizations ship side by side:

* ``classical_rs_rate_paper``: ``-(1/4 pi) integral ln det(I - theta Pi D)``,
  the convention that treats ``D/2`` as the density of ``zeta`` (consistent
  with reading ``zeta`` as a real vector process);
* ``classical_rs_rate_sde``:  the same integral with a ``1/2 pi`` prefactor,
  which is the rate of the circular complex process actually defined by the
  SDE above (its small-theta slope is the true stationary mean ``<Pi, P>``).

Both come from one stabilising Riccati solution, not quadrature (``matfun._care``);
the flow of its Hamiltonian gives the twin's exact finite-horizon rate in
continuous time (:func:`_continuous_rate`), the limit of ``finite_horizon_rate``.
Every exponential moment of the twin is a sum of terms ``ln det(I - X)``, and
each comes from ``matfun._logdet_i_minus``, which refuses an infinite moment
with ``ThetaOutOfRange``; the module has no linear-algebra kernel of its own
and does not import SciPy.

The Monte Carlo estimator ``mc_rs_rate`` is the tiebreaker experiment; its
verdict (it matches the sde variant) is recorded in analysis reports.  It
subtracts the control variate ``S - E S`` (a path's cost less its exact
mean), runs only the paths its requested precision needs, and takes the
largest step whose exact bias fits a tenth of its stderr.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NotPsd,
    NumericalDefect,
    ThetaOutOfRange,
    VarianceBlowup,
)
from .matfun import _care, _logdet_i_minus, _require_integers, expm, opnorm2, sqrt_psd
from .model import OqhoModel, WeightMatrix

__all__ = [
    "AugmentedStepper",
    "SimBatch",
    "McEstimate",
    "augmented_invariant_cov",
    "simulate",
    "mc_stationary_stats",
    "classical_quadform_variance",
    "mc_quadform_variance",
    "classical_rs_rate_paper",
    "classical_rs_rate_sde",
    "finite_horizon_rate",
    "mc_rs_rate",
]

#: Fixed blocks of Monte Carlo paths, each drawn from its own spawned stream.
MC_BLOCKS = 8

#: Bytes of the states in a chunk of a worker's chain (at least one state).
_CHAIN_BYTES = 128 * 1024

#: The fewest paths a certified-step rate runs when it is asked for more.
RATE_PATHS_MIN = 2000


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with per-entry standard errors; deterministic
    for a fixed seed.  ``paths`` is the number of paths run (a rate with
    nothing to estimate reports the number asked for).  A rate
    estimate also carries its step ``h`` and, when ``mc_rs_rate`` chose that
    step, the exact ``target`` it estimates and the predicted
    ``variance_ratio`` of the plain estimator over its control-variate one."""

    value: np.ndarray | float | complex
    stderr: np.ndarray | float
    paths: int
    seed: int
    h: float | None = None
    target: float | None = None
    variance_ratio: float | None = None


def augmented_invariant_cov(p: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``[[P, -Theta], [Theta, P]] / 2``, the augmented real form of ``P + i Theta``."""
    return 0.5 * np.block([[p, -theta], [theta, p]])


@dataclass(frozen=True)
class AugmentedStepper:
    """Exact one-step discretization of the augmented linear SDE.

    With the ``2n x 2n`` stepping matrix ``phi_aug = e^{h (I2 (x) A)}`` and
    invariant covariance ``p_aug``, the real form of the model's ``P + i
    Theta`` (formed by :meth:`build`, not kept), the chain runs in the
    coordinates ``y = frame' x`` of ``frame``, a ``2n x rank`` orthonormal
    basis of the support of the invariant law: ``phi_frame = frame' phi_aug
    frame``, ``p_frame = frame' p_aug frame``, its principal root ``p_root``
    (the initial states' factor) and ``noise_chol``, the principal root of
    ``p_frame - phi_frame p_frame phi_frame'``, so the chain has the
    invariant law as its exact stationary distribution for any step size.

    The frame is the polar factor of ``p_aug[:, :n] = [P; Theta] / 2`` when
    the invariant state is pure (``model.steady.thin`` has ``n/2`` columns):
    that block has full column rank since ``P > 0``, spans the support, and
    its polar factor moves continuously with the model, where an eigenbasis
    of ``p_aug`` (whose eigenvalues come in degenerate pairs) would not.  For
    any other law the frame is the identity.  Principal roots do not depend
    on an eigenbasis either, so sampled paths move continuously with the
    model.  Raises :class:`InvalidArgument` unless ``0 < h < inf``, what
    ``model.steady`` raises for a model with no certified ``P + i Theta``
    (:class:`NotHurwitz`, or :class:`NumericalDefect` at ``B = 0``, which
    gives ``i Theta``, no state), and :class:`NumericalDefect` for a
    one-step noise covariance that fails ``sqrt_psd``'s PSD test.
    """

    h: float
    noise_chol: np.ndarray
    frame: np.ndarray
    phi_frame: np.ndarray
    p_frame: np.ndarray
    p_root: np.ndarray

    @classmethod
    def build(cls, model: OqhoModel, h: float) -> "AugmentedStepper":
        if not 0 < h < math.inf:
            raise InvalidArgument(f"step must be positive and finite, got {h}")
        p_aug = augmented_invariant_cov(model.steady.p, model.theta)
        phi = np.kron(np.eye(2), expm(model.a, h))
        frame = _support_frame(model, p_aug)
        # on the identity frame each product is exact: the chain is the 2n one
        phi_s = frame.T @ phi @ frame
        p_s = frame.T @ p_aug @ frame
        p_s = 0.5 * (p_s + p_s.T)
        sigma_s = p_s - phi_s @ p_s @ phi_s.T
        try:  # an expanding step leaves the one-step noise covariance indefinite
            noise = sqrt_psd(0.5 * (sigma_s + sigma_s.T))
        except NotPsd as exc:
            raise NumericalDefect(f"one-step noise covariance: {exc}") from exc
        return cls(h=h, noise_chol=noise, frame=frame, phi_frame=phi_s, p_frame=p_s,
                   p_root=sqrt_psd(p_s))


def _support_frame(model: OqhoModel, p_aug: np.ndarray) -> np.ndarray:
    """:class:`AugmentedStepper`'s frame: the polar factor of ``p_aug[:, :n]``
    if the certified ``P + i Theta`` has numerical rank ``n/2``
    (``SteadyState.thin``), else the ``2n x 2n`` identity."""
    n = model.n
    if 2 * model.steady.thin.shape[1] != n:
        return np.eye(2 * n)
    w, _, vt = np.linalg.svd(p_aug[:, :n], full_matrices=False)
    return w @ vt


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


def _chain(stepper: AugmentedStepper, steps, rng, raw, states, values):
    """Yield the ``steps + 1`` states of the exact chain in frame coordinates as
    chunks ``(k, states, spare, values)``: at most ``len(raw)`` consecutive ``(paths,
    rank)`` states from state ``k`` on, and the chunk's rows of ``raw`` and of
    ``values`` (a double per path and state), free for the caller until the next
    chunk.  ``rng`` draws the invariant initial state through ``stepper.p_root``,
    then a chunk's normals in one call (in the order of one draw per step), which one
    product turns into noises; a step is one propagation product and one add.
    ``states`` holds one state more than ``raw``; later chunks overwrite the
    caller's buffers: a caller that keeps a state copies it."""
    np.matmul(rng.standard_normal(out=raw[0]), stepper.p_root.T, out=states[0])
    yield 0, states[:1], raw[:1], values[:1]
    for lo in range(0, steps, len(raw)):
        m = min(len(raw), steps - lo)
        np.matmul(rng.standard_normal(out=raw[:m]), stepper.noise_chol.T, out=states[1:m + 1])
        for j in range(m):
            states[j + 1] += np.matmul(states[j], stepper.phi_frame.T, out=raw[j])
        yield lo + 1, states[1:m + 1], raw[:m], values[:m]
        states[0] = states[m]


def _mc_workers() -> int:
    """Threads for the path blocks: the CPUs this process may run on.  They
    set the speed only; every value is fixed by the seed and ``MC_BLOCKS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return min(MC_BLOCKS, cpus)


def _block_edges(paths: int) -> list[int]:
    """Row edges of the ``MC_BLOCKS`` fixed blocks of ``paths`` paths,
    ``np.array_split``'s partition of ``range(paths)``: block ``i`` is rows
    ``edges[i]:edges[i + 1]``, and the first block is the largest."""
    q, r = divmod(paths, MC_BLOCKS)
    return [i * q + min(i, r) for i in range(MC_BLOCKS + 1)]


def _run_blocks(stepper: AugmentedStepper, steps, paths, seed, consume) -> list:
    """``consume(lo, hi, chain)`` for each of ``MC_BLOCKS`` fixed blocks of
    paths (:func:`_block_edges`), in block order.
    Block ``i`` runs the exact chain of ``stepper`` on its own ``SFC64``
    stream, the ``i``-th spawn of ``SeedSequence(seed)``, so a value depends
    on the seed alone.  The blocks run on a thread pool, where numpy's normal
    draws and BLAS release the GIL.  The stepper (the caller's, with its
    initial factor) and each worker's chunk buffers are built first, on the
    calling thread: a chunk holds ``max(1, _CHAIN_BYTES // state bytes)``
    states of the largest block, whatever ``steps``."""
    seeds = np.random.SeedSequence(seed).spawn(MC_BLOCKS)
    edges = _block_edges(paths)
    rank, workers, largest = len(stepper.p_root), _mc_workers(), edges[1]
    chunk = max(1, _CHAIN_BYTES // (8 * largest * rank))
    shapes = (chunk, largest, rank), (chunk + 1, largest, rank), (chunk, largest)
    sets, local = [[np.empty(shape) for shape in shapes] for _ in range(workers)], threading.local()

    def block(i):
        rng, size = np.random.Generator(np.random.SFC64(seeds[i])), edges[i + 1] - edges[i]
        return consume(edges[i], edges[i + 1], _chain(stepper, steps, rng, *(
            b.ravel()[:b[:, :size].size].reshape(len(b), size, *b.shape[2:]) for b in local.bufs)))

    with ThreadPoolExecutor(workers, initializer=lambda: setattr(local, "bufs", sets.pop())) as pool:
        return list(pool.map(block, range(MC_BLOCKS)))


def _check_run(paths, steps, seed) -> None:
    """:class:`InvalidArgument` unless integers ``paths >= 1``, ``steps, seed >= 0``."""
    _require_integers(paths=paths, steps=steps, seed=seed)
    if min(paths - 1, steps, seed) < 0:
        raise InvalidArgument(f"need paths >= 1, steps >= 0, seed >= 0; got {(paths, steps, seed)}")


def simulate(
    model: OqhoModel,
    h: float,
    steps: int,
    paths: int,
    seed: int,
) -> SimBatch:
    """Exact-discretization Monte Carlo of the augmented process.

    Draws the initial states from the invariant Gaussian law and iterates
    the exact one-step recursion in the stepper's frame (``rank`` normals per
    path and step: ``n`` for a pure state, else ``2n``), in ``MC_BLOCKS``
    fixed blocks of paths with one spawned stream each, stepped in chunks of
    states sized by bytes, and maps each chunk back as ``x = y frame'``; a pure
    state's paths lie on the support of the invariant law to rounding.  Output
    is bitwise-deterministic for a fixed seed, whatever the number of CPUs or
    the chunk size.  Memory is the ``(steps+1) * paths * 2n`` doubles returned
    and a few chunks per worker; the chain is stationary from step 0, so
    lagged statistics need only ``steps = lag``.
    """
    _check_run(paths, steps, seed)
    out = np.empty((steps + 1, paths, 2 * model.n))
    stepper = AugmentedStepper.build(model, h)

    def fill(lo, hi, chain):
        for k, states, *_ in chain:
            np.matmul(states, stepper.frame.T, out=out[k:k + len(states), lo:hi])

    _run_blocks(stepper, steps, paths, seed, fill)
    return SimBatch(thetas=out, h=h, seed=seed)


def _pair_sums(x1: np.ndarray, x0: np.ndarray, pi_aug: np.ndarray | None) -> tuple:
    """One block's sufficient statistics of the lag pair ``(x(tau), x(0))``, from
    rows of ``x = [xi; eta]``: the row count, the real Grams ``X1'X1`` and
    ``X1'X0``, the products ``M1'M1`` and ``M1'M0`` of the rows of ``M = xi^2 +
    eta^2`` (entrywise ``|zeta|^2``) and, for a weight ``pi_aug = I2 (x) Pi``,
    the rows ``x1' pi_aug x1`` (else ``None``).  Nothing else of the rows is kept."""
    n = x1.shape[1] // 2
    m1, m0 = (x[:, :n] ** 2 + x[:, n:] ** 2 for x in (x1, x0))
    quad = None if pi_aug is None else _quadform(x1, pi_aug)
    return len(x1), x1.T @ x1, x1.T @ x0, m1.T @ m1, m1.T @ m0, quad


def _lag_pair(blocks: list, seed: int) -> tuple[McEstimate, McEstimate, McEstimate | None]:
    """The lag-pair estimator: ``E(zeta zeta*)``, ``E(zeta(tau) zeta(0)*)``, each
    with per-entry standard errors, and the variance of ``zeta* Pi zeta`` (``None``
    without a weight), from the :func:`_pair_sums` of the ``MC_BLOCKS`` fixed
    blocks, added in block order; :class:`InvalidArgument` below 100 paths.

    A real Gram ``G`` of ``x`` gives ``sum z w* = G_11 + G_22 + i (G_21 -
    G_12)`` in its ``n x n`` blocks; with the second moment ``sum |z|^2 |w|^2``,
    the variance ``second - |mean|^2`` is ``>= 0`` by Cauchy-Schwarz, and only
    the rounding band below it is clipped.  The quadratic-form variance keeps
    one value per path: its standard error comes from the fourth central
    moment."""
    rows, gram, lagged, second, second_lag, quads = zip(*blocks)
    paths = sum(rows)
    if paths < 100:
        raise InvalidArgument(f"need at least 100 paths, got {paths}")

    def product(g, m):
        n = len(m)
        mean = (g[:n, :n] + g[n:, n:] + 1j * (g[n:, :n] - g[:n, n:])) / paths
        var = np.maximum(m / paths - (mean.real**2 + mean.imag**2), 0.0)
        return McEstimate(value=mean, stderr=np.sqrt(var / paths), paths=paths, seed=seed)

    if quads[0] is None:
        variance = None
    else:
        vals = np.concatenate(quads)
        var = vals.var(ddof=1)
        m4 = ((vals - vals.mean()) ** 4).mean()
        stderr = np.sqrt(max(m4 - var**2 * (paths - 3) / (paths - 1), 0.0) / paths)
        variance = McEstimate(value=float(var), stderr=float(stderr), paths=paths, seed=seed)
    return product(sum(gram), sum(second)), product(sum(lagged), sum(second_lag)), variance


def _batch_pairs(batch: SimBatch, lag_steps: int, pi_aug=None) -> list:
    """:func:`_pair_sums` of the final step against the step ``lag_steps``
    earlier, over the ``MC_BLOCKS`` fixed blocks of the batch's paths."""
    x1, x0 = batch.thetas[-1], batch.thetas[-1 - lag_steps]
    edges = _block_edges(batch.paths)
    return [_pair_sums(x1[lo:hi], x0[lo:hi], pi_aug) for lo, hi in zip(edges, edges[1:])]


def mc_stationary_stats(batch: SimBatch, lag_steps: int) -> tuple[McEstimate, McEstimate]:
    """Sample estimates of ``E(zeta zeta*)`` and the lagged
    ``E(zeta(t + tau) zeta(t)*)`` with per-entry standard errors.

    Targets are ``P + i Theta`` and ``e^{tau A}(P + i Theta)`` for
    ``tau = lag_steps * h``; estimated at the final step against the step
    ``lag_steps`` earlier, from ``n x n`` sums over each of the ``MC_BLOCKS``
    fixed blocks of paths that drew them (``np.array_split``'s partition),
    added in block order.
    """
    _require_integers(lag_steps=lag_steps)
    if not 0 <= lag_steps <= batch.steps:
        raise InvalidArgument("lag exceeds the simulated horizon")
    return _lag_pair(_batch_pairs(batch, lag_steps), batch.seed)[:2]


def classical_quadform_variance(model: OqhoModel, pi) -> float:
    """Stationary variance of ``zeta* Pi zeta``:
    ``<Pi, P Pi P - Theta Pi Theta>``."""
    pi = model.weight_facts(pi).pi
    p = model.steady.p
    theta = model.theta
    return float(np.sum(pi * (p @ pi @ p - theta @ pi @ theta)))


def mc_quadform_variance(batch: SimBatch, pi) -> McEstimate:
    """Per-sample variance estimate of ``zeta* Pi zeta`` at the final step;
    validator for :func:`classical_quadform_variance`.  Its per-path values
    are formed over the ``MC_BLOCKS`` fixed blocks of paths
    (``np.array_split``'s partition) and taken in block order."""
    pi, n = WeightMatrix(pi).pi, batch.thetas.shape[-1] // 2
    if pi.shape != (n, n):
        raise DimensionMismatch(f"Pi must be {n}x{n}, got shape {pi.shape}")
    return _lag_pair(_batch_pairs(batch, 0, np.kron(np.eye(2), pi)), batch.seed)[2]


def _mc_lag_pair(model: OqhoModel, pi, h: float, steps: int, paths: int, seed: int) -> tuple:
    """``mc_stationary_stats(batch, steps)`` and ``mc_quadform_variance(batch, pi)``
    of ``batch = simulate(model, h, steps, paths, seed)``, to the bit, without
    the batch: each block maps its first and last states to ``x`` as
    :func:`simulate` does and keeps only their :func:`_pair_sums`, so memory is
    a worker's chunk buffers per worker and one quadratic-form value per path."""
    _check_run(paths, steps, seed)
    pi_aug = np.kron(np.eye(2), model.weight_facts(pi).pi)
    stepper = AugmentedStepper.build(model, h)

    def pair(lo, hi, chain):  # the first chunk is state 0 alone
        ends = [np.matmul(states[-1], stepper.frame.T) for _, states, *_ in chain]
        return _pair_sums(ends[-1], ends[0], pi_aug)

    return _lag_pair(_run_blocks(stepper, steps, paths, seed, pair), seed)


def _quadform(states: np.ndarray, pi_aug: np.ndarray, scratch=None, out=None) -> np.ndarray:
    """Rows of ``zeta* Pi zeta = xi' Pi xi + eta' Pi eta`` (exact for real
    symmetric Pi) as ``((x pi_aug) * x) 1``, ``pi_aug = I2 (x) Pi``, or in
    a stepper's frame ``y = frame' x`` with ``frame' pi_aug frame``,
    optionally into buffers."""
    tmp = np.matmul(states, pi_aug, out=scratch)
    np.multiply(tmp, states, out=tmp)
    return np.matmul(tmp, np.ones(states.shape[-1]), out=out)


def _continuous_rate(model: OqhoModel, pi: np.ndarray, theta: float, horizon: float) -> float:
    """``rho_c(T) = (1/T) ln E exp(theta int_0^T zeta* Pi zeta dt)`` for the twin started in
    its invariant law ``Sigma``: the limit of :func:`finite_horizon_rate` as ``h -> 0``.

    Feynman-Kac for the circular complex process gives ``exp(int_0^T tr(F X)) / det(I -
    theta Sigma X(T))``, ``X`` the ``n x n`` Riccati flow ``dX/dtau = A'X + XA + Pi + XFX``
    from ``X(0) = 0``, ``F = theta B Omega B'``.  With ``X = Z Y^-1``, ``[Y; Z]`` follows
    ``e^{-H tau}`` (``WeightFacts._hamiltonian``) and ``int tr(F X) = -(ln|det Y| + tau tr A)``, so
    ``T rho_c = -(ln|det Y(T)| + T tr A) - ln det(I - theta Sigma X(T))``.  The flow runs in
    ``ceil(T ||H||_2 / 4)`` equal chunks, each of which grows ``[Y; Z]`` by at most
    ``e^{||H tau||} <= e^4``; after each, ``X = Z Y^-1``, ``ln|det Y|`` is added and ``Y``
    restarts from ``I``.  ``Sigma = P + i Theta = V V*`` with the model's thin factor ``V``
    (``SteadyState.thin``), so the last term is ``matfun._logdet_i_minus`` of the ``rank x
    rank`` ``theta V* X V``, whose eigenvalues are the nonzero ones of ``theta Sigma X``;
    it raises :class:`ThetaOutOfRange` when the moment is infinite.  ``mc_rs_rate``'s
    ``0.3/peak`` guard keeps the moment finite at every ``T``."""
    n = model.n
    ham = model.weight_facts(pi)._hamiltonian(theta)
    chunks = math.ceil(horizon * opnorm2(ham) / 4.0)
    flow = expm(-ham, horizon / chunks)
    x, log_y = np.zeros((n, n)), 0.0
    for _ in range(chunks):
        yz = flow[:, :n] + flow[:, n:] @ x
        x = np.linalg.solve(yz[:n].T, yz[n:].T).T
        log_y += np.linalg.slogdet(yz[:n])[1]
    thin = model.steady.thin
    logdet = _logdet_i_minus(theta * (thin.conj().T @ x @ thin))[0]
    return float(-(log_y + horizon * np.trace(model.a)) - logdet) / horizon


def classical_rs_rate_paper(model: OqhoModel, pi, theta: float) -> float:
    """Risk-sensitive rate as printed: ``-(1/4 pi) integral ln det(I -
    theta Pi D(lam)) dlam``; small-theta slope ``<Pi, P> / 2``.

    No quadrature: below the peak it is ``(1/2) tr(X F)``, ``F = theta B Omega
    B'``, ``X`` the stabilising solution of ``A'X + XA + Pi + XFX = 0`` from the
    peak test's Hamiltonian (``matfun._care``), which raises
    :class:`NumericalDefect` when it cannot certify ``X``."""
    facts = model.weight_facts(pi)
    if not 0.0 <= theta < math.inf:  # NaN fails too
        raise ThetaOutOfRange(f"theta = {theta} is not in [0, inf)")
    if theta == 0.0 or not np.any(facts.pi):
        return 0.0
    if not theta * facts.density_peak < 1.0 - 1e-9:
        raise ThetaOutOfRange(f"theta = {theta} outside the finiteness range "
                              f"(0, {1.0 / facts.density_peak:.6e})")
    n, ham = model.n, facts._hamiltonian(theta)
    return 0.5 * float(np.trace(_care(ham) @ ham[:n, n:]).real)


def classical_rs_rate_sde(model: OqhoModel, pi, theta: float) -> float:
    """Rate of the twin as defined by its SDE: the same log-det integral
    with a ``1/2 pi`` prefactor; small-theta slope ``<Pi, P>``.  Exactly
    twice the printed variant."""
    return 2.0 * classical_rs_rate_paper(model, pi, theta)


def _rate_grid(horizon: float, h: float) -> tuple[int, float]:
    """Step count and the step that divides the horizon exactly."""
    if not (0.0 < horizon < math.inf and 0.0 < h < math.inf):
        raise InvalidArgument(f"horizon {horizon} and step {h} must be positive and finite")
    steps = max(2, int(round(horizon / h)))
    return steps, horizon / steps


def _exponent_rates(model: OqhoModel, pi, thetas, horizon: float, h: float, stepper=None):
    """``(stepper, rates)``: :func:`finite_horizon_rate` at each of ``thetas`` on ``stepper``
    (or one built at ``h``), one recursion on their stacked exponents, each to the bit.

    The recursion runs backwards in the stepper's frame, ``rank x rank``.  For ``x = m + L
    z``, ``z`` standard normal, ``log E exp(x'Mx) = -(1/2) ln det(I - 2 L'ML) + m'Km`` with
    ``K = M + 2 ML (I - 2 L'ML)^-1 L'M``.  It carries the doubled exponents ``mat = 2M``
    (exact), so each step's ``ln det(I - X)``, ``X = L' mat L``, and the Cholesky factor
    ``C`` of ``I - X`` come from ``matfun._logdet_i_minus`` (``ThetaOutOfRange`` when the
    moment is infinite), and ``2K = mat + w'w`` with ``w = C^-1 L' mat``; the noise factor
    is ``L`` at each step, and the initial law's ``p_root`` closes the sum."""
    steps, h = _rate_grid(horizon, h)
    stepper = stepper or AugmentedStepper.build(model, h)
    phi, noise = stepper.phi_frame, stepper.noise_chol
    # 2 zeta* Pi zeta = 2 (xi'Pi xi + eta'Pi eta), in the stepper's frame
    q = np.multiply.outer(thetas, 2.0 * _cost_form(stepper, model.weight_facts(pi).pi))
    mat, total = 0.5 * h * q, 0.0
    for k in range(steps - 1, -1, -1):
        ml = mat @ noise
        logdet, chol = _logdet_i_minus(noise.T @ ml)
        w = np.linalg.solve(chol, ml.mT)
        total += logdet
        mat = (0.5 * h if k == 0 else h) * q + phi.T @ (mat + w.mT @ w) @ phi
    total += _logdet_i_minus(stepper.p_root.T @ (mat @ stepper.p_root))[0]
    return stepper, -0.5 * total / horizon


def finite_horizon_rate(model: OqhoModel, pi, theta: float, horizon: float, h: float) -> float:
    """Exact ``(1/T) log E exp(theta phi_h)`` that ``mc_rs_rate`` estimates
    at step ``h``: ``phi_h`` is the trapezoid sum of ``zeta* Pi zeta`` over
    the exactly discretized chain started in its invariant law.

    A backward recursion on quadratic exponents over
    ``AugmentedStepper.build(model, h)``, ``O(steps n^3)``.  Raises
    ``ThetaOutOfRange`` when a step's ``I - 2 L'ML`` (or the initial law's)
    is not positive definite, i.e. when the rate is infinite.
    """
    if not math.isfinite(theta):
        raise ThetaOutOfRange(f"theta = {theta} is not finite")
    return float(_exponent_rates(model, pi, [theta], horizon, h)[1][0])


def _cost_form(stepper: AugmentedStepper, pi: np.ndarray) -> np.ndarray:
    """``Q_f = frame' (I2 (x) Pi) frame``: a path's cost rate ``zeta* Pi zeta``
    is ``y' Q_f y`` in the stepper's frame, with stationary mean ``tr(Q_f P_f)``."""
    return stepper.frame.T @ np.kron(np.eye(2), pi) @ stepper.frame


def _variance_ratio(model: OqhoModel, pi, theta, horizon, stepper) -> tuple[float, float, float]:
    """Predicted variance of the plain estimator of ``E e^{theta S}`` over the
    control-variate one, ``1 / (1 - R^2)``, ``inf`` if ``R^2 >= 1``; the relative
    variance ``expm1(T (rho_2theta - 2 rho))`` of one path's weight ``e^{theta S}``;
    and ``rho = rho_theta``, all at the stepper's step.

    ``R`` is the correlation of ``Y = e^{theta S}`` with the path cost ``S``:
    ``Cov(Y, S) = E Y (Lambda'(theta) - E S)`` and ``Var Y = (E Y)^2 expm1(
    Lambda(2 theta) - 2 Lambda(theta))`` for ``Lambda = T rho``, so ``R^2 =
    (Lambda'(theta) - E S)^2 / (Var S expm1(Lambda(2 theta) - 2 Lambda(theta)))``.
    One stacked recursion on ``stepper`` gives ``Lambda`` at ``theta``, ``2
    theta``, ``theta +- eps`` and ``+- eps`` for ``eps = 1e-3 theta``; central
    differences give ``Lambda'(theta)`` and ``Var S = (Lambda(eps) +
    Lambda(-eps)) / eps^2`` (``Lambda(0) = 0``).  Each rate of the stack is
    its own :func:`finite_horizon_rate` to the bit.  An infinite ``2 theta``
    moment raises ``ThetaOutOfRange``."""
    mean_cost = horizon * np.sum(_cost_form(stepper, pi) * stepper.p_frame)
    eps = 1e-3 * theta
    thetas = (theta, 2.0 * theta, theta + eps, theta - eps, eps, -eps)
    rates = _exponent_rates(model, pi, thetas, horizon, stepper.h, stepper)[1]
    lam = horizon * rates
    slope = (lam[2] - lam[3]) / (2.0 * eps)
    var_cost = (lam[4] + lam[5]) / eps**2
    with np.errstate(over="ignore"):  # an infinite Var Y leaves R^2 = 0
        rel_var = np.expm1(lam[1] - 2.0 * lam[0])
        spread = var_cost * rel_var
    r2 = (slope - mean_cost) ** 2 / spread if spread > 0.0 else 0.0
    return (float(1.0 / (1.0 - r2)) if r2 < 1.0 else math.inf), float(rel_var), float(rates[0])


def _rate_plan(model: OqhoModel, pi, theta, horizon, paths) -> tuple[AugmentedStepper, float, int, float]:
    """``(stepper, rho, run, ratio)`` of a certified-step rate asked for the
    precision of ``paths`` plain paths.

    The rungs are the distinct grid step counts of ``h = 2^(1-k) / (1 +
    ||A||_2)`` down to the floor ``min(0.02, 0.1 / (1 + ||A||_2))``, from the
    top; the top rung turns the fastest mode by less than 2 rad a step, under
    the aliasing limit of pi.  Each rung builds one stepper and runs one
    stacked recursion (:func:`_variance_ratio`), from which it takes its
    ``rho``, its ``ratio``, the run ``min(paths, max(RATE_PATHS_MIN, ceil(paths
    / ratio)))`` and its budget, a tenth of the control-variate stderr
    ``sqrt(expm1(T (rho_2theta - 2 rho)) / (run ratio)) / T`` (the delta
    method's, ``run ratio`` plain paths).  The first rung whose exact bias
    ``|rho - rho_c|`` against the twin's continuous-time rate
    (:func:`_continuous_rate`) fits its budget is taken, else the floor; an
    infinite stderr admits any rung.  A rung whose relative variance is not
    positive (it rounds to 0 or below at a tiny theta) raises
    ``ThetaOutOfRange``: its budget is undefined."""
    scale = 1.0 + opnorm2(model.a)
    floor, h, ladder = min(0.02, 0.1 / scale), 2.0 / scale, []
    while h > floor:
        ladder.append(h)
        h /= 2.0
    target = _continuous_rate(model, pi, theta, horizon)
    for steps in sorted({_rate_grid(horizon, h)[0] for h in ladder + [floor]}):
        stepper = AugmentedStepper.build(model, horizon / steps)
        ratio, rel_var, rho = _variance_ratio(model, pi, theta, horizon, stepper)
        if not rel_var > 0.0:
            raise ThetaOutOfRange(f"theta = {theta} is too small for the certified step: the "
                                  f"relative variance of a path's weight rounds to {rel_var:.3e}")
        run = min(paths, max(RATE_PATHS_MIN, math.ceil(paths / ratio)))
        if abs(rho - target) <= 0.1 * math.sqrt(rel_var / (run * ratio)) / horizon:
            break
    return stepper, rho, run, ratio


def _cv_rate(cost: np.ndarray, mean_cost: float, theta, horizon) -> tuple[float, float]:
    """``(rate, stderr)``: ``(1/T) ln`` of the control-variate estimate of ``E
    e^{theta S}`` from the path costs ``S`` and their exact mean ``E S``.

    With ``Y = e^{theta S - max}`` the estimate is ``mean(Y) - beta mean(S -
    E S)``, ``beta`` the least-squares slope of ``Y`` on ``S`` over all paths
    (0 when ``S`` has no sample variance).  The stderr is a delete-one
    jackknife that refits ``beta``, from leave-one-out sums in O(paths).
    :class:`VarianceBlowup` when the plain weights ``Y`` have an effective
    sample size below 50, or when the estimate or a leave-one-out estimate is
    not positive."""
    paths = len(cost)
    arg = theta * cost
    peak = arg.max()
    y = np.exp(arg - peak)
    ess = y.sum() ** 2 / (y**2).sum()
    if ess < 50.0:
        raise VarianceBlowup(f"effective sample size {ess:.1f} below 50")
    c = cost - mean_cost
    y_bar, c_bar = y.mean(), c.mean()
    e, d = y - y_bar, c - c_bar
    sxy, sxx = (e * d).sum(), (d * d).sum()
    beta = sxy / sxx if sxx > 0.0 else 0.0
    # the centred sums without path i lose n/(n-1) of its own product
    k = paths / (paths - 1.0)
    sxy_i, sxx_i = sxy - k * e * d, sxx - k * d * d
    beta_i = np.divide(sxy_i, sxx_i, out=np.zeros(paths), where=sxx_i > 0.0)
    mean = y_bar - beta * c_bar
    loo = (y_bar - e / (paths - 1)) - beta_i * (c_bar - d / (paths - 1))
    if not (mean > 0.0 and loo.min() > 0.0):
        raise VarianceBlowup(f"control-variate mean {mean:.3e} or a leave-one-out "
                             f"mean {loo.min():.3e} is not positive")
    loo = (np.log(loo) + peak) / horizon
    stderr = np.sqrt((paths - 1) / paths * ((loo - loo.mean()) ** 2).sum())
    return float((np.log(mean) + peak) / horizon), float(stderr)


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

    Accumulates the running cost ``S`` of each path by trapezoid weights over
    the exactly discretized chain, in ``MC_BLOCKS`` fixed blocks of paths with
    one spawned stream each (as :func:`simulate`; the number of CPUs that run
    them changes no value), in the stepper's frame: the cost is ``y' (frame'
    (I2 (x) Pi) frame) y`` and a pure state draws ``n`` normals per path and
    step, not ``2n``.  The estimate is ``(1/T) ln`` of the mean of ``e^{theta
    S}`` less a control variate, ``beta`` times the mean of ``S - E S``, whose
    exact mean ``E S = T tr(Q_f P_f)`` the stationary chain gives; its
    standard error is a delete-one jackknife that refits ``beta``
    (:func:`_cv_rate`), and it carries a positive bias of order stderr^2.  The
    step enters only through the trapezoid sum, whose exact rate is
    ``finite_horizon_rate``.

    With ``h=None``, ``paths`` sets the rate's precision: at least that of
    the plain estimator over ``paths`` paths.  The step is the largest
    ``2^(1-k) / (1 + ||A||_2)`` whose bias against the twin's continuous-time
    rate is at most a tenth of the control-variate stderr at that step's run,
    never below ``min(0.02, 0.1 / (1 + ||A||_2))``; at each step the predicted
    variance ratio of the plain estimator over the control-variate one
    (:func:`_variance_ratio`) sets the run ``min(paths, max(RATE_PATHS_MIN,
    ceil(paths / ratio)))`` (:func:`_rate_plan`).  The
    estimate carries the run count, the step, its exact ``target`` and the
    ratio, and a rate whose ``2 theta`` moment is infinite, or whose theta
    is so small that a path weight's relative variance rounds to 0 or below,
    is refused with ``ThetaOutOfRange`` before any path is drawn.  An
    explicit ``h`` runs ``paths`` paths at that step, with no target or
    ratio.  Refuses parameter ranges where the exponential estimator
    degenerates (effective sample size of the plain weights below 50).
    """
    _check_run(paths, 0, seed)
    _rate_grid(horizon, horizon if h is None else h)  # refuses a bad horizon or step
    if not 0.0 <= theta < math.inf:  # NaN fails too
        raise ThetaOutOfRange(f"theta = {theta} is not in [0, inf)")
    facts = model.weight_facts(pi)
    pi = facts.pi
    if theta == 0.0 or not np.any(pi):
        return McEstimate(value=0.0, stderr=0.0, paths=paths, seed=seed, target=0.0)
    if not theta * facts.density_peak <= 0.3:
        raise ThetaOutOfRange(f"theta = {theta} beyond the low-variance envelope "
                              f"0.3/peak = {0.3 / facts.density_peak:.6e}")
    stepper, target, run, ratio = (
        _rate_plan(model, pi, theta, horizon, paths) if h is None
        else (AugmentedStepper.build(model, _rate_grid(horizon, h)[1]), None, paths, None))
    steps, h = _rate_grid(horizon, stepper.h)
    pi_frame = _cost_form(stepper, pi)
    weights = np.concatenate(([0.5 * h], np.full(steps - 1, h), [0.5 * h]))

    def cost(lo, hi, chain):
        acc, step_weights = 0.0, iter(weights)
        for _, states, spare, vals in chain:  # the costs enter one step at a time, in step order
            for val, weight in zip(_quadform(states, pi_frame, spare, vals), step_weights):
                acc += np.multiply(val, weight, out=val)
        return acc

    costs = np.concatenate(_run_blocks(stepper, steps, run, seed, cost))
    rate, stderr = _cv_rate(costs, horizon * np.sum(pi_frame * stepper.p_frame), theta, horizon)
    return McEstimate(value=rate, stderr=stderr, paths=run, seed=seed, h=h, target=target,
                      variance_ratio=ratio)
