"""State-space model of an open quantum harmonic oscillator.

The oscillator is specified by a commutation-weight matrix ``Theta`` (real,
antisymmetric, nonsingular), an energy matrix ``R`` (real symmetric) and a
field-coupling matrix ``M``.  The derived drift and dispersion matrices

    A = 2 Theta (R + M' J M),        B = 2 Theta M',

together with the field commutation matrix ``J`` and the noise Ito matrix
``Omega = I + iJ``, satisfy the physical-realizability identity
``A Theta + Theta A' + B J B' = 0`` by construction.  :func:`build_model`
records the spectral abscissa of ``A``; the identity's residual
(:func:`pr_residual`) is reported by ``oqrisk validate`` and ``analyze``
and checked by acceptance criterion 03.  The model owns its second-order
facts: ``P`` (``steady``), the stationary kernel ``S(tau)`` (``kernel``)
and its Fourier transform ``D(lam) = G Omega G*``, ``G = (i lam -
A)^{-1} B``.  ``Omega`` has rank ``m/2`` (``Omega^2 = 2 Omega``), so ``D``
is kept as its factor: with ``U`` the orthonormal basis of the eigenvalue-2
space of ``Omega`` (``omega_basis``, ``Omega = 2 U U*``), one batched solve
gives ``W = G [U, conj U]`` (``density_factor``), and ``D(lam) = 2 W0 W0*``,
``D(-lam)' = 2 W1 W1*`` from its column halves (``density_pair``).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matfun
from .errors import (
    ConfigError,
    DimensionMismatch,
    InvalidArgument,
    NoConvergence,
    NotHurwitz,
    NotSymmetric,
    NumericalDefect,
)
from .matfun import HURWITZ_TOL, EigBasis, eig_basis, sqrt_psd

__all__ = [
    "CcrMatrix",
    "PhysicalParams",
    "OqhoModel",
    "SteadyState",
    "WeightFacts",
    "WeightMatrix",
    "block_j",
    "canonical_ccr",
    "build_model",
    "model_from_matrices",
    "model_from_json",
    "pr_residual",
    "random_model",
]


def block_j(m: int) -> np.ndarray:
    """The orthogonal antisymmetric matrix [[0, I],[-I, 0]] of even order m."""
    if m <= 0 or m % 2:
        raise DimensionMismatch(f"order must be even and positive, got {m}")
    bj = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(bj, np.eye(m // 2))


def canonical_ccr(n: int) -> "CcrMatrix":
    """Position/momentum commutation weights ``Theta = block_j(n) / 2``."""
    return CcrMatrix(0.5 * block_j(n))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CcrMatrix:
    """Commutation-weight matrix: real antisymmetric nonsingular, even order.

    Antisymmetry is an exact structural requirement, checked without
    tolerance; a matrix that is merely antisymmetric up to rounding is
    rejected (:class:`NotSymmetric`) rather than silently projected.
    """

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise DimensionMismatch("theta must be square")
        n = theta.shape[0]
        if n == 0 or n % 2:
            raise DimensionMismatch(f"theta order must be even and positive, got {n}")
        if not np.all(np.isfinite(theta)):
            raise InvalidArgument("theta contains non-finite entries")
        if np.linalg.norm(theta + theta.T) != 0.0:
            raise NotSymmetric("theta + theta' must vanish exactly")
        smin = np.linalg.svd(theta, compute_uv=False)[-1]
        if smin <= 1e-12 * np.linalg.norm(theta, 2):
            raise InvalidArgument(f"smallest singular value {smin:.3e} within 1e-12 band")
        object.__setattr__(self, "theta", _freeze(theta))

    @property
    def n(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class PhysicalParams:
    """Energy matrix ``R`` (symmetric n x n) and coupling matrix ``M`` (m x n)."""

    r: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        m = np.asarray(self.m, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise DimensionMismatch("R must be square")
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(m)):
            raise InvalidArgument("R or M contains non-finite entries")
        if np.linalg.norm(r - r.T) != 0.0:
            raise NotSymmetric("R - R' must vanish exactly")
        if m.ndim != 2 or m.shape[1] != r.shape[0]:
            raise DimensionMismatch(
                f"M must have {r.shape[0]} columns, got shape {m.shape}"
            )
        if m.shape[0] == 0 or m.shape[0] % 2:
            raise DimensionMismatch(
                f"field channel count must be even and positive, got {m.shape[0]}"
            )
        object.__setattr__(self, "r", _freeze(r))
        object.__setattr__(self, "m", _freeze(m))

    @property
    def n(self) -> int:
        return self.r.shape[0]

    @property
    def channels(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class SteadyState:
    """Steady Gramian ``P`` plus the quantum covariance ``P + i*Theta``, its
    ascending eigenvalues ``eigvals`` and its thin factor ``thin``, both from
    the one eigendecomposition of :attr:`OqhoModel.steady`'s certificate.

    ``thin`` is ``V``, ``n x rank``, with ``V V* = P + i Theta`` on the
    eigenvalues above the numerical-rank floor ``n eps max``: the one rank
    rule of the invariant law.  Its ``rank`` is ``n/2`` when the invariant
    state is pure (passive dynamics under vacuum input)."""

    p: np.ndarray
    quantum_cov: np.ndarray
    eigvals: np.ndarray
    thin: np.ndarray


@dataclass(frozen=True)
class WeightMatrix:
    """Real finite symmetric cost weight.  Nonnegativity is checked where
    ``sqrt(Pi)`` is formed (``WeightFacts.root`` raises :class:`NotPsd`)."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
            raise DimensionMismatch(f"Pi must be square, got shape {pi.shape}")
        matfun._require_finite(pi, "Pi")
        if np.linalg.norm(pi - pi.T) != 0.0:
            raise NotSymmetric("Pi - Pi' must vanish exactly")
        object.__setattr__(self, "pi", _freeze(pi))


@dataclass(eq=False)
class _RateState:
    """The cumulant rates' node state of one weight: ``None`` or one
    ``cumulants._RateBlock`` per ``RULE_BLOCK`` block of the unhalved
    frequency rule, read and replaced under ``lock`` only."""

    blocks: list | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass(frozen=True, eq=False)
class WeightFacts:
    """Facts of one ``(model, Pi)`` pair, each computed on first use and
    kept: ``root = sqrt(Pi)``, ``seed = P Pi P + Theta Pi Theta``, the
    Lyapunov solutions ``t`` of ``AT + TA' + seed = 0``, ``u`` of
    ``AU + UA' + T = 0`` and ``q`` of ``A'Q + QA + Pi = 0``, the certified
    ``variance_rate`` and ``density_peak``, and the cumulant rates' node
    state ``rate_state`` (kept while it fits ``cumulants.RATE_STATE_BYTES``).
    Via :meth:`OqhoModel.weight_facts`."""

    model: "OqhoModel"
    pi: np.ndarray
    rate_state: _RateState = field(default_factory=_RateState, init=False, repr=False)

    @cached_property
    def root(self) -> np.ndarray:
        return _freeze(sqrt_psd(self.pi))

    @cached_property
    def seed(self) -> np.ndarray:
        p, theta = self.model.steady.p, self.model.theta
        return _freeze(p @ self.pi @ p + theta @ self.pi @ theta)

    @cached_property
    def t(self) -> np.ndarray:
        return _freeze(matfun.lyap_solve(self.model.a, self.seed))

    @cached_property
    def u(self) -> np.ndarray:
        return _freeze(matfun.lyap_solve(self.model.a, self.t))

    @cached_property
    def q(self) -> np.ndarray:
        return _freeze(matfun.lyap_solve(self.model.a.T, self.pi))

    @cached_property
    def variance_rate(self) -> float:
        """``4 <Pi, T>``, certified against its Lyapunov dual ``4 <Q, seed>``
        to 1e-9 relative, else :class:`NumericalDefect`."""
        primal = 4.0 * float(np.sum(self.pi * self.t))
        dual = 4.0 * float(np.sum(self.q * self.seed))
        if abs(primal - dual) > 1e-9 * (1.0 + abs(primal)):
            raise NumericalDefect(f"Lyapunov duality violated: {primal:.12e} vs {dual:.12e}")
        return primal

    def density_eigs(self, lams) -> np.ndarray:
        """Ascending eigenvalues of ``sqrt(Pi) D(lam) sqrt(Pi)`` stacked over
        the frequencies ``lams``, ``D = G Omega G* = 2 W0 W0*`` from the first
        column half of :meth:`OqhoModel.density_factor` only."""
        w0 = self.model.density_factor(lams)[..., :self.model.m // 2]
        x = (self.root @ w0.view(float)).view(complex)  # one real product
        return np.linalg.eigvalsh(2.0 * x @ x.conj().swapaxes(-1, -2))

    @cached_property
    def density_peak(self) -> float:
        """``||sqrt(Pi) G Omega||_inf^2 / 2``, the top of :meth:`density_eigs`
        over all real ``lam``, bounded from above to 1e-8 relative (Bruinsma-
        Steinbuch): the top at trial frequencies (first ``0``, ``Im(eig A)``)
        is a lower bound, and ``level = (1 + 1e-8) lower`` is certified when
        ``[[A, B Omega B' / level], [-Pi, -A']]`` has no eigenvalue ``i lam``
        (``|Re| <= 1e-10 max|eig|``); else the midpoints of those ``lam`` are
        the next trials.  When every Markov parameter ``sqrt(Pi) A^k B`` (``k <
        n``) is exactly 0, the density vanishes at every ``lam`` (Cayley-Hamilton)
        and its peak is the certified 0, as for ``Pi = 0`` or ``B = 0``.
        :class:`NoConvergence` after 30 tests, or when every trial top is 0."""
        a, b = self.model.a, self.model.b
        if not any(np.any(self.root @ np.linalg.matrix_power(a, k) @ b) for k in range(len(a))):
            return 0.0
        lams, lower = np.concatenate(([0.0], self.model.eig.values.imag)), 0.0
        for _ in range(30):
            lower = float(self.density_eigs(lams)[:, -1].max(initial=lower))
            if lower == 0.0:
                break
            level = (1.0 + 1e-8) * lower
            ev = np.linalg.eigvals(self._hamiltonian(1.0 / level))
            axis = np.sort(ev.imag[np.abs(ev.real) <= 1e-10 * np.abs(ev).max()])
            if axis.size == 0:
                return level
            lams = 0.5 * (axis[1:] + axis[:-1])
        raise NoConvergence(f"no density level certified above {lower:.6e}")

    def _hamiltonian(self, theta: float) -> np.ndarray:
        """``H = [[A, F], [-Pi, -A']]``, ``F = theta B Omega B'``: the peak test's
        Hamiltonian at level ``1/theta``.  Its stable subspace gives the classical
        twin's Riccati rate, its flow ``e^{-H tau}`` the twin's continuous-time rate."""
        model = self.model
        f = theta * (model.b @ model.omega @ model.b.T)
        return np.block([[model.a, f], [-self.pi, -model.a.T]])


@dataclass(frozen=True)
class OqhoModel:
    """Validated oscillator model with derived state-space data.

    All arrays are read-only; instances are safe to share across tasks.
    The model facts every analysis reads are computed once per instance
    and cached on it: ``eig`` (eigendecomposition of ``A`` with its
    eigenvector condition number; :func:`build_model` takes the spectral
    abscissa from it), ``steady`` (``P`` and the certified ``P + i*Theta``, read by
    :meth:`kernel`) and, per weight, :meth:`weight_facts` (``T``, ``Q``, rates).
    """

    ccr: CcrMatrix
    params: PhysicalParams
    a: np.ndarray
    b: np.ndarray
    j: np.ndarray
    omega: np.ndarray = field(repr=False)
    spectral_abscissa: float = 0.0
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.ccr.n

    @property
    def m(self) -> int:
        return self.params.channels

    @property
    def theta(self) -> np.ndarray:
        return self.ccr.theta

    @property
    def is_hurwitz(self) -> bool:
        return self.spectral_abscissa < HURWITZ_TOL

    @cached_property
    def eig(self) -> EigBasis:
        return eig_basis(self.a)

    @cached_property
    def omega_basis(self) -> np.ndarray:
        """``U``, the ``m x m/2`` orthonormal basis of the eigenvalue-2 space of
        ``Omega = I + iJ`` (``Omega^2 = 2 Omega``), so ``Omega = 2 U U*``: for
        ``J = [[0, I], [-I, 0]]`` the last ``m/2`` columns of ``Omega``,
        ``[[iI], [I]]``, over ``sqrt 2``."""
        u = self.omega[:, self.m // 2:] / np.sqrt(2.0)
        u.setflags(write=False)
        return u

    def density_factor(self, lams) -> np.ndarray:
        """``W = (i lam - A)^{-1} B [U, conj U]`` (``n x m``) stacked over ``lams``,
        one batched solve, :attr:`omega_basis` ``U``.  Its column halves ``W0``,
        ``W1`` factor ``D(lam) = G Omega G* = 2 W0 W0*`` and ``D(-lam)' =
        G conj(Omega) G* = 2 W1 W1*`` (``A``, ``B`` real, ``D`` Hermitian)."""
        if not self.is_hurwitz:
            raise NotHurwitz(f"spectral density needs a Hurwitz drift; abscissa = "
                             f"{self.spectral_abscissa:.3e}")
        lams = np.asarray(lams, dtype=float)
        if lams.ndim != 1:
            raise DimensionMismatch(f"need 1-D frequencies, got shape {lams.shape}")
        if not np.all(np.isfinite(lams)):
            raise InvalidArgument("frequencies must be finite")
        u = self.omega_basis
        return np.linalg.solve(1j * lams[:, None, None] * np.eye(self.n) - self.a,
                               self.b @ np.hstack([u, u.conj()]))

    def density_pair(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """``(D(lam), D(-lam)')`` stacked over ``lams``: ``2 W0 W0*`` and
        ``2 W1 W1*`` of :meth:`density_factor`."""
        w = self.density_factor(lams)
        w0, w1 = np.split(w, 2, axis=-1)
        return (2.0 * w0 @ w0.conj().swapaxes(-1, -2),
                2.0 * w1 @ w1.conj().swapaxes(-1, -2))

    def kernel(self, tau) -> np.ndarray:
        """``S(tau) = e^{tau A} (P + i Theta)``, the transform of ``D(lam)``, for a
        lag or stacked over an array of lags (on ``t_j - t_k``, the multi-point
        covariance): one ``expm`` per distinct ``|tau|``, conjugate-transposed
        where ``tau < 0``.  A non-finite lag raises :class:`InvalidArgument`."""
        tau = np.asarray(tau, dtype=float)
        if not np.all(np.isfinite(tau)):
            raise InvalidArgument("lags must be finite")
        distinct, index = np.unique(np.abs(tau), return_inverse=True)
        blocks = np.array([matfun.expm(self.a, t) @ self.steady.quantum_cov for t in distinct])
        blocks = blocks.reshape(-1, *self.steady.p.shape)[index.reshape(tau.shape)]
        return np.where((tau < 0)[..., None, None], blocks.conj().swapaxes(-1, -2), blocks)

    @cached_property
    def steady(self) -> SteadyState:
        """Solves ``AP + PA' + BB' = 0`` and certifies the uncertainty
        constraint (``P + i*Theta`` PSD up to a 1e-8 rounding band) from one
        ``eigh``, which also gives the state's eigenvalues and thin factor."""
        if not self.is_hurwitz:
            raise NotHurwitz(
                f"steady-state analysis needs a Hurwitz drift; abscissa = "
                f"{self.spectral_abscissa:.3e}"
            )
        p = matfun.lyap_solve(self.a, self.b @ self.b.T)
        p = 0.5 * (p + p.T)
        quantum = p + 1j * self.theta
        q, u = np.linalg.eigh(quantum)
        if q[0] < -1e-8 * max(np.linalg.norm(p, 2), 1e-300):
            raise NumericalDefect(f"P + i*Theta has eigenvalue {q[0]:.3e}; "
                                  "uncertainty constraint violated")
        keep = q > q.size * np.finfo(float).eps * q[-1]
        thin = u[:, keep] * np.sqrt(q[keep])
        for arr in (p, quantum, q, thin):
            arr.setflags(write=False)
        return SteadyState(p=p, quantum_cov=quantum, eigvals=q, thin=thin)

    def weight_facts(self, pi) -> WeightFacts:
        """The cached :class:`WeightFacts` of a cost weight (an array or a
        :class:`WeightMatrix`), keyed by the weight's bytes.  Every analysis
        of a weight starts here: on first use the weight must pass
        :class:`WeightMatrix` (square, exactly symmetric) and be ``n x n``,
        else :class:`DimensionMismatch`.  Threads that meet a weight at once
        get one :class:`WeightFacts` (the first one stored), so they share
        its facts and its rate state."""
        pi = np.asarray(pi.pi if isinstance(pi, WeightMatrix) else pi, dtype=float)
        key = (pi.shape, pi.tobytes())
        facts = self._weights.get(key)
        if facts is None:
            pi = WeightMatrix(pi).pi
            if pi.shape != (self.n, self.n):
                raise DimensionMismatch(f"Pi must be {self.n}x{self.n}, got shape {pi.shape}")
            facts = self._weights.setdefault(key, WeightFacts(self, pi))
        return facts


def build_model(ccr: CcrMatrix, params: PhysicalParams) -> OqhoModel:
    """Assemble the state-space model from physical parameters.

    Deterministic: identical inputs produce bitwise-identical ``A`` and
    ``B``.  Raises :class:`DimensionMismatch` when the commutation and
    parameter dimensions disagree and :class:`NumericalDefect` if the
    eigendecomposition of ``A`` does not converge.
    """
    if params.n != ccr.n:
        raise DimensionMismatch(
            f"params are {params.n}-dimensional but theta has order {ccr.n}"
        )
    theta = ccr.theta
    j = block_j(params.channels)
    a = 2.0 * theta @ (params.r + params.m.T @ j @ params.m)
    b = 2.0 * theta @ params.m.T
    omega = np.eye(params.channels) + 1j * j
    omega.setflags(write=False)
    basis = eig_basis(a)
    model = OqhoModel(
        ccr=ccr,
        params=params,
        a=_freeze(a),
        b=_freeze(b),
        j=_freeze(j),
        omega=omega,
        spectral_abscissa=float(basis.values.real.max()),
    )
    model.__dict__["eig"] = basis  # seed the cache with the same decomposition
    return model


def model_from_matrices(theta, r, m) -> OqhoModel:
    """Convenience constructor from raw arrays."""
    return build_model(CcrMatrix(np.asarray(theta)), PhysicalParams(r=r, m=m))


def pr_residual(model: OqhoModel) -> float:
    """Frobenius norm of the physical-realizability defect
    ``A Theta + Theta A' + B J B'`` (zero for any properly built model)."""
    theta = model.theta
    res = model.a @ theta + theta @ model.a.T + model.b @ model.j @ model.b.T
    return float(np.linalg.norm(res))


def random_model(rng: np.random.Generator, n: int = 4) -> OqhoModel:
    """Sample a Hurwitz model in ``canonical_ccr(n)`` with ``m = n``: R
    symmetric and M with unit-variance entries, redrawn until the drift is
    comfortably stable (up to 20000 times: about 1% pass at n = 6), else
    :class:`NoConvergence`."""
    ccr = canonical_ccr(n)
    for _ in range(20000):
        r = rng.standard_normal((n, n))
        r = 0.5 * (r + r.T)
        model = build_model(ccr, PhysicalParams(r=r, m=rng.standard_normal((n, n))))
        if model.spectral_abscissa < -0.05:
            return model
    raise NoConvergence("failed to sample a Hurwitz model")


def _matrix_from_doc(doc, key, rows, cols):
    try:
        raw = doc[key]
    except KeyError as exc:
        raise ConfigError(f"missing field {key!r}") from exc
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key!r} must be an array of numbers") from exc
    if arr.shape != (rows, cols):
        raise ConfigError(f"field {key!r} must be {rows}x{cols}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"field {key!r} contains non-finite entries")
    return arr


def model_from_json(doc) -> tuple[OqhoModel, np.ndarray | None]:
    """Build a model (and optional cost weight) from a JSON document.

    The document carries ``n``, ``m``, ``theta``, ``R``, ``M`` and an
    optional ``Pi``, each matrix as a row-major array of arrays of finite
    doubles.  Accepts a JSON string or an already-parsed mapping and
    returns ``(model, pi_or_None)``.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ConfigError("model document must be a JSON object")
    try:
        n = int(doc["n"])
        m = int(doc["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("fields 'n' and 'm' must be integers") from exc
    theta = _matrix_from_doc(doc, "theta", n, n)
    r = _matrix_from_doc(doc, "R", n, n)
    mat_m = _matrix_from_doc(doc, "M", m, n)
    pi = None
    if "Pi" in doc or "pi" in doc:
        pi = _matrix_from_doc(doc, "Pi" if "Pi" in doc else "pi", n, n)
    return model_from_matrices(theta, r, mat_m), pi
