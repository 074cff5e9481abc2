"""State-space model of an open quantum harmonic oscillator.

The oscillator is specified by a commutation-weight matrix ``Theta`` (real,
antisymmetric, nonsingular), an energy matrix ``R`` (real symmetric) and a
field-coupling matrix ``M``.  The derived drift and dispersion matrices

    A = 2 Theta (R + M' J M),        B = 2 Theta M',

together with the field commutation matrix ``J`` and the noise Ito matrix
``Omega = I + iJ``, satisfy the physical-realizability identity
``A Theta + Theta A' + B J B' = 0`` by construction; :func:`build_model`
certifies it numerically and records the spectral abscissa of ``A``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matfun
from .errors import (
    ConfigError,
    DimensionMismatch,
    NotAntisymmetric,
    NotHurwitz,
    NotSymmetric,
    NumericalDefect,
    SingularCcr,
)
from .matfun import HURWITZ_TOL, EigBasis, eig_basis, sqrt_psd

__all__ = [
    "CcrMatrix",
    "PhysicalParams",
    "OqhoModel",
    "SteadyState",
    "WeightFacts",
    "block_j",
    "canonical_ccr",
    "build_model",
    "model_from_matrices",
    "model_from_json",
    "pr_residual",
    "stability_margin",
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
    rejected rather than silently projected.
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
            raise ValueError("theta contains non-finite entries")
        if np.linalg.norm(theta + theta.T) != 0.0:
            raise NotAntisymmetric("theta + theta' must vanish exactly")
        smin = np.linalg.svd(theta, compute_uv=False)[-1]
        if smin <= 1e-12 * np.linalg.norm(theta, 2):
            raise SingularCcr(f"smallest singular value {smin:.3e} within 1e-12 band")
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
            raise ValueError("R or M contains non-finite entries")
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
    """Steady Gramian ``P`` plus the quantum covariance ``P + i*Theta``."""

    p: np.ndarray
    quantum_cov: np.ndarray


@dataclass(frozen=True, eq=False)
class WeightFacts:
    """Facts of one ``(model, Pi)`` pair, each computed on first use and
    kept: ``root = sqrt(Pi)``, ``seed = P Pi P + Theta Pi Theta``, the
    Lyapunov solutions ``t`` of ``AT + TA' + seed = 0`` and ``q`` of
    ``A'Q + QA + Pi = 0``, and ``density_peak``.  Obtain through :meth:`OqhoModel.weight_facts`."""

    model: "OqhoModel"
    pi: np.ndarray

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
    def q(self) -> np.ndarray:
        return _freeze(matfun.lyap_solve(self.model.a.T, self.pi))

    def density_eigs(self, lam: float) -> np.ndarray:
        """Ascending eigenvalues of ``sqrt(Pi) D(lam) sqrt(Pi)``, where
        ``D = G Omega G*`` and ``G = (i lam - A)^{-1} B``."""
        if not self.model.is_hurwitz:
            raise NotHurwitz(f"spectral density needs a Hurwitz drift; abscissa = "
                             f"{self.model.spectral_abscissa:.3e}")
        # D is formed here: gaussian.SpectralDensity sits above this module
        g = np.linalg.solve(1j * lam * np.eye(self.model.n) - self.model.a, self.model.b)
        return np.linalg.eigvalsh(self.root @ (g @ self.model.omega @ g.conj().T) @ self.root)

    @cached_property
    def density_peak(self) -> float:
        """Top of :meth:`density_eigs` on a fixed grid of ``lam >= 0``; the
        grid is one-sided and can miss the true peak."""
        scale = 1.0 + matfun.opnorm2(self.model.a)
        lams = np.concatenate([np.linspace(0.0, 10.0 * scale, 1201),
                               np.geomspace(10.0 * scale, 1e4 * scale, 120)])
        return max(0.0, *(float(self.density_eigs(lam)[-1]) for lam in lams))


@dataclass(frozen=True)
class OqhoModel:
    """Validated oscillator model with derived state-space data.

    All arrays are read-only; instances are safe to share across tasks.
    The model facts every analysis reads are computed once per instance
    and cached on it: ``eig`` (eigendecomposition of ``A`` with its
    eigenvector condition number; :func:`build_model` takes the spectral
    abscissa from it), ``steady`` (``P`` and the certified ``P + i*Theta``)
    and, per cost weight, :meth:`weight_facts` (``sqrt(Pi)``, ``T``, ``Q``, density peak).
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
    def steady(self) -> SteadyState:
        """Solves ``AP + PA' + BB' = 0`` and certifies the uncertainty
        constraint (``P + i*Theta`` PSD up to a 1e-8 rounding band)."""
        if not self.is_hurwitz:
            raise NotHurwitz(
                f"steady-state analysis needs a Hurwitz drift; abscissa = "
                f"{self.spectral_abscissa:.3e}"
            )
        p = matfun.lyap_solve(self.a, self.b @ self.b.T)
        p = 0.5 * (p + p.T)
        quantum = p + 1j * self.theta
        wmin = np.linalg.eigvalsh(quantum)[0]
        scale = max(np.linalg.norm(p, 2), 1e-300)
        if wmin < -1e-8 * scale:
            raise NumericalDefect(
                f"P + i*Theta has eigenvalue {wmin:.3e}; uncertainty constraint violated"
            )
        p.setflags(write=False)
        quantum.setflags(write=False)
        return SteadyState(p=p, quantum_cov=quantum)

    def weight_facts(self, pi: np.ndarray) -> WeightFacts:
        """The cached :class:`WeightFacts` of a validated cost weight,
        keyed by the weight's bytes."""
        pi = np.asarray(pi, dtype=float)
        key = (pi.shape, pi.tobytes())
        if key not in self._weights:
            self._weights[key] = WeightFacts(self, _freeze(pi))
        return self._weights[key]


def build_model(ccr: CcrMatrix, params: PhysicalParams) -> OqhoModel:
    """Assemble and certify the state-space model from physical parameters.

    Deterministic: identical inputs produce bitwise-identical ``A`` and
    ``B``.  Raises :class:`DimensionMismatch` when the commutation and
    parameter dimensions disagree and :class:`EigenFailure` if the
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


def stability_margin(model: OqhoModel) -> tuple[bool, float]:
    """``(is_hurwitz, abscissa)`` with the Hurwitz test at the -1e-10 band."""
    return model.is_hurwitz, model.spectral_abscissa


def random_model(
    rng: np.random.Generator,
    n: int = 4,
    m: int | None = None,
    ccr: CcrMatrix | None = None,
    max_tries: int = 20000,
) -> OqhoModel:
    """Sample a Hurwitz model: R symmetric and M with unit-variance entries,
    rejecting draws whose drift is not comfortably stable.  The acceptance
    rate falls quickly with dimension (about 1% at n = 6), hence the large
    retry budget."""
    m = n if m is None else m
    ccr = ccr or canonical_ccr(n)
    for _ in range(max_tries):
        r = rng.standard_normal((n, n))
        r = 0.5 * (r + r.T)
        mat_m = rng.standard_normal((m, n))
        model = build_model(ccr, PhysicalParams(r=r, m=mat_m))
        if model.spectral_abscissa < -0.05:
            return model
    raise RuntimeError("failed to sample a Hurwitz model")


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
