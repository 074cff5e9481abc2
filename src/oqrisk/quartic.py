"""Quartic approximation of the risk-sensitive cost.

For the running cost ``phi(t) = integral_0^t X' Pi X ds`` in the invariant
regime, the first two cumulants grow linearly:

    E phi(t)          = <Pi, P> t,
    var phi(t)        = 4 integral_0^t (t - tau) <Pi, e^{tau A} C e^{tau A'}> dtau,
    var phi(t) / t -> 4 <Pi, T> = 4 <Q, C>,      C = P Pi P + Theta Pi Theta,

with ``T`` and ``Q`` solving ``AT + TA' + C = 0`` and ``A'Q + QA + Pi = 0``.
The quartic growth rate of the exponential cost is ``theta <Pi, P + 2 theta T>``,
trustworthy for risk parameters well below
``theta0 = <Pi, P> / (2 <Pi, T>)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ThetaOutOfRange
from .matfun import expm
from .model import OqhoModel

__all__ = [
    "QuarticReport",
    "mean_rate",
    "variance_finite",
    "variance_rate",
    "theta_threshold",
    "quartic_rate",
    "quartic_report",
]


@dataclass(frozen=True)
class QuarticReport:
    """Rates and certificates of the quartic approximation.

    ``assumes_invariant_state`` records the standing hypothesis that the
    oscillator starts in its invariant Gaussian state.
    """

    mean_rate: float
    t_matrix: np.ndarray
    q_matrix: np.ndarray
    variance_rate: float
    theta0: float
    theta: float
    quartic_rate: float
    assumes_invariant_state: bool = True


def mean_rate(model: OqhoModel, pi) -> float:
    """Growth rate of the mean cost, ``<Pi, P>``."""
    pi = model.weight_facts(pi).pi
    return float(np.sum(pi * model.steady.p))


def variance_finite(model: OqhoModel, pi, t: float) -> float:
    """Variance of the cost over ``[0, t]`` in closed form,

        4 integral_0^t (t - tau) <Pi, e^{tau A} C e^{tau A'}> dtau
            = 4 <Pi, t T - U + e^{tA} U e^{tA'}>,

    with ``AU + UA' + T = 0``: ``U`` is solved once per ``(model, Pi)``."""
    if not 0 <= t < np.inf:
        raise InvalidArgument(f"horizon must be nonnegative and finite, got {t}")
    if t == 0:
        return 0.0
    facts = model.weight_facts(pi)
    e = expm(model.a, t)
    return 4.0 * float(np.sum(facts.pi * (t * facts.t - facts.u + e @ facts.u @ e.T)))


def variance_rate(model: OqhoModel, pi) -> tuple[float, np.ndarray, np.ndarray]:
    """Asymptotic variance growth rate with its two Lyapunov certificates:
    ``(rate, T, Q)``, ``rate = 4 <Pi, T>`` certified against the dual
    ``4 <Q, C>`` (``WeightFacts.variance_rate``), cached per ``(model, Pi)``."""
    facts = model.weight_facts(pi)
    return facts.variance_rate, facts.t, facts.q


def theta_threshold(model: OqhoModel, pi) -> float:
    """Risk-parameter threshold ``<Pi, P> / (2 <Pi, T>)``.

    Returns ``inf`` when the variance certificate vanishes (the cost
    observable is deterministic in the invariant state, as for the
    vacuum-mode example), rather than failing.
    """
    facts = model.weight_facts(pi)
    p = model.steady.p
    denom = 0.25 * facts.variance_rate  # <Pi, T>, certified
    floor = 1e-12 * np.linalg.norm(facts.pi) * np.linalg.norm(p) ** 2
    if denom <= floor:
        return math.inf
    return 0.5 * float(np.sum(facts.pi * p)) / denom


def quartic_rate(model: OqhoModel, pi, theta: float) -> float:
    """Quartic growth rate ``theta <Pi, P + 2 theta T>``; equals
    ``theta * mean_rate + theta^2 / 2 * variance_rate``."""
    if not 0.0 <= theta < math.inf:  # NaN fails too
        raise ThetaOutOfRange(f"theta = {theta} is not in [0, inf)")
    facts = model.weight_facts(pi)
    facts.variance_rate  # T is read only once its duality certificate holds
    return theta * float(np.sum(facts.pi * (model.steady.p + 2.0 * theta * facts.t)))


def quartic_report(model: OqhoModel, pi, theta: float) -> QuarticReport:
    """All quartic-approximation outputs for one risk parameter."""
    rate, t_mat, q_mat = variance_rate(model, pi)
    mean = mean_rate(model, pi)
    return QuarticReport(
        mean_rate=mean,
        t_matrix=t_mat,
        q_matrix=q_mat,
        variance_rate=rate,
        theta0=theta_threshold(model, pi),
        theta=theta,
        quartic_rate=quartic_rate(model, pi, theta),
    )
