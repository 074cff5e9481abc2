"""Analysis orchestration and machine-readable reports.

A configuration document selects the model (inline matrices or a named
fixture) and the analysis blocks to run; :func:`analyze` produces a nested
report dict, and :func:`render_json` serializes it deterministically:
insertion-ordered keys, floats at 17 significant digits, infinities as
tagged objects (never bare tokens).  Identical config, seed and BLAS
thread count produce byte-identical output; a different thread count can
change the last digits of the tail-bound curve.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import __version__, classical, cumulants, deviations, quartic
from .errors import ConfigError, OqriskError
from .fixtures import fixture_model
from .model import OqhoModel, _matrix_from_doc, model_from_json, pr_residual

__all__ = [
    "AnalysisConfig",
    "parse_config",
    "analyze",
    "render_json",
    "bound_rows",
    "delta_rows",
    "cumulant_rows",
]

@dataclass
class McSettings:
    h: float = 0.05
    steps: int = 100
    paths: int = 2000
    seed: int = 1
    lag: int = 5
    theta: float | None = None


@dataclass
class AnalysisConfig:
    """Validated analysis request."""

    model: OqhoModel
    pi: np.ndarray
    theta_list: list = field(default_factory=list)
    orders: list = field(default_factory=lambda: [2, 3])
    eps_grid: tuple | None = None  # (min, max, steps)
    mc: McSettings = field(default_factory=McSettings)


def _number(value, name, what, ok):
    """``value`` if it is a JSON number (not a boolean) with ``ok(value)``;
    otherwise a :class:`ConfigError` saying ``name`` must be ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _positive(value, name):
    return _number(value, name, "positive and finite", lambda v: 0 < v < math.inf)


def _integer(value, name, minimum=-math.inf):
    """An integral JSON number (``2`` or ``2.0``); a fraction is an error,
    never truncated."""
    what = "an integer" + (f" >= {minimum}" if minimum > -math.inf else "")
    return int(_number(value, name, what,
                       lambda v: float(v).is_integer() and v >= minimum))


def _list(doc, key):
    if not isinstance(doc[key], list):
        raise ConfigError(f"'{key}' must be a list, got {doc[key]!r}")
    return doc[key]


def parse_config(doc, fixture: str | None = None, mc: dict | None = None,
                 eps_grid: dict | None = None) -> AnalysisConfig:
    """Build a config from a parsed JSON document and/or a fixture name.

    The document follows the model-ingestion schema (n, m, theta, R, M,
    Pi) plus optional blocks ``pi``, ``theta_list``, ``orders``,
    ``eps_grid`` {min,max,steps} and ``mc`` {h,steps,paths,seed,lag,theta};
    ``mc`` entries given here override the document's, and a nonempty
    ``eps_grid`` given here replaces the document's block, so it needs all
    three keys.  Every malformed value raises :class:`ConfigError`.
    """
    if not isinstance(doc or {}, dict):
        raise ConfigError("the config document must be a JSON object")
    doc = dict(doc or {})
    if fixture is not None:
        model, pi = fixture_model(fixture)
    else:
        model, pi = model_from_json(doc)
    if "pi" in doc and fixture is not None:
        pi = _matrix_from_doc(doc, "pi", model.n, model.n)
    if pi is None:
        raise ConfigError("no cost weight: supply 'Pi' (or use a fixture)")
    cfg = AnalysisConfig(model=model, pi=pi)
    if "theta_list" in doc:
        cfg.theta_list = [
            float(_number(v, "theta_list entries", "nonnegative and finite",
                          lambda v: 0 <= v < math.inf))
            for v in _list(doc, "theta_list")
        ]
    if "orders" in doc:
        cfg.orders = [_integer(v, "orders entries") for v in _list(doc, "orders")]
    if eps_grid or "eps_grid" in doc:
        g = eps_grid or doc["eps_grid"]
        if not (isinstance(g, dict) and {"min", "max", "steps"} <= g.keys()):
            raise ConfigError(f"eps_grid needs numeric 'min', 'max', 'steps', got {g!r}")
        cfg.eps_grid = (float(_number(g["min"], "eps_grid.min", "finite", math.isfinite)),
                        float(_number(g["max"], "eps_grid.max", "finite", math.isfinite)),
                        _integer(g["steps"], "eps_grid.steps", 0))
    block = doc.get("mc", {})
    if not isinstance(block, dict):
        raise ConfigError(f"'mc' must be a JSON object, got {block!r}")
    m = {**vars(McSettings()), **block, **(mc or {})}
    cfg.mc = McSettings(
        h=_positive(m["h"], "mc.h"),
        steps=_integer(m["steps"], "mc.steps", 1),
        paths=_integer(m["paths"], "mc.paths", 1),
        seed=_integer(m["seed"], "mc.seed", 0),
        lag=_integer(m["lag"], "mc.lag", 0),
        theta=None if m["theta"] is None else float(
            _number(m["theta"], "mc.theta", "finite or null", math.isfinite)),
    )
    return cfg


def _matrix(a: np.ndarray):
    return [[float(x) for x in row] for row in np.asarray(a, dtype=float)]


def _cmatrix(a: np.ndarray):
    a = np.asarray(a)
    return {"re": _matrix(a.real), "im": _matrix(a.imag)}


def _model_block(model: OqhoModel) -> dict:
    return {
        "n": model.n,
        "m": model.m,
        "pr_residual": pr_residual(model),
        "spectral_abscissa": model.spectral_abscissa,
        "is_hurwitz": model.is_hurwitz,
        "a": _matrix(model.a),
        "b": _matrix(model.b),
    }


def _steady_block(model: OqhoModel) -> dict:
    steady = model.steady
    return {
        "p": _matrix(steady.p),
        "quantum_cov_eig_floor": float(steady.eigvals[0]),
    }


def _quartic_block(model, pi, theta_list) -> dict:
    rep = quartic.quartic_report(model, pi, theta_list[0] if theta_list else 0.0)
    return {
        "mean_rate": rep.mean_rate,
        "variance_rate": rep.variance_rate,
        "t_matrix": _matrix(rep.t_matrix),
        "q_matrix": _matrix(rep.q_matrix),
        "theta0": rep.theta0,
        "assumes_invariant_state": rep.assumes_invariant_state,
        "rates_per_theta": [
            {"theta": th, "quartic_rate": quartic.quartic_rate(model, pi, th)}
            for th in theta_list
        ],
    }


def _cumulant_block(model, pi, orders) -> dict:
    # delta_total is the descent-table total, (r-1)! for every order
    return {"orders": [{"order": r, "rate": cumulants.cumulant_rate(model, pi, r),
                        "delta_total": math.factorial(r - 1)} for r in orders]}


def _deviation_block(model, pi, eps_grid) -> dict:
    analysis = deviations.DeviationAnalysis(model, pi)
    env = analysis.envelope
    out = {
        "n_zero": analysis.n0,
        "mu": None if env is None else env.mu,
        "alpha": None if env is None else env.alpha,
        "gamma": None if env is None else _matrix(env.gamma),
    }
    if eps_grid is not None:
        curves = analysis.bound_curve(np.linspace(*eps_grid))
        out["curves"] = [
            {
                "method": c.method,
                "epsilon": [float(e) for e in c.epsilon],
                "bound": [float(b) for b in c.bound],
                "theta_star": [float(t) for t in c.theta_star],
            }
            for c in curves
        ]
    return out


def _classical_block(model, pi, mc: McSettings) -> dict:
    """Statistics of the lag pair ``(x(0), x(tau))``, ``tau = lag h``: one exact
    step of ``tau`` from the invariant law (at lag 0, one slice), reduced block
    by block as the paths are drawn; ``mc.steps`` sets only the rate horizon."""
    tau = mc.lag * mc.h
    cov0, covlag, var_mc = classical._mc_lag_pair(
        model, pi, tau or mc.h, min(mc.lag, 1), mc.paths, mc.seed)
    target_lag = model.kernel(tau)
    out = {
        "quadform_var_analytic": classical.classical_quadform_variance(model, pi),
        "quadform_var_mc": {"value": float(var_mc.value), "stderr": float(var_mc.stderr)},
        "cov0_mc": _cmatrix(cov0.value),
        "cov0_stderr": _matrix(cov0.stderr),
        "cov0_target": _cmatrix(model.steady.quantum_cov),
        "covlag_mc": _cmatrix(covlag.value),
        "covlag_stderr": _matrix(covlag.stderr),
        "covlag_target": _cmatrix(target_lag),
        "seed": mc.seed,
        "paths": mc.paths,
    }
    if mc.theta is not None:
        rate_paper = classical.classical_rs_rate_paper(model, pi, mc.theta)
        rate_sde = 2.0 * rate_paper  # classical_rs_rate_sde, on the same Riccati solve
        est = classical.mc_rs_rate(
            model, pi, mc.theta, mc.steps * mc.h, mc.paths, mc.seed
        )
        # the sde variant is judged by the exact finite-horizon rate at the
        # step the estimate ran (stderr 0 only when theta = 0, all values 0)
        scale = est.stderr or 1.0
        z_target = abs(est.value - est.target) / scale
        z_paper = abs(est.value - rate_paper) / scale
        out["rs_rate"] = {
            "theta": mc.theta,
            "analytic_paper": rate_paper,
            "analytic_sde": rate_sde,
            "mc": {"value": float(est.value), "stderr": float(est.stderr)},
            "mc_target_exact": est.target,
            "h": est.h,
            "paths": est.paths,
            "variance_ratio": est.variance_ratio,
            "mc_matches": "sde" if z_target <= z_paper else "paper",
        }
    return out


def analyze(cfg: AnalysisConfig) -> tuple[dict, bool]:
    """Run all analysis blocks; returns ``(report, failed)``, where
    ``failed`` tells whether some block failed (per-block errors are
    reported in place)."""
    report = {"provenance": {"package": "oqrisk", "version": __version__,
                             "seed": cfg.mc.seed}}
    failed = False
    blocks = [
        ("model", lambda: _model_block(cfg.model)),
        ("steady_state", lambda: _steady_block(cfg.model)),
        ("quartic", lambda: _quartic_block(cfg.model, cfg.pi, cfg.theta_list)),
        ("cumulants", lambda: _cumulant_block(cfg.model, cfg.pi, cfg.orders)),
        ("deviations", lambda: _deviation_block(cfg.model, cfg.pi, cfg.eps_grid)),
        ("classical", lambda: _classical_block(cfg.model, cfg.pi, cfg.mc)),
    ]
    for name, thunk in blocks:
        try:
            report[name] = thunk()
        except OqriskError as exc:
            report[name] = {"error": f"{type(exc).__name__}: {exc}"}
            failed = True
    return report, failed


# -- deterministic serialization ---------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return '{"inf":true}' if x > 0 else '{"inf":true,"negative":true}'
    if math.isnan(x):
        return '{"nan":true}'
    if x == int(x) and abs(x) < 1e16:
        return repr(float(x))
    return f"{x:.17g}"


def render_json(obj) -> str:
    """Serialize a report with fixed key order and 17-significant-digit
    floats; ``inf``/``nan`` become tagged objects."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return render_json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}:{render_json(v)}" for k, v in obj.items())
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# -- CSV rows ------------------------------------------------------------------


def delta_rows(r: int):
    """Rows ``(gamma_bits, count)`` in lexicographic bit order."""
    counts = cumulants.delta_table(r).counts
    return [("".join(str(b) for b in bits), counts[bits]) for bits in sorted(counts)]


def cumulant_rows(model, pi, orders):
    return [(r, cumulants.cumulant_rate(model, pi, r)) for r in orders]


def bound_rows(model, pi, eps_values, method: str = "both"):
    """Rows ``(epsilon, bound_closed, bound_numeric, theta_star)``; fields
    empty when not requested, else each column from one call over the grid."""
    analysis = deviations.DeviationAnalysis(model, pi)
    env, eps = analysis.envelope, deviations._epsilon_grid(eps_values)
    closed = numeric = theta_star = [None] * eps.size
    if env is not None and method in ("closed", "both"):
        closed = deviations.cramer_bound_closed(env.mu, env.alpha, model.n, eps)
    if method in ("numeric", "both"):
        numeric, theta_star = analysis._cramer_points(eps)
    elif env is not None:
        theta_star = deviations.closed_theta_star(env.mu, env.alpha, model.n, eps)
    return list(zip(eps, closed, numeric, theta_star))
