"""Command-line interface.

Subcommands: ``validate``, ``analyze``, ``cumulants``, ``bound``,
``simulate``, ``delta``, ``report``.  Exit codes: 0 success, 1 input
error, 2 partial analysis failure, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import report
from .errors import ConfigError, OqriskError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARTIAL = 2
EXIT_NUMERICAL = 3


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--fixture", help="named fixture, e.g. paper-example")
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--seed", type=int, help="override the Monte Carlo seed")
    p.add_argument("--tol", type=float, help="quadrature tolerance override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqrisk",
        description="Risk-sensitive performance analysis of linear quantum "
        "stochastic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in [
        ("validate", "build the model and print its certificates"),
        ("analyze", "run every analysis block and emit a JSON report"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)

    p = sub.add_parser("cumulants", help="cumulant growth rates as JSON")
    _add_common(p)
    p.add_argument("--order", type=int, action="append", dest="orders",
                   help="cumulant order (repeatable)")

    p = sub.add_parser("bound", help="tail-bound curve as CSV")
    _add_common(p)
    p.add_argument("--eps-min", type=float)
    p.add_argument("--eps-max", type=float)
    p.add_argument("--eps-steps", type=int)
    p.add_argument("--method", choices=["closed", "numeric", "both"],
                   default="closed")

    p = sub.add_parser("simulate", help="exact-discretization Monte Carlo")
    _add_common(p)
    p.add_argument("--h", type=float)
    p.add_argument("--steps", type=int, help="horizon of the --theta rate, in steps of --h")
    p.add_argument("--paths", type=int)
    p.add_argument("--lag", type=int)
    p.add_argument("--theta", type=float)

    p = sub.add_parser("delta", help="descent-pattern table as CSV")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("report", help="plottable CSV streams")
    _add_common(p)
    p.add_argument("--which", choices=["bound", "delta", "cumulants"],
                   required=True)
    p.add_argument("--r", type=int, help="table order for --which delta")
    # --which bound runs the bound command on the config's eps_grid
    p.set_defaults(method="both", eps_min=None, eps_max=None, eps_steps=None)

    return parser


def _load_config(args) -> report.AnalysisConfig:
    doc = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed JSON in {args.config}: line {exc.lineno} "
                f"column {exc.colno}: {exc.msg}"
            ) from exc
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    elif not args.fixture:
        raise ConfigError("supply --config or --fixture")
    # simulate's flags override the config's mc block and are validated with it
    return report.parse_config(
        doc,
        fixture=args.fixture,
        seed=getattr(args, "seed", None),
        tol=getattr(args, "tol", None),
        mc={name: getattr(args, name) for name in ("h", "steps", "paths", "lag", "theta")
            if getattr(args, name, None) is not None},
    )


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header, rows) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    doc = {k: v for k, v in report._model_block(cfg.model).items() if k not in ("a", "b")}
    doc["omega_eigs"] = sorted(float(v) for v in np.linalg.eigvalsh(cfg.model.omega))
    _emit(report.render_json(doc) + "\n", args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cfg = _load_config(args)
    doc, code = report.analyze(cfg)
    _emit(report.render_json(doc) + "\n", args.out)
    return code


def _cmd_cumulants(args) -> int:
    cfg = _load_config(args)
    orders = args.orders or cfg.orders
    rows = report.cumulant_rows(cfg.model, cfg.pi, orders)
    doc = [{"order": r, "rate": rate} for r, rate in rows]
    _emit(report.render_json(doc) + "\n", args.out)
    return EXIT_OK


def _eps_values(args, cfg) -> list:
    if args.eps_min is not None and args.eps_max is not None and args.eps_steps is not None:
        return list(np.linspace(args.eps_min, args.eps_max, args.eps_steps))
    if cfg.eps_grid is not None:
        return list(np.linspace(*cfg.eps_grid))
    raise ConfigError("supply --eps-min/--eps-max/--eps-steps or an eps_grid block")


def _cmd_bound(args) -> int:
    cfg = _load_config(args)
    eps = _eps_values(args, cfg)
    rows = report.bound_rows(cfg.model, cfg.pi, eps, method=args.method, tol=cfg.tol)
    _emit(_csv(["epsilon", "bound_closed", "bound_numeric", "theta_star"], rows),
          args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    doc = report._classical_block(cfg.model, cfg.pi, cfg.mc)
    _emit(report.render_json(doc) + "\n", args.out)
    return EXIT_OK


def _cmd_delta(args) -> int:
    rows = report.delta_rows(args.r)
    _emit(_csv(["gamma_bits", "count"], rows), args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.which == "delta":
        if args.r is None:
            raise ConfigError("--which delta needs --r")
        return _cmd_delta(args)
    if args.which == "bound":
        return _cmd_bound(args)
    cfg = _load_config(args)
    rows = report.cumulant_rows(cfg.model, cfg.pi, cfg.orders)
    _emit(_csv(["order", "rate"], rows), args.out)
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "cumulants": _cmd_cumulants,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "delta": _cmd_delta,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OqriskError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        # malformed inputs (ValueError family) vs numerical failures
        return EXIT_INPUT if isinstance(exc, ValueError) else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
