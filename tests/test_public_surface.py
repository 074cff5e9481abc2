"""The exported names and the README's command list match the code."""

import argparse
import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import oqrisk
from conftest import J2
from oqrisk import classical, cumulants, deviations, gaussian, matfun, model, quartic, report
from oqrisk.cli import build_parser
from oqrisk.errors import (ConfigError, DimensionMismatch, InvalidArgument, NotHurwitz, NotPsd,
                           NotSymmetric, NumericalDefect, ThetaOutOfRange)

ROOT = Path(__file__).resolve().parents[1]


def test_exported_names_resolve():
    for info in pkgutil.iter_modules(oqrisk.__path__):
        module = importlib.import_module(f"oqrisk.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"oqrisk.{info.name}.__all__ names {missing}"
    tree = ast.parse((Path(oqrisk.__file__)).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported and all(hasattr(oqrisk, name) for name in imported)


def test_readme_command_block_names_every_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    documented = set(re.findall(r"^oqrisk (\w+)", block, re.M))
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert documented == set(sub.choices)


NAN = float("nan")


def _unstable_tiny():
    """The one-mode vacuum model relabelled with spectral abscissa 0: every
    guard that reads ``is_hurwitz`` refuses it before any solve."""
    tiny = model.model_from_matrices(0.5 * J2, np.zeros((2, 2)), np.eye(2))
    return dataclasses.replace(tiny, spectral_abscissa=0.0)


@pytest.mark.parametrize("call, expected", [
    (lambda m, pi: cumulants.cumulant_finite_td(m, pi, 2, -1.0, 10), InvalidArgument),
    (lambda m, pi: gaussian.qcf_multipoint_steady(m, [0, 1], np.zeros((2, 3))),
     DimensionMismatch),
    (lambda m, pi: cumulants.cumulant_finite_td(m, pi, 2, 1.0, 3), InvalidArgument),
    (lambda m, pi: classical.mc_stationary_stats(classical.simulate(m, 0.1, 2, 100, 1), 5),
     InvalidArgument),
    (lambda m, pi: model.CcrMatrix(np.full((2, 2), NAN)), InvalidArgument),
    (lambda m, pi: model.PhysicalParams(r=np.eye(2), m=np.full((2, 2), NAN)),
     InvalidArgument),
    (lambda m, pi: matfun.opnorm2(np.full((2, 2), NAN)), InvalidArgument),
    (lambda m, pi: matfun.expm(np.ones((2, 3))), DimensionMismatch),
    (lambda m, pi: matfun.lyap_solve(m.a, np.eye(2)), DimensionMismatch),
    (lambda m, pi: matfun.sqrt_psd(np.triu(np.ones((2, 2)))), NotSymmetric),
    (lambda m, pi: m.kernel(NAN), InvalidArgument),
    (lambda m, pi: gaussian.qcf_multipoint_steady(m, [0, NAN], np.ones((2, m.n))),
     InvalidArgument),
    (lambda m, pi: cumulants.cumulant_td_discretized(m, pi, 2, [0, NAN], [1, 1]),
     InvalidArgument),
    (lambda m, pi: cumulants.cumulant_finite_td(m, pi, 2, float("inf"), 9), InvalidArgument),
    (lambda m, pi: cumulants.cumulant_finite_td(m, pi, 2, NAN, 9), InvalidArgument),
    (lambda m, pi: gaussian.gramian_finite(m, NAN), InvalidArgument),
    (lambda m, pi: quartic.variance_finite(m, pi, NAN), InvalidArgument),
    (lambda m, pi: classical.classical_rs_rate_paper(m, pi, NAN), ThetaOutOfRange),
    (lambda m, pi: classical.finite_horizon_rate(m, pi, 0.001, NAN, 0.05), InvalidArgument),
    (lambda m, pi: classical.finite_horizon_rate(m, pi, 0.001, 2.0, NAN), InvalidArgument),
    (lambda m, pi: classical.finite_horizon_rate(m, pi, NAN, 2.0, 0.05), ThetaOutOfRange),
    (lambda m, pi: classical.mc_rs_rate(m, pi, 0.001, NAN, 200, 1), InvalidArgument),
    (lambda m, pi: classical.mc_rs_rate(m, pi, NAN, 2.0, 200, 1), ThetaOutOfRange),
    (lambda m, pi: quartic.quartic_rate(m, pi, NAN), ThetaOutOfRange),
    (lambda m, pi: deviations.DeviationAnalysis(m, pi).f_transform(NAN), InvalidArgument),
    # the domain is checked before the theta == 0 and zero-weight shortcuts
    (lambda m, pi: classical.mc_rs_rate(m, pi, 0.0, NAN, 200, 1), InvalidArgument),
    (lambda m, pi: classical.mc_rs_rate(m, 0 * pi, NAN, 2.0, 200, 1), ThetaOutOfRange),
    (lambda m, pi: classical.classical_rs_rate_paper(m, 0 * pi, NAN), ThetaOutOfRange),
    (lambda m, pi: classical.classical_rs_rate_paper(m, 0 * pi, -1.0), ThetaOutOfRange),
    (lambda m, pi: classical.classical_rs_rate_sde(m, 0 * pi, NAN), ThetaOutOfRange),
    (lambda m, pi: deviations.DeviationAnalysis(m, 0 * pi).qef_upper_rate(NAN),
     ThetaOutOfRange),
    (lambda m, pi: deviations.DeviationAnalysis(m, pi).qef_upper_rate(NAN), ThetaOutOfRange),
    (lambda m, pi: quartic.quartic_rate(m, pi, float("inf")), ThetaOutOfRange),
    (lambda m, pi: quartic.quartic_rate(m, pi, -1.0), ThetaOutOfRange),
    # Monte Carlo sizes and seeds, refused before any path is drawn
    (lambda m, pi: classical.mc_rs_rate(m, pi, 0.001, 2.0, 0, 1), InvalidArgument),
    (lambda m, pi: classical.mc_rs_rate(m, pi, 0.001, 2.0, -5, 1, h=0.05), InvalidArgument),
    (lambda m, pi: classical.simulate(m, 0.05, 2, 10, -1), InvalidArgument),
    (lambda m, pi: classical.simulate(m, 0.05, 2, 0, 1), InvalidArgument),
    # a boolean is a numbers.Integral, not a count or a seed
    (lambda m, pi: classical.simulate(m, 0.1, True, 200, 1), InvalidArgument),
    (lambda m, pi: classical.simulate(m, 0.1, 1, 200, False), InvalidArgument),
    # non-integer orders and counts, refused before a range check compares them
    (lambda m, pi: cumulants.cumulant_finite_td(m, pi, 2, 1.0, 9.5), InvalidArgument),
    (lambda m, pi: cumulants.cumulant_finite_td(m, pi, 2.5, 1.0, 9), InvalidArgument),
    (lambda m, pi: cumulants.cumulant_rate(m, pi, 2.5), InvalidArgument),
    (lambda m, pi: cumulants.delta_table(2.5), InvalidArgument),
    (lambda m, pi: cumulants.cumulant_td_discretized(m, pi, 3.5, [0, 1], [1, 1]),
     InvalidArgument),
    (lambda m, pi: cumulants.wick_moment_oracle(m, pi, 1.5, [0, 1], [1, 1]), InvalidArgument),
    (lambda m, pi: classical.mc_stationary_stats(classical.simulate(m, 0.1, 2, 100, 1), 1.5),
     InvalidArgument),
    # a malformed epsilon, refused before any transform work
    (lambda m, pi: deviations.DeviationAnalysis(m, pi).bound_curve([[300.0, 400.0]]),
     InvalidArgument),
    (lambda m, pi: deviations.DeviationAnalysis(m, pi).bound_curve([float("inf")]),
     InvalidArgument),
    (lambda m, pi: deviations.DeviationAnalysis(m, pi).cramer_bound_numeric(np.array([300.0])),
     InvalidArgument),
    (lambda m, pi: deviations.DeviationAnalysis(m, pi).cramer_bound_numeric(float("inf")),
     InvalidArgument),
    # guards no other test reaches
    (lambda m, pi: classical.AugmentedStepper.build(m, -0.05), InvalidArgument),
    (lambda m, pi: classical.mc_quadform_variance(classical.simulate(m, 0.1, 2, 50, 1), pi),
     InvalidArgument),
    (lambda m, pi: cumulants.cumulant_finite_td(m, pi, 2, 1.0, 1025), InvalidArgument),
    (lambda m, pi: deviations.DeviationAnalysis(_unstable_tiny(), np.eye(2)), NotHurwitz),
    (lambda m, pi: deviations.envelope_params(_unstable_tiny(), np.eye(2)), NotHurwitz),
    (lambda m, pi: _unstable_tiny().density_factor([0.0]), NotHurwitz),
    (lambda m, pi: matfun.inv_sqrt_psd(np.diag([1.0, 0.0])), NotPsd),
    (lambda m, pi: model.block_j(3), DimensionMismatch),
    (lambda m, pi: model.CcrMatrix(np.zeros((2, 3))), DimensionMismatch),
    (lambda m, pi: model.WeightMatrix(np.zeros((2, 3))), DimensionMismatch),
    (lambda m, pi: report.parse_config({"orders": 3}, fixture="paper-example"), ConfigError),
    # empty matrices; an overflow must raise without a floating-point warning
    # first (a RuntimeWarning is an error under the suite's filters)
    (lambda m, pi: matfun.lyap_solve(np.zeros((0, 0)), np.zeros((0, 0))), DimensionMismatch),
    (lambda m, pi: matfun.sqrt_psd(np.zeros((0, 0))), DimensionMismatch),
    (lambda m, pi: matfun.expm(m.a, -1e3), NumericalDefect),
], ids=["negative-horizon", "qcf-vector-shape", "few-grid-points", "lag-past-horizon",
        "nonfinite-theta", "nonfinite-coupling", "nonfinite-matrix", "expm-not-square",
        "lyap-shape", "sqrt-not-hermitian", "kernel-nan-lag", "qcf-nan-time",
        "td-nan-time", "td-inf-horizon", "td-nan-horizon",
        "gramian-nan-horizon", "variance-nan-horizon", "rs-rate-nan-theta",
        "finite-rate-nan-horizon", "finite-rate-nan-step", "finite-rate-nan-theta",
        "mc-rate-nan-horizon", "mc-rate-nan-theta", "quartic-nan-theta",
        "f-transform-nan", "mc-rate-zero-theta-nan-horizon", "mc-rate-zero-weight-nan-theta",
        "rs-rate-zero-weight-nan-theta", "rs-rate-zero-weight-negative-theta",
        "sde-rate-zero-weight-nan-theta", "qef-zero-weight-nan-theta", "qef-nan-theta",
        "quartic-inf-theta", "quartic-negative-theta", "mc-rate-zero-paths",
        "mc-rate-negative-paths", "simulate-negative-seed", "simulate-zero-paths",
        "simulate-boolean-steps", "simulate-boolean-seed",
        "td-fractional-grid", "td-fractional-order", "rate-fractional-order",
        "table-fractional-order", "td-discretized-fractional-order", "wick-fractional-order",
        "mc-stats-fractional-lag", "bound-curve-2d-grid", "bound-curve-inf-eps",
        "bound-numeric-array-eps", "bound-numeric-inf-eps", "stepper-negative-step",
        "quadform-variance-few-paths", "td-grid-over-cap", "deviation-not-hurwitz",
        "envelope-not-hurwitz", "density-not-hurwitz", "inv-sqrt-singular", "block-j-odd",
        "ccr-not-square", "weight-not-square", "config-orders-not-list", "lyap-empty",
        "sqrt-empty", "expm-overflow"])
def test_input_checks_raise_typed_errors(paper, call, expected):
    # the CLI turns an OqriskError into an exit code; a bare ValueError
    # would escape it as a traceback
    with pytest.raises(expected):
        call(*paper)


def _names_in(paths, pick):
    """The names of every ``ast.Name`` in the nodes ``pick(node)`` returns, over
    every node of the files ``paths``."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            found |= {sub.id for part in pick(node) for sub in ast.walk(part)
                      if isinstance(sub, ast.Name)}
    return found


def test_every_error_class_is_raised_and_tested():
    # one class per kind of failure: each is raised by the library and
    # expected by name in a test, so none outlives its raise sites
    tree = ast.parse((ROOT / "src" / "oqrisk" / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    classes.discard("OqriskError")
    raised = _names_in(
        (ROOT / "src" / "oqrisk").glob("*.py"),
        lambda node: [getattr(node.exc, "func", node.exc)]
        if isinstance(node, ast.Raise) and node.exc is not None else [])
    expected = _names_in(
        (ROOT / "tests").glob("*.py"),
        lambda node: node.args[:1] if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "pytest.raises" else [])
    assert classes and not classes - raised, f"never raised: {sorted(classes - raised)}"
    assert not classes - expected, f"never expected by a test: {sorted(classes - expected)}"


def test_no_unused_imports():
    # a stand-in for pyflakes' unused-import check: every name a module
    # imports is read somewhere in it, unless it is re-exported (the
    # package __init__, or a name listed in the module's __all__)
    unused = []
    for path in sorted((ROOT / "src" / "oqrisk").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__" for target in node.targets):
                exported |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read | exported]
    assert not unused, f"imported but never read: {unused}"


def test_no_unread_module_constants():
    # every name a module assigns at its top level (dunders aside) is read
    # somewhere in the package: as a name, an attribute or an import
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "oqrisk").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    unread = [f"{name}:{node.lineno} {target.id}" for name, tree in trees.items()
              for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in ast.walk(node) if isinstance(target, ast.Name)
              and isinstance(target.ctx, ast.Store) and not target.id.startswith("__")
              and target.id not in read]
    assert not unread, f"assigned but never read: {unread}"
