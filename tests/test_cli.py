import hashlib
import json

import numpy as np
import pytest

from oqrisk import report
from oqrisk.cli import main
from oqrisk.deviations import DeviationAnalysis
from oqrisk.errors import NumericalDefect
from oqrisk.fixtures import PAPER_EXAMPLE, paper_example_model
from oqrisk.report import render_json

TINY_DOC = {
    "n": 2,
    "m": 2,
    "theta": [[0.0, 0.5], [-0.5, 0.0]],
    "R": [[0.0, 0.0], [0.0, 0.0]],
    "M": [[1.0, 0.0], [0.0, 1.0]],
    "Pi": [[1.0, 0.0], [0.0, 1.0]],
    "theta_list": [0.1],
    "orders": [2],
    "mc": {"h": 0.1, "steps": 20, "paths": 500, "seed": 3},
}

# pinned digest of the embedded regression matrices; drift here means the
# fixture changed and every downstream number is suspect
FIXTURE_SHA256 = "192a6d925b4ce0893e3e2483b2d627e482c7f45f923ec292abea3506f5712ce9"


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_fixture(self, capsys):
        code, out = _run(capsys, ["validate", "--fixture", "paper-example"])
        assert code == 0
        doc = json.loads(out)
        assert doc["is_hurwitz"] is True
        assert doc["pr_residual"] < 1e-10
        assert doc["omega_eigs"] == pytest.approx([0, 0, 2, 2], abs=1e-12)

    def test_unknown_fixture_is_input_error(self, capsys):
        code = main(["validate", "--fixture", "nope"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: unknown fixture 'nope'\n"
        assert captured.out == ""


class TestAnalyze:
    def test_fixture_regression_values(self, capsys, tmp_path):
        doc = dict(TINY_DOC)  # analyze the fixture with light MC settings
        code, out = _run(
            capsys,
            ["analyze", "--fixture", "paper-example",
             "--config", _write_config(tmp_path, {"mc": {"h": 0.1, "steps": 10,
                                                         "paths": 200, "seed": 5},
                                                  "orders": [2],
                                                  "theta_list": [0.01]})],
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["quartic"]["mean_rate"] == pytest.approx(74.9147, rel=2e-3)
        assert rep["quartic"]["variance_rate"] == pytest.approx(8.9399e3, rel=2e-3)
        assert rep["deviations"]["alpha"] == pytest.approx(69.6784, rel=1e-2)

    def test_tail_bound_curves(self, capsys, tmp_path):
        # the report's curves are bound_curve's, and its numeric curve is the
        # bound command's
        config = _write_config(tmp_path, {
            "mc": {"h": 0.1, "steps": 10, "paths": 200, "seed": 5}, "orders": [2],
            "theta_list": [0.01], "eps_grid": {"min": 300.0, "max": 900.0, "steps": 3}})
        code, out = _run(capsys, ["analyze", "--fixture", "paper-example", "--config", config])
        assert code == 0
        curves = json.loads(out)["deviations"]["curves"]
        want = DeviationAnalysis(*paper_example_model()).bound_curve(np.linspace(300.0, 900.0, 3))
        assert [c["method"] for c in curves] == [c.method for c in want]
        for got, ref in zip(curves, want):
            for key in ("epsilon", "bound", "theta_star"):
                assert got[key] == getattr(ref, key).tolist()
        code, out = _run(capsys, ["bound", "--method", "both", "--fixture", "paper-example",
                                  "--config", config])
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        numeric = next(c for c in curves if c["method"] == "numeric")
        assert [[r[0], r[2], r[3]] for r in rows] == [
            list(v) for v in zip(numeric["epsilon"], numeric["bound"], numeric["theta_star"])]

    def test_tiny_inf_sentinel(self, capsys, tmp_path):
        code, out = _run(capsys, ["analyze", "--config",
                                  _write_config(tmp_path, TINY_DOC)])
        assert code == 0
        assert '"theta0":{"inf":true}' in out

    def test_zero_weight_report(self, capsys, tmp_path):
        # Pi = 0: no envelope (null mu, alpha, gamma), no tail curve, an
        # infinite quartic threshold and every rate 0, deterministically
        config = _write_config(tmp_path, {
            "pi": np.zeros((4, 4)).tolist(), "theta_list": [0.005, 0.01], "orders": [2, 3, 4],
            "eps_grid": {"min": 300.0, "max": 900.0, "steps": 3},
            "mc": {"h": 0.1, "steps": 10, "paths": 200, "lag": 2, "theta": 0.001, "seed": 5}})
        argv = ["analyze", "--fixture", "paper-example", "--config", config]
        code, out = _run(capsys, argv)
        assert code == 0
        assert _run(capsys, argv) == (0, out)
        rep = json.loads(out)
        dev = rep["deviations"]
        assert (dev["mu"], dev["alpha"], dev["gamma"], dev["curves"]) == (None, None, None, [])
        assert rep["quartic"]["theta0"] == {"inf": True}
        rs = rep["classical"]["rs_rate"]
        rates = [rep["quartic"]["mean_rate"], rep["quartic"]["variance_rate"],
                 *(row["quartic_rate"] for row in rep["quartic"]["rates_per_theta"]),
                 *(row["rate"] for row in rep["cumulants"]["orders"]),
                 rs["analytic_paper"], rs["analytic_sde"], rs["mc"]["value"],
                 rs["mc_target_exact"]]
        assert rates == [0.0] * 11

    def test_malformed_json_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,\n  "m": }')
        code = main(["analyze", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err and "column" in err

    def test_partial_failure_exit_code(self, capsys, tmp_path):
        doc = dict(TINY_DOC)
        doc["mc"] = dict(doc["mc"], theta=0.49)  # beyond the mc envelope
        code, out = _run(capsys, ["analyze", "--config", _write_config(tmp_path, doc)])
        assert code == 2
        rep = json.loads(out)
        assert "error" in rep["classical"]
        assert rep["quartic"]["mean_rate"] == pytest.approx(1.0)

    @pytest.mark.parametrize("command, mc, argv", [
        ("analyze", {"seed": -3}, []),
        ("analyze", {}, ["--seed", "-3"]),
        ("analyze", {"lag": -2}, []),
        ("simulate", {}, ["--lag", "-2"]),
        ("analyze", {"seed": "7"}, []),
        ("analyze", {"lag": "x"}, []),
        ("analyze", {"steps": None}, []),
        ("analyze", {"paths": [500]}, []),
        # fractions are errors, never truncated
        ("analyze", {"seed": 3.5}, []),
        ("analyze", {"lag": 1.5}, []),
        ("analyze", {"steps": 20.5}, []),
        ("simulate", {"paths": 499.5}, []),
    ])
    def test_bad_mc_settings_are_input_errors(self, capsys, tmp_path, command, mc, argv):
        doc = dict(TINY_DOC, mc=dict(TINY_DOC["mc"], **mc))
        code = main([command, "--config", _write_config(tmp_path, doc)] + argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command, update, argv", [
        ("analyze", {"mc": [1]}, []),
        ("simulate", {"mc": [1]}, ["--lag", "2"]),
        ("analyze", {"orders": ["two"]}, []),
        ("analyze", {"theta_list": [0.1, "x"]}, []),
        ("analyze", {"R": [[0.0, "x"], [0.0, 0.0]]}, []),
        ("analyze", {"pi": [[1.0, "x"], [0.0, 1.0]]}, ["--fixture", "paper-example"]),
        ("analyze", {"eps_grid": {"min": "2", "max": 4.0, "steps": 3}}, []),
        ("analyze", {"eps_grid": {"min": 2.0, "max": 4.0, "steps": 2.5}}, []),
    ], ids=["mc-list", "mc-list-simulate-flag", "orders-text", "theta-list-text",
            "matrix-text", "fixture-pi-text", "eps-min-text", "eps-steps-fraction"])
    def test_malformed_config_is_input_error(self, capsys, tmp_path, command, update, argv):
        code = main([command, "--config", _write_config(tmp_path, dict(TINY_DOC, **update))]
                    + argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_non_object_config_is_input_error(self, capsys, tmp_path):
        code = main(["analyze", "--config", _write_config(tmp_path, [1])])
        captured = capsys.readouterr()
        assert code == 1 and captured.err.startswith("error: ")

    def test_byte_determinism(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, TINY_DOC)
        _, out1 = _run(capsys, ["analyze", "--config", cfg])
        _, out2 = _run(capsys, ["analyze", "--config", cfg])
        assert out1 == out2


class TestCsvCommands:
    def test_delta_r4(self, capsys):
        code, out = _run(capsys, ["delta", "--r", "4"])
        assert code == 0
        assert out.splitlines() == [
            "gamma_bits,count", "00,1", "01,2", "10,2", "11,1",
        ]

    def test_bound_curve_zero_at_threshold(self, capsys, tmp_path):
        code, out = _run(
            capsys,
            ["bound", "--method", "both", "--fixture", "paper-example",
             "--config", _write_config(tmp_path, {
                 "eps_grid": {"min": 4 * 69.67835682940927, "max": 600.0,
                              "steps": 3}})],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,bound_closed,bound_numeric,theta_star"
        first = lines[1].split(",")
        assert abs(float(first[1])) < 1e-6

    def test_bound_empty_grid(self, capsys, tmp_path):
        code, out = _run(
            capsys,
            ["bound", "--fixture", "paper-example", "--method", "closed",
             "--config", _write_config(tmp_path, {
                 "eps_grid": {"min": 300.0, "max": 400.0, "steps": 0}})],
        )
        assert code == 0
        assert out == "epsilon,bound_closed,bound_numeric,theta_star\n"

    @pytest.mark.parametrize("flags", [
        ["--eps-min", "280", "--eps-max", "900", "--eps-steps", "-1"],
        ["--eps-min", "nan", "--eps-max", "900", "--eps-steps", "3"],
        ["--eps-min", "280", "--eps-max", "inf", "--eps-steps", "3"],
        ["--eps-min", "500"],
        ["--eps-max", "900", "--eps-steps", "3"],
    ], ids=["negative-steps", "nan-min", "inf-max", "lone-min", "no-min"])
    def test_bad_eps_flags_are_input_errors(self, capsys, tmp_path, flags):
        # the flags replace the config's eps_grid block, all three or none,
        # and are validated like it
        grid = {"eps_grid": {"min": 300.0, "max": 400.0, "steps": 2}}
        code = main(["bound", "--fixture", "paper-example",
                     "--config", _write_config(tmp_path, grid)] + flags)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_eps_flags_override_config_grid(self, capsys, tmp_path):
        code, out = _run(
            capsys,
            ["bound", "--fixture", "paper-example", "--eps-min", "500", "--eps-max", "600",
             "--eps-steps", "2", "--config", _write_config(tmp_path, {
                 "eps_grid": {"min": 300.0, "max": 400.0, "steps": 3}})],
        )
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["500", "600"]

    def test_cumulants_json(self, capsys, tmp_path):
        code, out = _run(capsys, ["cumulants", "--order", "2", "--config",
                                  _write_config(tmp_path, TINY_DOC)])
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["order"] == 2
        assert abs(doc[0]["rate"]) < 1e-10

    def test_library_input_error_exits_1(self, capsys):
        # order 11 is past the rate cap: the library's InvalidArgument, not a
        # config error, is reported by its type name
        code = main(["cumulants", "--fixture", "paper-example", "--order", "11"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: InvalidArgument: ") and len(err.splitlines()) == 1

    def test_library_numerical_error_exits_3(self, capsys, monkeypatch):
        def fail(*args):
            raise NumericalDefect("residual too large")

        monkeypatch.setattr(report, "cumulant_rows", fail)
        code = main(["cumulants", "--fixture", "paper-example", "--order", "2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == "error: NumericalDefect: residual too large\n"


class TestSimulateCommand:
    def test_json_shape_and_rate(self, capsys, tmp_path):
        doc = dict(TINY_DOC)
        doc["mc"] = {"h": 0.05, "steps": 100, "paths": 2000, "seed": 11,
                     "lag": 4, "theta": 0.05}
        code, out = _run(capsys, ["simulate", "--config",
                                  _write_config(tmp_path, doc)])
        assert code == 0
        rep = json.loads(out)
        # the same keys as analyze's classical block
        for key in ("cov0_mc", "cov0_stderr", "cov0_target", "covlag_mc",
                    "covlag_stderr", "covlag_target", "quadform_var_mc", "rs_rate"):
            assert key in rep
        assert rep["quadform_var_analytic"] == pytest.approx(1.0)
        rate = rep["rs_rate"]
        assert rate["theta"] == 0.05
        assert rate["mc"]["stderr"] > 0.0
        # the exact rate at the step the estimate ran, over steps * h = 5
        assert rate["h"] == 5.0 / round(5.0 / rate["h"])
        z = (rate["mc"]["value"] - rate["mc_target_exact"]) / rate["mc"]["stderr"]
        assert abs(z) < 4.0
        assert rate["mc_matches"] == "sde"

    def test_rate_reports_its_run_and_ratio(self, capsys, tmp_path):
        # mc.paths is the lag pair's path count and the rate's precision: the
        # control variate's predicted ratio (~81 here) lets the rate run the
        # floor of 2000 paths
        doc = dict(TINY_DOC)
        doc["mc"] = {"h": 0.05, "steps": 100, "paths": 20_000, "seed": 11,
                     "lag": 4, "theta": 0.05}
        code, out = _run(capsys, ["simulate", "--config",
                                  _write_config(tmp_path, doc)])
        assert code == 0
        rep = json.loads(out)
        assert rep["paths"] == 20_000
        assert rep["rs_rate"]["paths"] == 2000
        assert rep["rs_rate"]["variance_ratio"] > 10.0


class TestFixtureIntegrity:
    def test_hash_pinned(self):
        canonical = render_json(
            {k: PAPER_EXAMPLE[k] for k in ("n", "m", "R", "M", "Pi")}
        )
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == FIXTURE_SHA256
