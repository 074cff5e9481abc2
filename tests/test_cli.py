import hashlib
import json

import pytest

from oqrisk.cli import main
from oqrisk.fixtures import PAPER_EXAMPLE
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

    def test_tiny_inf_sentinel(self, capsys, tmp_path):
        code, out = _run(capsys, ["analyze", "--config",
                                  _write_config(tmp_path, TINY_DOC)])
        assert code == 0
        assert '"theta0":{"inf":true}' in out

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

    def test_report_delta_equivalent(self, capsys):
        _, direct = _run(capsys, ["delta", "--r", "3"])
        _, routed = _run(capsys, ["report", "--which", "delta", "--r", "3"])
        assert direct == routed

    def test_bound_curve_zero_at_threshold(self, capsys, tmp_path):
        code, out = _run(
            capsys,
            ["report", "--which", "bound", "--fixture", "paper-example",
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

    def test_cumulants_json(self, capsys, tmp_path):
        code, out = _run(capsys, ["cumulants", "--order", "2", "--config",
                                  _write_config(tmp_path, TINY_DOC)])
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["order"] == 2
        assert abs(doc[0]["rate"]) < 1e-10


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
        assert rep["rs_rate"]["theta"] == 0.05
        assert rep["rs_rate"]["mc"]["stderr"] > 0.0


class TestFixtureIntegrity:
    def test_hash_pinned(self):
        canonical = render_json(
            {k: PAPER_EXAMPLE[k] for k in ("n", "m", "R", "M", "Pi")}
        )
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == FIXTURE_SHA256
