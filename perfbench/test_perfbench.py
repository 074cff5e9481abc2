"""Tests of the benchmark's own parts: the model generator's certificates,
the tracer (wrapping changes no result; counts equal the calls made) and
the analytic check targets.

    python3 -m pytest perfbench -q
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import oqrisk  # noqa: E402
from oqrisk import classical, cumulants, deviations, quartic, report  # noqa: E402

from perfbench import analytic  # noqa: E402
from perfbench.layers import layer_metrics, metric_names  # noqa: E402
from perfbench.modelgen import block_j, generate  # noqa: E402
from perfbench.tracing import LAYERS, Tracer  # noqa: E402
from perfbench.workloads import Failure, NSweep, verdicts  # noqa: E402


@pytest.mark.parametrize("seed", range(1, 11))
def test_generator_certificates(seed):
    rng = np.random.default_rng(seed)
    for n in NSweep.sizes:
        g = generate(n, rng)
        model = oqrisk.model_from_matrices(g.theta, g.r, g.m)
        assert np.array_equal(model.a, g.a)
        assert g.symplectic_residual < 1e-12
        assert g.spectrum_residual < 1e-8
        assert model.spectral_abscissa == pytest.approx(-g.margin, rel=1e-10)
        assert oqrisk.pr_residual(model) < 1e-10 * (1.0 + np.linalg.norm(model.a))
        assert np.linalg.eigvalsh(g.pi)[0] > 0.0


def _paper_calls():
    """A small cross-section of the library, every layer but report's CLI."""
    model, pi = oqrisk.paper_example_model()
    rep = quartic.quartic_report(model, pi, 0.005)
    dev = deviations.DeviationAnalysis(model, pi)
    return {
        "quartic": (rep.mean_rate, rep.variance_rate, rep.theta0, rep.quartic_rate),
        "rate3": cumulants.cumulant_rate(model, pi, 3),
        "table": cumulants.delta_table(5).counts,
        "bound": dev.cramer_bound_numeric(500.0),
        "sde": classical.classical_rs_rate_sde(model, pi, 0.002),
        "mc": classical.mc_rs_rate(model, pi, 0.001, 0.5, 400, 3).value,
        "json": report.render_json({"x": [1.0, 2.5], "y": {"z": 3}}),
    }


def test_tracing_changes_no_result():
    plain = _paper_calls()
    tracer = Tracer().install()
    try:
        traced = _paper_calls()
    finally:
        tracer.uninstall()
    assert traced == plain
    stats = tracer.layer_stats()
    for layer in LAYERS:
        if layer != "report":
            assert stats[layer]["calls"] > 0, layer
    assert stats["report"]["calls"] >= 1


def test_counts_equal_calls_made():
    """Every wrapped function's count against an independent count of its
    code object's call events from the interpreter's profile hook."""
    tracer = Tracer().install()
    codes = {getattr(fn, "__func__", fn).__code__ for _, _, fn in tracer._undo}
    seen = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[frame.f_code.co_qualname] += 1

    sys.setprofile(hook)
    try:
        model, pi = oqrisk.paper_example_model()
        quartic.quartic_report(model, pi, 0.005)
        cumulants.cumulant_rate(model, pi, 2)
        deviations.DeviationAnalysis(model, pi).qef_upper_rate(0.002)
        report.render_json({"x": [1.0, 2.5]})
        oqrisk.mean_rate(model, pi)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    stats = tracer.function_stats()
    # integrands passed to matfun's integrators are billed to their caller
    assert stats["cumulants.cumulant_rate.<callback>"]["calls"] > 100
    counted = Counter({name.split(".", 1)[1]: entry["calls"]
                       for name, entry in stats.items() if "<callback>" not in name})
    # the grid is timed only on the call that builds it
    assert counted.pop("DeviationAnalysis._build_grid") == 1
    seen.pop("DeviationAnalysis._build_grid")
    assert counted == seen
    assert counted["mean_rate"] >= 2 and counted["DeviationAnalysis.f_transform"] > 100


def test_uninstall_restores_bindings():
    before = (oqrisk.cumulant_rate, report.cumulants.cumulant_rate,
              deviations.DeviationAnalysis.__dict__["f_transform"],
              classical.AugmentedStepper.__dict__["build"])
    tracer = Tracer().install()
    assert oqrisk.cumulant_rate is not before[0]
    assert report.cumulants.cumulant_rate is oqrisk.cumulant_rate
    tracer.uninstall()
    after = (oqrisk.cumulant_rate, report.cumulants.cumulant_rate,
             deviations.DeviationAnalysis.__dict__["f_transform"],
             classical.AugmentedStepper.__dict__["build"])
    assert after == before


def test_layer_metrics_cover_benchmark_json():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    tracer = Tracer().install()
    try:
        model, pi = oqrisk.paper_example_model()
        classical.mc_stationary_stats(classical.simulate(model, 0.05, 10, 200, 1), 10)
        classical.mc_rs_rate(model, pi, 0.001, 0.5, 200, 1)
    finally:
        tracer.uninstall()
    out = layer_metrics(tracer)
    laps = {"sweep.n4_s", "sweep.n8_s", "sweep.n16_s", "sweep.n32_s", "trace.overhead_frac"}
    assert set(out) | laps == set(metric_names())
    assert out["classical.simulate_bytes"] == 11 * 200 * 8 * 8
    assert out["classical.path_steps_per_s"] > 0.0


def test_two_sided_peak_of_paper_example():
    model, pi = oqrisk.paper_example_model()
    peak = analytic.weighted_density_peak(model.a, model.b, model.j, pi)
    assert peak == pytest.approx(132.96, rel=1e-4)


def test_mc_rate_target_matches_estimate():
    model, pi = oqrisk.paper_example_model()
    theta, horizon, h = 0.001, 1.0, 0.02
    est = classical.mc_rs_rate(model, pi, theta, horizon, 20000, 5, h=h)
    target = analytic.mc_rate_target(model.a, model.b, block_j(model.m), pi, theta, horizon, h)
    assert abs(est.value - target) <= 5.0 * est.stderr


@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_cumulant_rate_matches_library(r):
    model, pi = oqrisk.paper_example_model()
    assert analytic.descent_counts(r) == cumulants.delta_table(r).counts
    own = analytic.cumulant_rate(model.a, model.b, model.j, pi, r)
    assert own == pytest.approx(cumulants.cumulant_rate(model, pi, r), rel=1e-8)


def test_known_failures_are_named():
    results = {"n16.bound_numeric_1.1": Failure("NoConvergence", "x"),
               "n16.bound_numeric_1.3": Failure("NumericalDefect", "x"),
               "n16.f_infnorm": 1.0}
    out = verdicts("n-sweep", results, {"n16.f_infnorm": (True, "")})
    assert out["n16.bound_numeric_1.1"]["known"]
    assert not out["n16.bound_numeric_1.3"]["known"]
    assert out["n16.f_infnorm"]["ok"]
