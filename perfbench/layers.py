"""Per-layer metrics of one traced pass.

For every layer ``L``: ``L.calls``, ``L.self_s`` and ``L.errors``.  Then the
named metrics, each with the end-to-end metric it should move (see
README.md).  A metric of work the workload does not do reads 0.
"""

from __future__ import annotations

from .tracing import LAYERS, STEPPER_BUILD, Tracer

RATE_ORDERS = range(2, 11)
TABLE_ORDER = 11
SWEEP_SIZES = (4, 8, 16, 32)


def metric_names() -> list:
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s", "errors")]
    names += ["classical.mc_rs_rate_s", "classical.simulate_s", "classical.stepper_build_s",
              "classical.path_steps_per_s", "classical.simulate_bytes"]
    names += [f"cumulants.rate_s.r{r}" for r in RATE_ORDERS]
    names += [f"cumulants.delta_table_s.r{TABLE_ORDER}",
              "gaussian.d_pair.calls", "gaussian.gramian_steady.calls",
              "deviations.f_transform.calls", "deviations.bound_point_s", "deviations.grid_s",
              "matfun.lyap_solve.calls", "matfun.lyap_solve_s", "matfun.expm.calls",
              "report.render_json_s"]
    names += [f"sweep.n{n}_s" for n in SWEEP_SIZES]
    names += ["trace.overhead_frac"]
    return names


def layer_metrics(tracer: Tracer) -> dict:
    """Every metric of ``metric_names`` except the sweep laps and the trace
    overhead, which come from the untraced pass."""
    stats = tracer.function_stats()

    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    out = {}
    for layer, entry in tracer.layer_stats().items():
        out[f"{layer}.calls"] = entry["calls"]
        out[f"{layer}.self_s"] = entry["self_s"]
        out[f"{layer}.errors"] = entry["errors"]

    spans = tracer.spans
    by_r = {}
    path_steps = 0
    sim_bytes = 0
    for idx, (name, start, end, _, _, info, _) in enumerate(spans):
        if info is None:
            continue
        if name == "classical.simulate":
            path_steps += info["path_steps"]
            sim_bytes += info["bytes"]
        elif name == "classical.mc_rs_rate":
            # the step is the one mc_rs_rate builds its stepper with
            hs = [s[5]["h"] for s in spans if s[3] == idx and s[0] == STEPPER_BUILD]
            if hs:
                path_steps += info["paths"] * max(2, round(info["horizon"] / hs[0]))
        elif name in ("cumulants.cumulant_rate", "cumulants.delta_table"):
            key = (name, info["r"])
            by_r[key] = by_r.get(key, 0.0) + (end - start)

    mc_s, sim_s = total("classical.mc_rs_rate"), total("classical.simulate")
    out["classical.mc_rs_rate_s"] = mc_s
    out["classical.simulate_s"] = sim_s
    out["classical.stepper_build_s"] = total(STEPPER_BUILD)
    out["classical.path_steps_per_s"] = path_steps / (mc_s + sim_s) if mc_s + sim_s else 0.0
    out["classical.simulate_bytes"] = sim_bytes
    for r in RATE_ORDERS:
        out[f"cumulants.rate_s.r{r}"] = by_r.get(("cumulants.cumulant_rate", r), 0.0)
    out[f"cumulants.delta_table_s.r{TABLE_ORDER}"] = by_r.get(
        ("cumulants.delta_table", TABLE_ORDER), 0.0)
    out["gaussian.d_pair.calls"] = calls("gaussian.SpectralDensity.d_pair")
    out["gaussian.gramian_steady.calls"] = calls("gaussian.gramian_steady")
    out["deviations.f_transform.calls"] = calls("deviations.DeviationAnalysis.f_transform")
    points = calls("deviations.DeviationAnalysis.cramer_bound_numeric")
    out["deviations.bound_point_s"] = (
        total("deviations.DeviationAnalysis.cramer_bound_numeric") / points if points else 0.0)
    out["deviations.grid_s"] = total("deviations.DeviationAnalysis._build_grid")
    out["matfun.lyap_solve.calls"] = calls("matfun.lyap_solve")
    out["matfun.lyap_solve_s"] = total("matfun.lyap_solve")
    out["matfun.expm.calls"] = calls("matfun.expm")
    out["report.render_json_s"] = total("report.render_json")
    return out
