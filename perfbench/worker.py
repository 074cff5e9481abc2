"""One benchmark worker: set up one workload, then (unless ``--mode setup``)
run one pass, untraced or traced, check it and write the result as JSON.

Started by ``run.py`` in a fresh process per pass, so no cache outlives a
pass.  Prints ``ready`` once its inputs are built; the parent times set-up
from spawning the process to that line.  Imports oqrisk from ``<root>/src``
only, and fails if that copy is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_environment() -> dict:
    """Versions of numpy, scipy and OpenBLAS, and the BLAS thread count of
    every OpenBLAS loaded into this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads[Path(path).name] = int(getattr(lib, sym)())
                break
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": blas.get("version"), "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--result", type=Path, required=True, help="where the result JSON goes")
    args = parser.parse_args(argv)

    import oqrisk
    import oqrisk.cli  # noqa: F401  (the CLI shell is part of set-up for every workload)

    if not Path(oqrisk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"oqrisk imported from {oqrisk.__file__}, not from the checkout",
              file=sys.stderr)
        return 3
    from perfbench.workloads import WORKLOADS, Recorder, verdicts

    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_out"
    work_dir.mkdir(exist_ok=True)
    inputs = workload.setup(args.seed, work_dir)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "traced":
        from perfbench.tracing import Tracer

        tracer = Tracer().install()
    rec = Recorder()
    start = time.perf_counter()
    try:
        workload.run(inputs, rec)
    finally:
        pass_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if hasattr(workload, "collect"):
        workload.collect(inputs, rec)
    ops = verdicts(workload.name, rec.results, workload.check(inputs, rec.results))
    result = {"pass_s": pass_s, "peak_rss_mb": peak_kb / 1024.0, "laps": rec.laps,
              "ops": ops, "env": blas_environment()}
    if tracer is not None:
        from perfbench.layers import layer_metrics

        result["layers"] = layer_metrics(tracer)
        tracer.write_spans(work_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    # the checkout's package and this benchmark, never this script's directory
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
