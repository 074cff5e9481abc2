"""Benchmark of oqrisk: one workload, one run.

    python3 perfbench/run.py --workload paper-analyze --seed 1 --seconds 20 --trace 0

Each pass runs in a fresh worker process (``worker.py``) with the BLAS pool
pinned to one thread, so no cache outlives a pass and the load comes from
one process.  Passes repeat while the next one is expected to end within
``--seconds`` (at least one runs); set-up is sampled ``SETUP_SAMPLES`` times
by extra workers that stop once their inputs are ready.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians over
the run's passes); ``--trace 1`` pairs an untraced with a traced pass and
reports the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable summary and the environment.  Details of the run (every
operation's verdict, every pass) go to ``.perfbench_out/``, as do the
workers' inputs, outputs and spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("paper-analyze", "paper-spectral", "n-sweep")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
PASS_TIMEOUT_S = 150.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    """A worker failed to start, crashed or ran out of time."""


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(SINGLE_THREAD)
    return env


def run_worker(workload: str, seed: int, mode: str) -> dict:
    """Spawn one worker; returns its result with ``setup_s`` added (spawn
    to ``ready``).  Always reaps the process."""
    result_path = OUT_DIR / "worker-result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--result", str(result_path)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(SETUP_TIMEOUT_S):
                raise WorkerError(f"{mode} worker not ready after {SETUP_TIMEOUT_S} s")
            line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            proc.wait(timeout=SETUP_TIMEOUT_S)
            raise WorkerError(f"{mode} worker failed during set-up (exit {proc.returncode})")
        proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker ran over {PASS_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    result = {}
    if mode != "setup":
        result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = setup_s
    return result


def run_passes(workload, seed, seconds, modes) -> list:
    """Groups of passes (one per mode in ``modes``) while the next group is
    expected to end within ``seconds``; at least one group."""
    start = time.perf_counter()
    groups = []
    while True:
        groups.append([run_worker(workload, seed, mode) for mode in modes])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(groups) > seconds:
            return groups


def _count(passes):
    ops = [v for p in passes for v in p["ops"].values()]
    failed = [v for v in ops if not v["ok"]]
    correct = all(v["known"] for v in failed)
    return len(ops), len(failed), correct


def end_to_end(workload, seed, seconds) -> tuple:
    passes = [g[0] for g in run_passes(workload, seed, seconds, ("pass",))]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "setup")["setup_s"])
    attempted, failed, correct = _count(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median([p["pass_s"] for p in passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "success_rate": (attempted - failed) / attempted,
    }
    detail = {"passes": passes, "setup_samples": setups}
    return metrics, attempted, failed, correct, detail


def per_layer(workload, seed, seconds) -> tuple:
    groups = run_passes(workload, seed, seconds, ("pass", "traced"))
    plain = [g[0] for g in groups]
    traced = [g[1] for g in groups]
    names = traced[0]["layers"].keys()
    metrics = {k: statistics.median([t["layers"][k] for t in traced]) for k in names}
    for lap in ("sweep.n4_s", "sweep.n8_s", "sweep.n16_s", "sweep.n32_s"):
        metrics[lap] = statistics.median([p["laps"].get(lap, 0.0) for p in plain])
    metrics["trace.overhead_frac"] = (
        statistics.median([t["pass_s"] for t in traced]) / statistics.median([p["pass_s"] for p in plain]) - 1.0)
    attempted, failed, correct = _count(plain + traced)
    return metrics, attempted, failed, correct, {"passes": plain, "traced": traced}


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_at_start": list(os.getloadavg()), "platform": platform.platform(),
            "thread_env": SINGLE_THREAD}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    try:
        OUT_DIR.mkdir(exist_ok=True)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, correct, detail = run(args.workload, args.seed,
                                                          args.seconds)
    except (WorkerError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"benchmark failed: metrics {sorted(set(units) ^ set(metrics))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 1
    env["worker"] = detail["passes"][0]["env"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": metrics, **detail}
    (OUT_DIR / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"environment: {json.dumps(env)}")
    for p in detail["passes"]:
        for name, v in p["ops"].items():
            if not v["ok"]:
                tag = "known failure" if v["known"] else "FAILED"
                print(f"{tag}: {name}: {v['detail']}")
    print(f"passes = {len(detail['passes'])}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
