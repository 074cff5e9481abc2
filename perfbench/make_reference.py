"""Write ``reference.json``: the paper fixture's data and the values the
paper workloads check against, taken from one pass of each.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Run only when a change of the library's results is intended and reviewed:
the references are what the benchmark calls correct.  Monte Carlo values
are seed-dependent and never stored; they are checked against analytic
targets instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# checked against the library's own analytic value, never stored
SEED_DEPENDENT = {"classical.cov0", "classical.covlag", "classical.rs_rate.mc"}
# checked by identities, exact arithmetic or a structural rule
NOT_STORED = {"cli.analyze", "model.pr_residual", "model", "render_json"}


def _plain(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def main() -> int:
    from oqrisk.fixtures import PAPER_EXAMPLE
    from perfbench.workloads import Failure, PaperAnalyze, PaperSpectral, Recorder

    doc = {"fixture": {k: PAPER_EXAMPLE[k] for k in ("R", "M", "Pi")}}
    path = ROOT / "perfbench" / "reference.json"
    work_dir = ROOT / ".perfbench_out"
    work_dir.mkdir(exist_ok=True)
    for workload in (PaperAnalyze(), PaperSpectral()):
        inputs = workload.setup(7, work_dir)
        rec = Recorder()
        workload.run(inputs, rec)
        if hasattr(workload, "collect"):
            workload.collect(inputs, rec)
        values = {}
        for name, value in rec.results.items():
            if isinstance(value, Failure):
                print(f"{workload.name}: {name} raised {value}", file=sys.stderr)
                return 1
            if name in SEED_DEPENDENT or name in NOT_STORED \
                    or name.startswith("cumulants.delta_total"):
                continue
            if name == "classical.quadform_var":
                value = value[2]  # the analytic value; the estimate varies
            elif name.startswith("delta_table.r"):
                value = {"".join(map(str, bits)): c for bits, c in sorted(value.items())}
            values[name] = _plain(value)
        doc[workload.name] = values
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
