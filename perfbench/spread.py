"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage, from the repository root::

    python3 perfbench/spread.py --runs 10 --held-out 1000 \
        --out perfbench/spread.json [--workload NAME ...]

Runs ``perfbench/run.py --trace 0`` once per workload and seed (seeds 1
to ``--runs``), one process at a time, with ``run_seconds`` from
``BENCHMARK.json``.  For every end-to-end metric it reports the
quartiles over the seeds and the spread, the distance between the first
and third quartile as a share of the median; the held-out seed is run
once more and reported beside them.  Writes the JSON report to ``--out``
and prints a table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
        check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its check")
    return result


def summarize(values: List[float], bound: float) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": spread, "bound": bound,
            "spread_over_bound": spread / bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--held-out", type=int, default=1000)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    report: Dict[str, Any] = {"run_seconds": spec["run_seconds"],
                              "seeds": seeds, "held_out_seed": args.held_out,
                              "workloads": {}}
    for workload in workloads:
        runs = [invoke(workload, seed, spec["run_seconds"])["metrics"]
                for seed in seeds]
        held_out = invoke(workload, args.held_out, spec["run_seconds"])
        metrics = {}
        for name, bound in bounds.items():
            summary = summarize([run[name]["value"] for run in runs], bound)
            summary["held_out"] = held_out["metrics"][name]["value"]
            metrics[name] = summary
            print(f"{workload:18s} {name:18s} median {summary['median']:14.6g}"
                  f"  spread {summary['spread']:.4f}  bound {bound}"
                  f"  held-out {summary['held_out']:.6g}", flush=True)
        report["workloads"][workload] = metrics
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
