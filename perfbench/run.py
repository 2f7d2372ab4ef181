"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload nocontrol_thrash --seed 42 --seconds 35 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json`` with nothing attached to the simulator; with
``--trace 1`` it alternates untraced runs with runs traced by
:mod:`perfbench.layers` and reports the per-layer metrics.  Either way
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every run is checked: it fails if it raises, if the collector's
conservation laws break, or if its simulated statistics differ from the
reference (``reference.json`` for the default seed, else the first run
of the invocation).  ``--record-reference`` rewrites ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import LayerClock, traced  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, RunRecord, Window, Workload, compare_stats,
    run_once)

REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "page_throughput": "pages/s",
    "useful_page_ratio": "ratio",
}

PER_LAYER = {
    "sim.engine.events": "count",
    "sim.engine.schedule_calls": "count",
    "sim.engine.loop_self_s": "s",
    "sim.engine.ns_per_event": "ns",
    "sim.resources.cpu_calls": "count",
    "sim.resources.cpu_s": "s",
    "sim.resources.disk_calls": "count",
    "sim.resources.disk_s": "s",
    "sim.resources.cpu_util": "ratio",
    "sim.resources.disk_util": "ratio",
    "lockmgr.request.calls": "count",
    "lockmgr.request.s": "s",
    "lockmgr.request.wait_ratio": "ratio",
    "lockmgr.release.calls": "count",
    "lockmgr.release.s": "s",
    "lockmgr.deadlock.calls": "count",
    "lockmgr.deadlock.s": "s",
    "lockmgr.deadlock.victims": "count",
    "core.tracker.calls": "count",
    "core.tracker.s": "s",
    "control.calls": "count",
    "control.s": "s",
    "control.load_control_aborts": "count",
    "metrics.collector.calls": "count",
    "metrics.collector.s": "s",
    "dbms.commits": "count",
    "dbms.aborts": "count",
    "dbms.commit_ratio": "ratio",
    "telemetry.trace.records": "count",
    "telemetry.trace.s": "s",
    "telemetry.probes.samples": "count",
    "telemetry.probes.s": "s",
    "telemetry.export.s": "s",
    "telemetry.export.bytes": "bytes",
    "experiments.run_specs.overhead_s": "s",
    "setup.import_s": "s",
    "setup.fingerprint_s": "s",
    "distributed.network.sends": "count",
    "distributed.network.retransmissions": "count",
    "distributed.network.s": "s",
    "trace.overhead_ratio": "ratio",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def committed_reference(name: str, seed: int,
                        window: Window) -> Optional[Dict[str, Any]]:
    """Reference stats for ``name`` at ``seed`` from ``reference.json``.

    ``None`` when the file holds no entry for that seed and window, in
    which case the first run of the invocation becomes the reference.
    """
    if window != WORKLOADS[name].window or not REFERENCE.exists():
        return None
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if recorded["seed"] != seed:
        return None
    entry = recorded["workloads"].get(name)
    if entry is None or entry["window"] != asdict(window):
        raise SystemExit(f"reference.json has no entry for {name} with "
                         f"window {asdict(window)}; rerun with "
                         f"--record-reference")
    return entry["stats"]


def measure_setup(name: str, seed: int) -> Dict[str, float]:
    """One set-up probe in a fresh interpreter, timed from spawn."""
    start = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        setup_s = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {name} exited with {code}")
    probe = json.loads(line)
    probe["setup_s"] = setup_s
    return probe


class Checker:
    """Counts attempted and failed runs against one reference."""

    def __init__(self, expected: Optional[Dict[str, Any]]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run(self, workload: Workload, run, seed: int, window: Window,
            clock: Optional[LayerClock] = None) -> Optional[RunRecord]:
        """One checked run; ``None`` if it raised."""
        self.attempted += 1
        try:
            if clock is None:
                record = run_once(run, seed, window)
            else:
                with traced(clock):
                    record = run_once(run, seed, window)
        except Exception:
            self.failed += 1
            log(f"{workload.name}: run raised\n{traceback.format_exc()}")
            return None
        problems = list(record.errors)
        if self.expected is None:
            self.expected = record.stats
        else:
            problems += compare_stats(self.expected, record.stats)
        if problems:
            self.failed += 1
            log(f"{workload.name}: run {self.attempted} failed its check: "
                + "; ".join(problems))
        return record


def end_to_end(timed: List[RunRecord],
               setups: List[Dict[str, float]]) -> Dict[str, float]:
    last = timed[-1]
    return {
        "wall_s": statistics.median(r.wall_s for r in timed),
        "events_per_s": statistics.median(
            r.stats["events"] / r.wall_s for r in timed),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "page_throughput": last.stats["page_throughput"],
        "useful_page_ratio": last.facts["useful_page_ratio"],
    }


def per_layer(clock: LayerClock, record: RunRecord) -> Dict[str, float]:
    """Per-layer metrics of one traced run (setup and overhead aside)."""
    calls, self_s, counts = clock.calls, clock.self_s, clock.counts
    stats, facts = record.stats, record.facts
    events = stats["events"]
    requests = calls["lockmgr.request"]
    commits, aborts = stats["commits"], facts["aborts"]
    return {
        "sim.engine.events": events,
        "sim.engine.schedule_calls": counts["sim.engine.schedule_calls"],
        "sim.engine.loop_self_s": self_s["sim.engine"],
        "sim.engine.ns_per_event": self_s["sim.engine"] / events * 1e9,
        "sim.resources.cpu_calls": calls["sim.resources.cpu"],
        "sim.resources.cpu_s": self_s["sim.resources.cpu"],
        "sim.resources.disk_calls": calls["sim.resources.disk"],
        "sim.resources.disk_s": self_s["sim.resources.disk"],
        "sim.resources.cpu_util": facts["cpu_util"],
        "sim.resources.disk_util": facts["disk_util"],
        "lockmgr.request.calls": requests,
        "lockmgr.request.s": self_s["lockmgr.request"],
        "lockmgr.request.wait_ratio": (
            counts["lockmgr.request.blocked"] / requests if requests else 0.0),
        "lockmgr.release.calls": calls["lockmgr.release"],
        "lockmgr.release.s": self_s["lockmgr.release"],
        "lockmgr.deadlock.calls": calls["lockmgr.deadlock"],
        "lockmgr.deadlock.s": self_s["lockmgr.deadlock"],
        "lockmgr.deadlock.victims": counts["lockmgr.deadlock.victims"],
        "core.tracker.calls": calls["core.tracker"],
        "core.tracker.s": self_s["core.tracker"],
        "control.calls": calls["control"],
        "control.s": self_s["control"],
        "control.load_control_aborts":
            stats["aborts_by_reason"].get("load_control", 0),
        "metrics.collector.calls": calls["metrics.collector"],
        "metrics.collector.s": self_s["metrics.collector"],
        "dbms.commits": commits,
        "dbms.aborts": aborts,
        "dbms.commit_ratio": commits / (commits + aborts),
        "telemetry.trace.records": calls["telemetry.trace"],
        "telemetry.trace.s": self_s["telemetry.trace"],
        "telemetry.probes.samples": calls["telemetry.probes"],
        "telemetry.probes.s": self_s["telemetry.probes"],
        "telemetry.export.s": self_s["telemetry.export"],
        "telemetry.export.bytes": facts["written_bytes"],
        "experiments.run_specs.overhead_s": self_s["experiments.run_specs"],
        "distributed.network.sends": facts["net_sent"],
        "distributed.network.retransmissions": facts["net_retransmissions"],
        "distributed.network.s": self_s["distributed.network"],
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            window: Optional[Window] = None,
            setup_probes: int = SETUP_PROBES) -> Dict[str, Any]:
    """Run one benchmark invocation; returns the result object."""
    workload = WORKLOADS[name]
    window = window or workload.window
    run = workload.load()
    setups = [measure_setup(name, seed) for _ in range(setup_probes)]
    checker = Checker(committed_reference(name, seed, window))
    # The first run warms caches and, for a seed without a committed
    # reference, becomes the reference; it is checked but not timed.
    checker.run(workload, run, seed, window)

    untraced: List[RunRecord] = []
    traced_runs: List[Tuple[LayerClock, RunRecord]] = []
    deadline = perf_counter() + seconds
    while True:
        record = checker.run(workload, run, seed, window)
        if record is not None:
            untraced.append(record)
        if trace:
            clock = LayerClock()
            record = checker.run(workload, run, seed, window, clock)
            if record is not None:
                traced_runs.append((clock, record))
        if perf_counter() >= deadline:
            break
    if not untraced or (trace and not traced_runs):
        raise SystemExit(f"{name}: every run failed; nothing to report")

    if trace:
        layers = [per_layer(clock, record) for clock, record in traced_runs]
        values = {key: statistics.median(layer[key] for layer in layers)
                  for key in layers[0]}
        values["setup.import_s"] = statistics.median(
            p["import_s"] for p in setups)
        values["setup.fingerprint_s"] = statistics.median(
            p["fingerprint_s"] for p in setups)
        values["trace.overhead_ratio"] = (
            statistics.median(r.wall_s for _, r in traced_runs)
            / statistics.median(r.wall_s for r in untraced))
        units = PER_LAYER
    else:
        values = end_to_end(untraced, setups)
        units = END_TO_END
    log(f"{name} seed {seed}: {checker.attempted} runs, "
        f"{checker.failed} failed, {len(untraced)} timed untraced"
        + (f", {len(traced_runs)} traced" if trace else ""))
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }


def record_reference() -> None:
    """Write every workload's default-seed statistics to reference.json."""
    recorded: Dict[str, Any] = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        record = run_once(workload.load(), DEFAULT_SEED, workload.window)
        if record.errors:
            raise SystemExit(f"{name}: {record.errors}")
        recorded["workloads"][name] = {"window": asdict(workload.window),
                                       "stats": record.stats}
        log(f"{name}: {record.stats}")
    REFERENCE.write_text(json.dumps(recorded, indent=2, sort_keys=True)
                         + "\n", encoding="utf-8")


def _check_source_tree() -> None:
    """Refuse to run against anything but this checkout's ``src/repro``."""
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import repro from {ROOT / 'src'}: {exc}")
    location = Path(repro.__file__).resolve()
    if (ROOT / "src") not in location.parents:
        raise SystemExit(f"repro imported from {location}, not from "
                         f"{ROOT / 'src'}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    _check_source_tree()
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
