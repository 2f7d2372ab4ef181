"""Tests for the benchmark harness itself.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.layers import LayerClock, traced
from perfbench.workloads import WORKLOADS, Window, compare_stats, run_once

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Small simulated windows: a fraction of a second of host time each.
TINY = {
    "nocontrol_thrash": Window(warmup_time=2.0, num_batches=2,
                               batch_time=3.0),
    "hh_telemetry": Window(warmup_time=2.0, num_batches=2, batch_time=3.0),
    "dist_2pc": Window(warmup_time=1.0, num_batches=2, batch_time=1.0),
}

# Layers each workload must reach, and layers it must not.
REACHED = {
    "nocontrol_thrash": ({"lockmgr.deadlock"},
                         {"telemetry.trace", "distributed.network"}),
    "hh_telemetry": ({"control", "telemetry.trace", "telemetry.probes",
                      "telemetry.export", "experiments.run_specs"},
                     {"distributed.network"}),
    "dist_2pc": ({"distributed.network", "control"},
                 {"telemetry.trace", "experiments.run_specs"}),
}

COMMON_LAYERS = {"sim.engine", "sim.resources.cpu", "sim.resources.disk",
                 "lockmgr.request", "lockmgr.release", "core.tracker",
                 "metrics.collector"}


def _without_written(facts):
    # profile.json holds wall-clock figures, so its size may vary.
    return {k: v for k, v in facts.items() if k != "written_bytes"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_is_observational(name):
    from repro.lockmgr.lock_table import LockTable
    from repro.sim.engine import Simulator

    workload = WORKLOADS[name]
    run = workload.load()
    originals = (vars(LockTable)["request"], vars(Simulator)["run"])
    plain = run_once(run, 42, TINY[name])
    clock = LayerClock()
    with traced(clock):
        observed = run_once(run, 42, TINY[name])

    assert observed.stats == plain.stats
    assert _without_written(observed.facts) == _without_written(plain.facts)
    assert (vars(LockTable)["request"], vars(Simulator)["run"]) == originals
    reached, untouched = REACHED[name]
    for layer in COMMON_LAYERS | reached:
        assert clock.calls[layer] > 0, layer
    for layer in untouched:
        assert clock.calls[layer] == 0, layer
    assert clock.counts["sim.engine.schedule_calls"] >= plain.stats["events"]


def test_nested_calls_of_one_layer_count_once():
    clock = LayerClock()
    inner = clock.timed("a", lambda: None)
    outer = clock.timed("a", lambda: inner())
    other = clock.timed("b", lambda: outer())
    other()
    assert clock.calls == {"a": 1, "b": 1}
    assert clock.self_s["a"] >= 0.0 and clock.self_s["b"] >= 0.0


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(trace):
    result = bench.measure("dist_2pc", 42, seconds=0, trace=trace,
                           window=TINY["dist_2pc"], setup_probes=1)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in section]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_benchmark_json_workloads_are_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_reference_check_flags_a_perturbed_run():
    name = "nocontrol_thrash"
    workload = WORKLOADS[name]
    run = workload.load()
    checker = bench.Checker(expected=None)
    first = checker.run(workload, run, 42, TINY[name])
    checker.run(workload, run, 42, TINY[name])
    assert (checker.attempted, checker.failed) == (2, 0)
    # A different trajectory: same workload, another seed.
    checker.run(workload, run, 43, TINY[name])
    assert (checker.attempted, checker.failed) == (3, 1)
    # The comparison is exact, down to the last bit of a float.
    perturbed = dict(first.stats)
    perturbed["page_throughput"] = perturbed["page_throughput"] * (1 + 1e-15)
    assert compare_stats(first.stats, perturbed)
    assert not compare_stats(first.stats, dict(first.stats))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_committed_reference_matches_default_seed(name):
    workload = WORKLOADS[name]
    expected = bench.committed_reference(name, 42, workload.window)
    assert expected is not None
    record = run_once(workload.load(), 42, workload.window)
    assert not record.errors
    assert compare_stats(expected, record.stats) == []
    assert bench.committed_reference(name, 7, workload.window) is None


def test_setup_probe_stops_at_first_simulation_call():
    probe = bench.measure_setup("hh_telemetry", 42)
    assert probe["setup_s"] > probe["import_s"] > 0.0
    assert probe["fingerprint_s"] > 0.0
    assert bench.measure_setup("nocontrol_thrash", 42)["fingerprint_s"] == 0.0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dist_2pc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
