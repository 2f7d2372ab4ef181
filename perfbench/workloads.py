"""The benchmark's three workloads, driven through the public ``repro`` API.

Every workload is a closed model: ``num_terms`` terminals with zero think
time, so a slower simulated system receives proportionally less load.
Each run simulates a fixed window (warmup plus batches) from a fresh
system; the benchmark repeats runs and reports host time per run.

Imports of ``repro`` happen inside ``Workload.load``, so a fresh
interpreter that loads one workload pays exactly the imports that
workload needs; the set-up probe times them.
"""

from __future__ import annotations

import gc
import os
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List

__all__ = ["Window", "RunRecord", "Workload", "WORKLOADS", "WORK_DIR",
           "DEFAULT_SEED", "compare_stats", "run_once"]

DEFAULT_SEED = 42

# Telemetry output of hh_telemetry runs; removed after every run.
WORK_DIR = Path(__file__).resolve().parent / "_work"

# The paper's base case (Table 2) past the thrashing knee.
BASE_CASE = {"num_terms": 200, "db_size": 1000, "write_prob": 0.25}

# Failure-realistic 2PC network of the ext_distributed_failures figure
# (jitter and small loss), without crashes or partitions.
DIST_CASE = {"num_sites": 4, "two_phase_commit": True, "failure_model": True,
             "msg_jitter": 0.0005, "msg_loss_prob": 0.01}


@dataclass(frozen=True)
class Window:
    """Simulated measurement window of one run (seconds)."""

    warmup_time: float
    num_batches: int
    batch_time: float


@dataclass
class RunRecord:
    """What one run produced.

    ``stats`` are the simulated statistics the reference check compares
    exactly; ``facts`` are further simulated figures the per-layer
    report uses.  Only ``wall_s`` is host time.
    """

    stats: Dict[str, Any]
    facts: Dict[str, Any]
    wall_s: float
    errors: List[str]


def compare_stats(expected: Dict[str, Any],
                  actual: Dict[str, Any]) -> List[str]:
    """Differences between two ``RunRecord.stats`` (empty = identical)."""
    return [f"{key}: expected {expected.get(key)!r}, got {actual.get(key)!r}"
            for key in sorted(set(expected) | set(actual))
            if expected.get(key) != actual.get(key)]


@contextmanager
def _capture(*classes: type) -> Iterator[List[Any]]:
    """Collect every instance of ``classes`` constructed in the block.

    Wraps ``__init__`` once per run, never a per-event path; the runners
    build their system internally, and its simulator and collector are
    where the run's events and counters live.
    """
    built: List[Any] = []
    originals = [(cls, vars(cls)["__init__"]) for cls in classes]

    def wrap(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)
        return __init__

    for cls, init in originals:
        cls.__init__ = wrap(init)
    try:
        yield built
    finally:
        for cls, init in originals:
            cls.__init__ = init


def _utilization(pools: List[Any], servers: str, now: float) -> float:
    total = sum(getattr(pool, servers) for pool in pools)
    return sum(pool.busy_time for pool in pools) / (now * total)


def _record(results: Any, system: Any, wall_s: float,
            written_bytes: int = 0) -> RunRecord:
    collector = system.collector
    sim = system.sim
    page_throughput = results.page_throughput.mean
    raw_rate = results.raw_page_rate.mean
    stats = {
        "events": sim.events_executed,
        "commits": collector.commits,
        "aborts_by_reason": dict(sorted(collector.aborts_by_reason.items())),
        "raw_pages": collector.raw_pages,
        "committed_pages": collector.committed_pages,
        "page_throughput": page_throughput,
    }
    sites = getattr(system, "sites", None) or [system]
    network = getattr(system, "network", None)
    net = network.stats() if network is not None else {}
    facts = {
        "useful_page_ratio": page_throughput / raw_rate,
        "aborts": collector.aborts,
        "cpu_util": _utilization([s.cpu for s in sites], "num_cpus",
                                 sim.now),
        "disk_util": _utilization([s.disks for s in sites], "num_disks",
                                  sim.now),
        "net_sent": net.get("sent", 0),
        "net_retransmissions": net.get("retransmissions", 0),
        "written_bytes": written_bytes,
    }
    return RunRecord(stats=stats, facts=facts, wall_s=wall_s,
                     errors=collector.conservation_errors())


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


RunFn = Callable[[int, Window], RunRecord]


def _no_control() -> RunFn:
    import repro
    from repro.dbms.system import DBMSSystem

    def run(seed: int, window: Window) -> RunRecord:
        params = repro.SimulationParameters(seed=seed, **BASE_CASE,
                                            **asdict(window))
        with _capture(DBMSSystem) as systems:
            start = perf_counter()
            results = repro.run_simulation(params,
                                           repro.NoControlController())
            wall = perf_counter() - start
        return _record(results, systems[0], wall)
    return run


def _telemetry() -> RunFn:
    import repro
    from repro.dbms.system import DBMSSystem
    from repro.experiments import parallel

    def run(seed: int, window: Window) -> RunRecord:
        params = repro.SimulationParameters(seed=seed, **BASE_CASE,
                                            **asdict(window))
        out = WORK_DIR / f"telemetry-{os.getpid()}"
        shutil.rmtree(out, ignore_errors=True)
        spec = parallel.RunSpec(params, repro.HalfAndHalfController)
        config = repro.TelemetryConfig(root=str(out))
        try:
            with _capture(DBMSSystem) as systems:
                start = perf_counter()
                # Looked up on the module at call time, so the traced
                # run's wrapper on parallel.run_specs sees the call.
                (results,) = parallel.run_specs(
                    [spec], jobs=1, cache=None, progress=False,
                    telemetry=config)
                wall = perf_counter() - start
            written = _tree_bytes(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return _record(results, systems[0], wall, written)
    return run


def _distributed() -> RunFn:
    from repro.distributed.config import DistributedParameters
    from repro.distributed.controllers import make_half_and_half_sites
    from repro.distributed.runner import run_distributed_simulation
    from repro.distributed.system import DistributedSystem

    def run(seed: int, window: Window) -> RunRecord:
        params = DistributedParameters(seed=seed, **BASE_CASE, **DIST_CASE,
                                       **asdict(window))
        controllers = make_half_and_half_sites(params.num_sites)
        with _capture(DistributedSystem) as systems:
            start = perf_counter()
            results = run_distributed_simulation(params, controllers)
            wall = perf_counter() - start
        return _record(results, systems[0], wall)
    return run


def run_once(run: RunFn, seed: int, window: Window) -> RunRecord:
    """One run from a collected heap, so earlier garbage is not charged
    to it."""
    gc.collect()
    return run(seed, window)


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    ``load`` imports what the workload needs and returns its run
    function.
    """

    name: str
    why: str
    window: Window
    load: Callable[[], RunFn]


CENTRAL_WINDOW = Window(warmup_time=20.0, num_batches=10, batch_time=30.0)
DIST_WINDOW = Window(warmup_time=10.0, num_batches=10, batch_time=10.0)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("nocontrol_thrash",
             "plain 2PL on the base case past the knee (200 terminals, 1000 "
             "pages): wait queues and deadlock detection dominate, the "
             "controller hooks do nothing",
             CENTRAL_WINDOW, _no_control),
    Workload("hh_telemetry",
             "Half-and-Half on the same parameters through run_specs with "
             "default telemetry: controller, trace, probes, profiler and "
             "export to disk all work",
             CENTRAL_WINDOW, _telemetry),
    Workload("dist_2pc",
             "4-site Half-and-Half with 2PC over a lossy, jittery network: "
             "the only path through repro.distributed",
             DIST_WINDOW, _distributed),
)}
