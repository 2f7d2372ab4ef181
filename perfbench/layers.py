"""Outside-in tracing: per-layer call counts and self time.

The traced run wraps the public entry points of each simulator layer at
class (or module) level before the run starts and restores them after.
Nothing inside ``src/repro`` is edited and the simulator's per-event
profiler and monitor slots stay empty: the wrappers only observe
arguments and return values, so a traced run reproduces the untraced
run's simulated statistics exactly.

A layer's *self time* is the host time spent inside its wrapped entry
points minus the time spent in nested wrapped calls of other layers.
Code a layer calls back into without passing a wrapped boundary (for
example ``DBMSSystem`` private callbacks run by a controller hook that
admits a transaction) counts toward that layer.  A wrapped call made
while the same layer is already the innermost open layer is part of the
outer call: it is neither counted nor timed separately.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LayerClock", "traced"]

# Controller hooks the DBMS state machines call (repro.control.base).
CONTROLLER_HOOKS = ("want_admit", "on_admit", "on_lock_granted", "on_block",
                    "on_unblock", "on_commit", "on_abort", "on_removed")


class LayerClock:
    """Call counts, self time and result counters per layer name."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        # Counts derived from return values (blocked requests, victims)
        # and count-only boundaries (calendar insertions).
        self.counts: Dict[str, int] = defaultdict(int)
        # Open frames, innermost last: [layer, seconds in nested layers].
        self._stack: List[list] = []

    def timed(self, layer: str, fn: Callable[..., Any],
              on_result: Optional[Callable[[Any], None]] = None
              ) -> Callable[..., Any]:
        """Wrap ``fn`` so its calls count toward ``layer``."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counted(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` to count its calls only (no timing, no frame)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


def _targets(clock: LayerClock) -> List[Tuple[Any, str, Callable]]:
    """Every (owner, attribute, wrapper-factory) the traced run patches."""
    import repro.dbms.system as dbms_system
    import repro.distributed.system as dist_system
    import repro.experiments.parallel as parallel
    from repro.control.no_control import NoControlController
    from repro.core.half_and_half import HalfAndHalfController
    from repro.core.state_tracker import StateTracker
    from repro.distributed.network import Network
    from repro.lockmgr.lock_table import LockTable, RequestOutcome
    from repro.metrics.collector import Collector
    from repro.metrics.trace import Tracer
    from repro.sim.engine import Simulator
    from repro.sim.resources.cpu import CpuPool
    from repro.sim.resources.disk import DiskArray
    from repro.telemetry.export import TelemetrySession
    from repro.telemetry.probes import ProbeScheduler
    from repro.telemetry.sites import DistributedProbeScheduler

    counts = clock.counts

    def note_blocked(outcome) -> None:
        if outcome is RequestOutcome.BLOCKED:
            counts["lockmgr.request.blocked"] += 1

    def note_victims(victims) -> None:
        counts["lockmgr.deadlock.victims"] += len(victims)

    def timed(layer, on_result=None):
        return lambda fn: clock.timed(layer, fn, on_result)

    def counted(key):
        return lambda fn: clock.counted(key, fn)

    targets: List[Tuple[Any, str, Callable]] = [
        (Simulator, "run", timed("sim.engine")),
        # schedule_at delegates to schedule, so wrapping schedule and
        # post counts every calendar insertion exactly once.
        (Simulator, "schedule", counted("sim.engine.schedule_calls")),
        (Simulator, "post", counted("sim.engine.schedule_calls")),
        (CpuPool, "request", timed("sim.resources.cpu")),
        (DiskArray, "access", timed("sim.resources.disk")),
        (DiskArray, "access_random", timed("sim.resources.disk")),
        (LockTable, "request", timed("lockmgr.request", note_blocked)),
        (LockTable, "release", timed("lockmgr.release")),
        (LockTable, "release_all", timed("lockmgr.release")),
        (LockTable, "cancel_wait", timed("lockmgr.release")),
        # Module-level imports: patched where the state machines look
        # them up.
        (dbms_system, "resolve_deadlocks",
         timed("lockmgr.deadlock", note_victims)),
        (dist_system, "resolve_deadlocks",
         timed("lockmgr.deadlock", note_victims)),
        (Tracer, "record", timed("telemetry.trace")),
        (Tracer, "record_abort", timed("telemetry.trace")),
        (ProbeScheduler, "sample", timed("telemetry.probes")),
        (DistributedProbeScheduler, "sample", timed("telemetry.probes")),
        (TelemetrySession, "finalize", timed("telemetry.export")),
        (Network, "send", timed("distributed.network")),
        (Network, "call", timed("distributed.network")),
        (parallel, "run_specs", timed("experiments.run_specs")),
        # The simulation run_specs executes; wrapped so that its time
        # is not charged to run_specs, whose self time is then the
        # overhead of the parallel path.
        (parallel, "run_simulation", timed("experiments.runner")),
    ]
    for name in ("add", "remove", "set_blocked", "set_mature"):
        targets.append((StateTracker, name, timed("core.tracker")))
    for name in sorted(vars(Collector)):
        if name.startswith(("on_", "set_")):
            targets.append((Collector, name, timed("metrics.collector")))
    for cls in (HalfAndHalfController, NoControlController):
        for name in CONTROLLER_HOOKS:
            targets.append((cls, name, timed("control")))
    return targets


@contextmanager
def traced(clock: LayerClock) -> Iterator[LayerClock]:
    """Install the layer wrappers for the duration of the block."""
    patched: List[Tuple[Any, str, bool, Any]] = []
    try:
        for owner, name, make in _targets(clock):
            own = name in vars(owner)
            original = getattr(owner, name)
            patched.append((owner, name, own,
                            vars(owner)[name] if own else None))
            setattr(owner, name, make(original))
        yield clock
    finally:
        for owner, name, own, original in reversed(patched):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
