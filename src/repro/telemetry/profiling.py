"""Wall-clock profiling of the simulation event loop.

An :class:`EngineProfiler` attached to a
:class:`~repro.sim.engine.Simulator` (``sim.profiler = EngineProfiler()``)
receives every executed event's callback and its ``time.perf_counter``
duration.  Events are bucketed two ways:

* by the callback's defining module — the *subsystem* — so a profile
  answers "where does the wall time go: the DBMS state machine, the
  lock manager, the resources, the controller?";
* by the callback's *canonical qualname* — the logical event type —
  so it also answers "which transition is hot: ``_page_read_done``,
  ``_next_operation``, a disk completion?".

Canonicalization matters because of the kernel fast path: when no
observability hook is attached, :meth:`DBMSSystem._bind_fast_dispatch`
shadows the state-machine methods with hook-free ``*_fast`` twins, so
the same logical transition reaches the profiler under two different
bound methods depending on dispatch path.  :func:`canonical_qualname`
collapses the twins (``DBMSSystem._page_read_done_fast`` and
``DBMSSystem._page_read_done`` both key as
``DBMSSystem._page_read_done``), which keeps profiles comparable across
configurations and aggregates both paths under one key.

The profiler measures *wall* time and is therefore intentionally kept
out of the deterministic telemetry files; its summary lands in the
non-deterministic ``profile.json``.  The richer attribution profiler
(per-phase logical stacks, flamegraph export, allocation probes) lives
in :mod:`repro.telemetry.perf` and builds on this module.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Tuple

__all__ = ["EngineProfiler", "subsystem_of", "canonical_qualname"]

_PACKAGE_PREFIX = "repro."

# The fast-dispatch suffixes, longest first so ``_fast_cc`` is not
# half-stripped to a stale ``_cc`` key.
_FAST_SUFFIXES = ("_fast_cc", "_fast")

# Fast twins whose stripped name still differs from the hooked
# original's public name.
_QUALNAME_ALIASES = {
    "DBMSSystem._abort_transaction": "DBMSSystem.abort_transaction",
}


def subsystem_of(callback: Callable[..., Any]) -> str:
    """The subsystem bucket for one event callback.

    The callback's defining module, minus the package prefix — e.g.
    ``DBMSSystem._page_read_done`` buckets under ``dbms.system`` and a
    disk completion under ``sim.resources.disk``.
    """
    module = getattr(callback, "__module__", None) or "<unknown>"
    if module.startswith(_PACKAGE_PREFIX):
        module = module[len(_PACKAGE_PREFIX):]
    return module


def canonical_qualname(callback: Callable[..., Any]) -> str:
    """The logical event-type key for one event callback.

    The callback's ``__qualname__`` with any fast-dispatch suffix
    stripped, so the hook-free ``*_fast`` twins and their hooked
    originals collapse into one key regardless of which dispatch path
    executed the event.  Callables without a qualname (rare: partials,
    C callables) key as their ``__name__`` or type name.
    """
    qual = getattr(callback, "__qualname__", None)
    if qual is None:
        qual = getattr(callback, "__name__", None)
        if qual is None:
            qual = type(callback).__name__
        return qual
    for suffix in _FAST_SUFFIXES:
        if qual.endswith(suffix):
            qual = qual[:-len(suffix)]
            break
    return _QUALNAME_ALIASES.get(qual, qual)


class EngineProfiler:
    """Per-subsystem and per-event-type counts and wall-clock timings.

    The simulator calls :meth:`record` once per executed event; the
    profiler also keeps its own ``perf_counter`` epoch so
    :meth:`summary` can report events per wall-second including loop
    overhead, not just callback time.

    The per-event work is one bucket update keyed by the callback's
    underlying function (a bound method's ``__func__``, else the
    callable itself).  Subsystem and canonical event-type names are
    resolved per function only when the buckets are read, through
    :attr:`by_subsystem` and :attr:`by_event_type`.
    """

    def __init__(self) -> None:
        self.events = 0
        self.callback_seconds = 0.0
        # underlying function -> [event count, callback seconds]
        self.by_function: Dict[Any, list] = {}
        # underlying function -> (subsystem, canonical qualname)
        self._names: Dict[Any, Tuple[str, str]] = {}
        self._epoch = time.perf_counter()

    def _names_of(self, func: Callable[..., Any]) -> Tuple[str, str]:
        """Memoized ``(subsystem, canonical qualname)`` of a function."""
        names = self._names.get(func)
        if names is None:
            names = self._names[func] = (subsystem_of(func),
                                         canonical_qualname(func))
        return names

    def record(self, callback: Callable[..., Any], elapsed: float,
               args: tuple = ()) -> None:
        """Credit one executed event to its callback's function.

        ``args`` is the event's argument tuple; this profiler ignores
        it, but subclasses (the attribution profiler) use it for
        page-class attribution, and the simulator always passes it.
        """
        self.events += 1
        self.callback_seconds += elapsed
        func = getattr(callback, "__func__", callback)
        bucket = self.by_function.get(func)
        if bucket is None:
            self.by_function[func] = [1, elapsed]
        else:
            bucket[0] += 1
            bucket[1] += elapsed

    def _rollup(self, key: Callable[[str, str], str]) -> Dict[str, list]:
        """The function buckets merged under ``key(subsystem, qualname)``."""
        out: Dict[str, list] = {}
        for func, (count, seconds) in self.by_function.items():
            name = key(*self._names_of(func))
            bucket = out.get(name)
            if bucket is None:
                out[name] = [count, seconds]
            else:
                bucket[0] += count
                bucket[1] += seconds
        return out

    @property
    def by_subsystem(self) -> Dict[str, list]:
        """subsystem -> [event count, callback seconds]."""
        return self._rollup(lambda subsystem, qualname: subsystem)

    @property
    def by_event_type(self) -> Dict[str, list]:
        """canonical ``subsystem.Class.method`` -> [count, seconds]."""
        return self._rollup(
            lambda subsystem, qualname: f"{subsystem}.{qualname}")

    @property
    def wall_seconds(self) -> float:
        """Wall time since the profiler was created."""
        return time.perf_counter() - self._epoch

    @property
    def events_per_second(self) -> float:
        wall = self.wall_seconds
        return self.events / wall if wall > 0.0 else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable profile (the profile.json payload)."""
        subsystems = {
            name: {"events": count, "seconds": seconds}
            for name, (count, seconds) in sorted(self.by_subsystem.items())
        }
        event_types = {
            name: {"events": count, "seconds": seconds}
            for name, (count, seconds) in sorted(self.by_event_type.items())
        }
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "callback_seconds": self.callback_seconds,
            "events_per_second": self.events_per_second,
            "subsystems": subsystems,
            "event_types": event_types,
        }

    def format(self) -> str:
        """Human-readable profile table."""
        lines = [f"{self.events} events in {self.wall_seconds:.2f}s wall "
                 f"({self.events_per_second:,.0f} events/s)"]
        total = self.callback_seconds or 1.0
        ranked = sorted(self.by_subsystem.items(),
                        key=lambda kv: kv[1][1], reverse=True)
        for name, (count, seconds) in ranked:
            lines.append(f"  {name:<24} {count:>10} events "
                         f"{seconds:8.3f}s ({100.0 * seconds / total:5.1f}%)")
        return "\n".join(lines)
