"""Event-loop profiler: per-function buckets resolve to the named views."""

from __future__ import annotations

import functools

import pytest

from repro.telemetry import EngineProfiler, canonical_qualname
from repro.telemetry.profiling import subsystem_of


class _Callbacks:
    def _page_read_done(self):
        pass

    def _page_read_done_fast(self):
        pass

    def _request_lock(self):
        pass

    def _request_lock_fast_cc(self):
        pass

    def abort_transaction(self):
        pass

    def _abort_transaction_fast(self):
        pass


def _plain_event():
    pass


def _named_rollup(sequence):
    """Resolve names on every event, as a per-event profiler would."""
    subsystems, event_types = {}, {}
    for callback, elapsed in sequence:
        subsystem = subsystem_of(callback)
        event_type = f"{subsystem}.{canonical_qualname(callback)}"
        for table, key in ((subsystems, subsystem),
                           (event_types, event_type)):
            bucket = table.setdefault(key, [0, 0.0])
            bucket[0] += 1
            bucket[1] += elapsed
    return subsystems, event_types


def _sequence():
    first, second = _Callbacks(), _Callbacks()
    partial = functools.partial(_plain_event)
    return [
        (first._page_read_done, 0.001),
        (second._page_read_done_fast, 0.002),
        (first._request_lock_fast_cc, 0.003),
        (second._request_lock, 0.004),
        (first.abort_transaction, 0.005),
        (second._abort_transaction_fast, 0.006),
        (_plain_event, 0.007),
        (partial, 0.008),
        (functools.partial(_plain_event), 0.009),
        (first._page_read_done_fast, 0.010),
        (second._page_read_done, 0.011),
    ]


def test_summary_matches_per_event_name_resolution():
    sequence = _sequence()
    profiler = EngineProfiler()
    for callback, elapsed in sequence:
        profiler.record(callback, elapsed, ())
    subsystems, event_types = _named_rollup(sequence)
    summary = profiler.summary()

    assert summary["events"] == len(sequence)
    assert summary["callback_seconds"] == pytest.approx(
        sum(elapsed for _, elapsed in sequence))
    assert {name: row["events"]
            for name, row in summary["subsystems"].items()} == \
        {name: count for name, (count, _) in subsystems.items()}
    assert {name: row["events"]
            for name, row in summary["event_types"].items()} == \
        {name: count for name, (count, _) in event_types.items()}
    for name, (_, seconds) in event_types.items():
        assert summary["event_types"][name]["seconds"] == \
            pytest.approx(seconds)

    here = subsystem_of(_plain_event)
    assert {name: row["events"]
            for name, row in summary["event_types"].items()} == {
        f"{here}._Callbacks._page_read_done": 4,
        f"{here}._Callbacks._request_lock": 2,
        # The abort alias is specific to DBMSSystem.
        f"{here}._Callbacks.abort_transaction": 1,
        f"{here}._Callbacks._abort_transaction": 1,
        f"{here}._plain_event": 1,
        "functools.partial": 2,
    }


def test_buckets_key_on_the_underlying_function():
    first, second = _Callbacks(), _Callbacks()
    profiler = EngineProfiler()
    profiler.record(first._page_read_done, 0.001)
    profiler.record(second._page_read_done, 0.002)
    profiler.record(first._page_read_done_fast, 0.003)
    # Two instances share one bucket; the fast twin is its own function
    # until the views merge it under the canonical name.
    assert set(profiler.by_function) == {_Callbacks._page_read_done,
                                         _Callbacks._page_read_done_fast}
    assert profiler.by_function[_Callbacks._page_read_done][0] == 2
    (key,) = profiler.by_event_type
    assert profiler.by_event_type[key][0] == 3
    assert profiler.by_subsystem == {
        subsystem_of(_plain_event): [3, pytest.approx(0.006)]}


def test_format_ranks_subsystems_from_the_views():
    profiler = EngineProfiler()
    for callback, elapsed in _sequence():
        profiler.record(callback, elapsed)
    text = profiler.format()
    assert text.startswith(f"{len(_sequence())} events")
    assert "functools" in text
