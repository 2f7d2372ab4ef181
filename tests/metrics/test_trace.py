"""Unit tests for the event tracer."""

from __future__ import annotations

import dataclasses

import pytest

from repro.metrics.trace import TraceEvent, TraceEventType, Tracer


def test_record_and_iterate():
    tracer = Tracer()
    tracer.record(1.0, TraceEventType.ADMIT, 7)
    tracer.record(2.0, TraceEventType.COMMIT, 7, detail="0 restarts")
    events = list(tracer)
    assert len(events) == 2
    assert events[0].event_type is TraceEventType.ADMIT
    assert events[1].detail == "0 restarts"


def test_capacity_drops_oldest():
    tracer = Tracer(capacity=3)
    for i in range(5):
        tracer.record(float(i), TraceEventType.ADMIT, i)
    assert len(tracer) == 3
    assert tracer.dropped == 2
    assert [e.txn_id for e in tracer] == [2, 3, 4]


def test_unbounded_capacity():
    tracer = Tracer(capacity=None)
    for i in range(1000):
        tracer.record(float(i), TraceEventType.ADMIT, i)
    assert len(tracer) == 1000
    assert tracer.dropped == 0


def test_event_filter():
    tracer = Tracer(event_filter=lambda e: e.event_type
                    is TraceEventType.COMMIT)
    tracer.record(1.0, TraceEventType.ADMIT, 1)
    tracer.record(2.0, TraceEventType.COMMIT, 1)
    assert len(tracer) == 1
    assert tracer.events()[0].event_type is TraceEventType.COMMIT


def test_record_abort_maps_reasons():
    tracer = Tracer()
    tracer.record_abort(1.0, 1, "deadlock")
    tracer.record_abort(2.0, 2, "load_control")
    tracer.record_abort(3.0, 3, "wait_policy")
    types = [e.event_type for e in tracer]
    assert types == [TraceEventType.DEADLOCK_ABORT,
                     TraceEventType.LOAD_CONTROL_ABORT,
                     TraceEventType.WAIT_POLICY_ABORT]


def test_record_abort_unknown_reason_keeps_reason():
    tracer = Tracer()
    tracer.record_abort(1.0, 1, "buffer_eviction")
    (event,) = tracer.events()
    assert event.event_type is TraceEventType.ABORT
    assert event.detail == "buffer_eviction"


def test_capacity_eviction_preserves_order_after_wraparound():
    tracer = Tracer(capacity=2)
    for i in range(10):
        tracer.record(float(i), TraceEventType.ADMIT, i)
    assert [e.txn_id for e in tracer] == [8, 9]
    assert tracer.dropped == 8
    # format() must still work on the deque-backed store.
    assert len(tracer.format(limit=1).splitlines()) == 1


def test_query_by_type_and_txn():
    tracer = Tracer()
    tracer.record(1.0, TraceEventType.ADMIT, 1)
    tracer.record(2.0, TraceEventType.ADMIT, 2)
    tracer.record(3.0, TraceEventType.COMMIT, 1)
    assert len(tracer.events(TraceEventType.ADMIT)) == 2
    assert len(tracer.events(txn_id=1)) == 2
    assert len(tracer.events(TraceEventType.COMMIT, txn_id=2)) == 0
    assert [e.event_type for e in tracer.history_of(1)] == \
        [TraceEventType.ADMIT, TraceEventType.COMMIT]


def test_counts():
    tracer = Tracer()
    tracer.record(1.0, TraceEventType.BLOCK, 1)
    tracer.record(2.0, TraceEventType.BLOCK, 2)
    tracer.record(3.0, TraceEventType.UNBLOCK, 1)
    assert tracer.counts() == {TraceEventType.BLOCK: 2,
                               TraceEventType.UNBLOCK: 1}


def test_format_and_str():
    tracer = Tracer()
    tracer.record(1.5, TraceEventType.BLOCK, 42, detail="page 7")
    text = tracer.format()
    assert "42" in text and "block" in text and "page 7" in text
    assert str(TraceEvent(1.0, TraceEventType.ADMIT, 3)).endswith("admit")


def test_format_limit():
    tracer = Tracer()
    for i in range(10):
        tracer.record(float(i), TraceEventType.ADMIT, i)
    assert len(tracer.format(limit=3).splitlines()) == 3


def test_history_index_matches_full_scan_under_eviction():
    # Interleave three transactions past the retention bound; the
    # per-txn index must agree with a filtered scan of the retained
    # deque, and evicted transactions must vanish entirely.
    tracer = Tracer(capacity=6)
    for i in range(20):
        tracer.record(float(i), TraceEventType.ADMIT, i % 3,
                      detail=str(i))
    retained = list(tracer)
    assert len(retained) == 6 and tracer.dropped == 14
    for txn_id in range(3):
        expected = [e for e in retained if e.txn_id == txn_id]
        assert tracer.history_of(txn_id) == expected
        assert tracer.events(txn_id=txn_id) == expected


def test_history_index_cleans_empty_buckets():
    tracer = Tracer(capacity=2)
    tracer.record(0.0, TraceEventType.ADMIT, 1)
    tracer.record(1.0, TraceEventType.ADMIT, 2)
    tracer.record(2.0, TraceEventType.ADMIT, 3)  # evicts txn 1's only event
    assert tracer.history_of(1) == []
    assert 1 not in tracer._by_txn
    assert [e.txn_id for e in tracer] == [2, 3]


def test_history_index_unbounded_and_missing_txn():
    tracer = Tracer(capacity=None)
    for i in range(100):
        tracer.record(float(i), TraceEventType.ADMIT, i % 5)
    assert len(tracer.history_of(0)) == 20
    assert tracer.history_of(999) == []


def test_history_index_zero_capacity_records_nothing():
    tracer = Tracer(capacity=0)
    tracer.record(0.0, TraceEventType.ADMIT, 1)
    assert len(tracer) == 0
    assert tracer.dropped == 1
    assert tracer.history_of(1) == []
    assert tracer._by_txn == {}


def test_traced_simulation_records_lifecycle(tiny_params):
    from repro.control.no_control import NoControlController
    from repro.experiments.runner import run_simulation
    tracer = Tracer()
    run_simulation(tiny_params, NoControlController(), tracer=tracer)
    counts = tracer.counts()
    assert counts.get(TraceEventType.ARRIVAL, 0) > 0
    assert counts.get(TraceEventType.ADMIT, 0) > 0
    assert counts.get(TraceEventType.COMMIT, 0) > 0
    assert counts.get(TraceEventType.LOCK_GRANT, 0) > 0
    # A transaction's first trace event is its arrival; its commit (if
    # any) comes last.
    first = tracer.history_of(0)
    assert first[0].event_type is TraceEventType.ARRIVAL
    if first[-1].event_type is TraceEventType.COMMIT:
        assert first[-1].time >= first[0].time


def test_trace_event_is_immutable():
    event = TraceEvent(1.0, TraceEventType.ADMIT, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.time = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del event.detail
    # A slotted record has nowhere to put a new attribute either (the
    # error type for non-field names varies across CPython versions).
    with pytest.raises((AttributeError, TypeError)):
        event.extra = "x"
    assert event.time == 1.0 and event.detail == ""


def test_trace_event_equality_hash_and_str():
    a = TraceEvent(1.5, TraceEventType.BLOCK, 42, detail="page 7")
    b = TraceEvent(1.5, TraceEventType.BLOCK, 42, "page 7")
    assert a == b and hash(a) == hash(b)
    assert a != TraceEvent(1.5, TraceEventType.BLOCK, 42)
    assert a != TraceEvent(1.5, TraceEventType.UNBLOCK, 42, "page 7")
    assert str(a) == "[    1.5000] txn 42     block (page 7)"
    assert str(TraceEvent(0.25, TraceEventType.COMMIT, 7)) == \
        "[    0.2500] txn 7      commit"
    assert repr(a) == ("TraceEvent(time=1.5, event_type="
                       "<TraceEventType.BLOCK: 'block'>, txn_id=42, "
                       "detail='page 7')")


def test_txn_queries_match_full_scan_at_every_step_of_eviction():
    # After every append, both per-txn queries must agree with a scan
    # of the retained events, including once FIFO eviction has emptied
    # and recreated buckets.
    tracer = Tracer(capacity=5)
    kinds = (TraceEventType.ADMIT, TraceEventType.BLOCK)
    for i in range(40):
        tracer.record(float(i), kinds[i % 2], (i * 7) % 4, detail=str(i))
        retained = list(tracer)
        assert len(retained) == min(i + 1, 5)
        for txn_id in range(4):
            expected = [e for e in retained if e.txn_id == txn_id]
            assert tracer.history_of(txn_id) == expected
            assert tracer.events(txn_id=txn_id) == expected
            assert tracer.events(TraceEventType.BLOCK, txn_id=txn_id) == \
                [e for e in expected if e.event_type is TraceEventType.BLOCK]
        assert set(tracer._by_txn) == {e.txn_id for e in retained}
    assert tracer.dropped == 35


def test_zero_capacity_txn_queries_stay_empty():
    tracer = Tracer(capacity=0)
    for i in range(3):
        tracer.record(float(i), TraceEventType.ADMIT, 1)
        tracer.record_abort(float(i), 1, "deadlock")
    assert tracer.dropped == 6
    assert tracer.events(txn_id=1) == []
    assert tracer.events() == []
    assert tracer.history_of(1) == []
