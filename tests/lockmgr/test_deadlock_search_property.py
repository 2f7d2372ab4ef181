"""Differential property tests of the deadlock search.

``blocking_order`` is specialised for the S/X modes and ``find_cycle``
skips transactions nobody waits on.  Both must stay *exactly* the
general forms below — same blockers in the same order, same cycle —
because the cycle found picks the deadlock victim, and a different
victim is a different trajectory.  The oracles are the general,
mode-matrix forms of both functions, kept here only as references.
"""

from __future__ import annotations

from typing import List, Optional, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lockmgr.deadlock import find_cycle
from repro.lockmgr.lock_table import LockTable
from repro.lockmgr.modes import LockMode, compatible
from repro.verify.reference import ReferenceLockTable


class T:
    def __init__(self, i: int):
        self.i = i

    def __repr__(self):
        return f"t{self.i}"


def oracle_blocking_order(table: LockTable, txn) -> List:
    """Waits-for adjacency from the compatibility matrix, deduplicated
    by identity: holders, then upgraders, then waiters ahead."""
    rec = table._waits.get(txn)
    if rec is None:
        return []
    lock = table._locks[rec.page]
    ordered: List = []
    seen: Set[int] = {id(txn)}

    def _add(candidate) -> None:
        if id(candidate) not in seen:
            seen.add(id(candidate))
            ordered.append(candidate)

    if rec.is_upgrade:
        for holder in lock.holders:
            _add(holder)
        for up in lock.upgraders:
            if up is txn:
                break
            _add(up)
        return ordered
    for holder, held_mode in lock.holders.items():
        if not compatible(held_mode, rec.mode):
            _add(holder)
    for up in lock.upgraders:
        _add(up)
    for waiter, mode in lock.queue:
        if waiter is txn:
            break
        if not (compatible(mode, rec.mode)
                and compatible(rec.mode, mode)):
            _add(waiter)
    return ordered


def oracle_find_cycle(table: LockTable, start) -> Optional[List]:
    """Unfiltered DFS over :func:`oracle_blocking_order`."""
    path = [start]
    on_path = {id(start)}
    iter_stack = [iter(oracle_blocking_order(table, start))]
    visited = {id(start)}
    while iter_stack:
        advanced = False
        for nxt in iter_stack[-1]:
            if nxt is start:
                return list(path)
            if id(nxt) in on_path or id(nxt) in visited:
                continue
            visited.add(id(nxt))
            blockers = oracle_blocking_order(table, nxt)
            if not blockers:
                continue
            path.append(nxt)
            on_path.add(id(nxt))
            iter_stack.append(iter(blockers))
            advanced = True
            break
        if not advanced:
            on_path.discard(id(path.pop()))
            iter_stack.pop()
    return None


# (op, txn index, page, X?) — an X request on a page held in S is an
# upgrade, so small page counts produce plenty of upgrades and cycles.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["request", "request", "request",
                         "release_all", "cancel_wait"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    ),
    min_size=1, max_size=50,
)


def _check_state(table: LockTable, ref: ReferenceLockTable,
                 txns: List[T]) -> None:
    waiting = [t for t in txns if table.is_waiting(t)]
    for t in txns:
        order = table.blocking_order(t)
        assert order == oracle_blocking_order(table, t)
        assert set(order) == ref.blocking_set(t)
        assert table.blocking_set(t) == ref.blocking_set(t)
        assert find_cycle(table, t) == oracle_find_cycle(table, t)
        if not table.may_be_waited_on(t):
            assert not any(t in ref.blocking_set(w) for w in waiting)


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_property_deadlock_search_matches_oracles(ops):
    table, ref = LockTable(), ReferenceLockTable()
    txns = [T(i) for i in range(5)]
    for op, ti, page, is_x in ops:
        txn = txns[ti]
        if op == "request":
            if table.is_waiting(txn):
                continue  # illegal while waiting; skip
            mode = LockMode.X if is_x else LockMode.S
            assert table.request(txn, page, mode) is ref.request(
                txn, page, mode)
        elif op == "release_all":
            table.release_all(txn)
            ref.release_all(txn)
        else:
            table.cancel_wait(txn)
            ref.cancel_wait(txn)
        _check_state(table, ref, txns)


def test_pre_filter_sees_waiter_queued_behind():
    """``a`` holds nothing, so only a waiter queued behind it on its own
    page can wait on it — and close a cycle through it."""
    table = LockTable()
    a, b, c = T(0), T(1), T(2)
    table.request(b, 0, LockMode.X)
    table.request(c, 1, LockMode.X)
    table.request(a, 0, LockMode.X)        # a waits on b
    assert not table.may_be_waited_on(a)
    assert find_cycle(table, a) is None
    table.request(c, 0, LockMode.X)        # c waits on b, then a
    table.request(b, 1, LockMode.X)        # b waits on c
    assert table.may_be_waited_on(a)
    assert find_cycle(table, a) == [a, b, c]
