"""Micro-benchmarks of the substrates (real wall-clock timing).

Unlike the figure benchmarks (which run once and check shapes), these
use pytest-benchmark's timing machinery for what it is good at: keeping
the hot paths of the event kernel, lock table, and full simulator from
silently regressing.
"""

from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.experiments.runner import run_simulation
from repro.lockmgr.deadlock import find_cycle
from repro.lockmgr.lock_table import LockTable
from repro.lockmgr.modes import LockMode
from repro.sim.engine import Simulator


def test_micro_event_kernel(benchmark):
    """Schedule-and-fire throughput of the event calendar."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    fired = benchmark(run)
    assert fired == 20_000


def test_micro_lock_table_grant_release(benchmark):
    """Uncontended request/release cycles through the lock table."""

    class T:
        pass

    def run():
        table = LockTable()
        txns = [T() for _ in range(8)]
        for round_no in range(2_000):
            for i, txn in enumerate(txns):
                table.request(txn, (round_no * 8 + i) % 512, LockMode.S)
            for txn in txns:
                table.release_all(txn)
        return table.requests

    requests = benchmark(run)
    assert requests == 2_000 * 8


def test_micro_lock_table_contended(benchmark):
    """Conflicting X requests: queueing, blocking, grant cascades."""

    class T:
        pass

    def run():
        table = LockTable()
        granted = 0
        for _ in range(500):
            txns = [T() for _ in range(6)]
            for txn in txns:
                table.request(txn, 0, LockMode.X)   # one page, all fight
            # Release in order; each release grants the next waiter.
            for txn in txns:
                if not table.is_waiting(txn):
                    granted += len(table.release_all(txn))
        return granted

    benchmark(run)


def test_micro_deadlock_search(benchmark):
    """find_cycle on a contended table: a wait chain, an upgrade, one
    real cycle, and start transactions nobody waits on."""

    class T:
        def __init__(self, name):
            self.name = name

        def __repr__(self):
            return self.name

    a, b, c, d, e, f, u, v, w = (T(n) for n in "abcdefuvw")
    table = LockTable()
    S, X = LockMode.S, LockMode.X
    for txn, page, mode in [
            (a, 0, X), (b, 1, X), (b, 11, S), (c, 2, X),
            (e, 3, S), (f, 3, S), (u, 10, X), (v, 11, S), (w, 12, X),
            (b, 0, X),      # chain d -> c -> b -> a, a running
            (c, 1, S),
            (d, 2, X),      # nobody waits on d
            (f, 1, S),      # f waits on b
            (e, 3, X),      # e upgrades and waits on f
            (u, 11, X),     # u waits on b (a dead end), then v
            (v, 12, X),     # v waits on w
            (w, 10, S)]:    # w waits on u: closes w -> u -> v -> w
        table.request(txn, page, mode)

    def run():
        found = None
        for _ in range(500):
            found = find_cycle(table, w)
            for start in (d, e, c, f):
                assert find_cycle(table, start) is None
        return found

    assert benchmark(run) == [w, u, v]


def test_micro_end_to_end_simulation(benchmark):
    """A complete short base-case run (the figure benches' unit cost)."""

    def run():
        params = SimulationParameters(num_terms=100, warmup_time=5.0,
                                      num_batches=2, batch_time=10.0)
        return run_simulation(params, HalfAndHalfController())

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.commits > 0
