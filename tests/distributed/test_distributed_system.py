"""Integration tests for the distributed DBMS model."""

from __future__ import annotations

import pytest

from repro.dbms.transaction import Transaction
from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import (
    PerSiteControllerSet,
    make_half_and_half_sites,
    make_no_control_sites,
)
from repro.distributed.runner import run_distributed_simulation
from repro.distributed.system import DistributedSystem
from repro.errors import ConfigurationError
from repro.lockmgr.modes import LockMode
from repro.lockmgr.prevention import DeadlockStrategy


def _params(**overrides):
    defaults = dict(num_sites=3, num_terms=30, db_size=300,
                    warmup_time=3.0, num_batches=2, batch_time=8.0)
    defaults.update(overrides)
    return DistributedParameters(**defaults)


def _run_system(params, controllers, **kwargs):
    system = DistributedSystem(params=params, controllers=controllers,
                               **kwargs)
    system.start()
    system.sim.run(until=params.total_time)
    return system


def test_controller_count_must_match_sites():
    with pytest.raises(ConfigurationError):
        DistributedSystem(params=_params(num_sites=3),
                          controllers=make_no_control_sites(2))


def test_basic_run_commits(capfd):
    system = _run_system(_params(), make_no_control_sites(3))
    assert system.collector.commits > 0
    system.check_invariants()


def test_remote_accesses_happen():
    system = _run_system(_params(locality=0.3), make_no_control_sites(3))
    assert system.remote_accesses > 0
    assert system.local_accesses > 0
    assert 0.4 < system.remote_fraction() < 0.95


def test_full_locality_means_no_remote_accesses():
    system = _run_system(_params(locality=1.0), make_no_control_sites(3))
    assert system.remote_accesses == 0


def test_single_site_degenerates_to_centralized_shape():
    """One site with zero delay should behave like the central model."""
    params = _params(num_sites=1, msg_delay=0.0, locality=1.0)
    system = _run_system(params, make_no_control_sites(1))
    assert system.collector.commits > 0
    assert system.remote_accesses == 0


def test_conservation_and_invariants():
    system = _run_system(_params(num_terms=40, db_size=150),
                         make_half_and_half_sites(3))
    system.check_invariants()
    queued = sum(len(v.ready_queue) for v in system.site_views)
    accounted = (system.collector.commits
                 + system.tracker.n_active + queued)
    assert accounted <= system.total_generated
    assert (system.total_generated - system.collector.commits
            <= system.params.num_terms)


def test_determinism_by_seed():
    runs = []
    for _ in range(2):
        r = run_distributed_simulation(_params(),
                                       make_no_control_sites(3))
        runs.append((r.commits, r.aborts, r.page_throughput.mean))
    assert runs[0] == runs[1]


def test_distributed_deadlocks_detected_and_resolved():
    """Cross-site deadlocks must be found by the global detector."""
    params = _params(num_terms=30, db_size=60, tran_size=6,
                     write_prob=0.8, locality=0.3)
    system = _run_system(params, make_no_control_sites(3))
    assert system.collector.aborts_by_reason.get("deadlock", 0) > 0
    assert system.collector.commits > 0


@pytest.mark.parametrize("strategy", [DeadlockStrategy.WAIT_DIE,
                                      DeadlockStrategy.WOUND_WAIT])
def test_prevention_strategies_work_across_sites(strategy):
    params = _params(num_terms=30, db_size=60, tran_size=6,
                     write_prob=0.8, locality=0.3)
    result = run_distributed_simulation(
        params, make_no_control_sites(3), deadlock_strategy=strategy)
    assert result.aborts_by_reason.get("deadlock", 0) == 0
    assert result.aborts_by_reason.get(strategy.value, 0) > 0
    assert result.commits > 0


def test_per_site_half_and_half_prevents_thrashing():
    """The headline claim of the extension: per-site load control holds
    throughput at heavy load while no-control collapses."""
    params = _params(num_sites=4, num_terms=200, db_size=1000,
                     warmup_time=10.0, num_batches=3, batch_time=20.0)
    raw = run_distributed_simulation(params, make_no_control_sites(4))
    hh = run_distributed_simulation(params, make_half_and_half_sites(4))
    assert hh.page_throughput.mean > 1.5 * raw.page_throughput.mean
    assert hh.avg_mpl < raw.avg_mpl


def test_msg_delay_slows_remote_work():
    fast = run_distributed_simulation(
        _params(msg_delay=0.0, locality=0.2), make_no_control_sites(3))
    slow = run_distributed_simulation(
        _params(msg_delay=0.02, locality=0.2), make_no_control_sites(3))
    assert slow.page_throughput.mean < fast.page_throughput.mean


def test_two_phase_commit_adds_latency():
    with_2pc = run_distributed_simulation(
        _params(two_phase_commit=True, msg_delay=0.01, locality=0.2,
                num_terms=10),
        make_no_control_sites(3))
    without = run_distributed_simulation(
        _params(two_phase_commit=False, msg_delay=0.01, locality=0.2,
                num_terms=10),
        make_no_control_sites(3))
    assert with_2pc.avg_response_time > without.avg_response_time


def test_per_class_stats_track_sites():
    result = run_distributed_simulation(_params(),
                                        make_no_control_sites(3))
    # Every site's class shows up with commits.
    assert {"site0", "site1", "site2"} <= set(result.per_class)


def test_start_twice_rejected():
    system = DistributedSystem(params=_params(),
                               controllers=make_no_control_sites(3))
    system.start()
    with pytest.raises(Exception):
        system.start()


def test_site_stats_reporting():
    system = _run_system(_params(locality=0.5), make_no_control_sites(3))
    stats = system.site_stats()
    assert len(stats) == 3
    for entry in stats:
        assert 0.0 <= entry["cpu_utilization"] <= 1.0
        assert 0.0 <= entry["disk_utilization"] <= 1.0
        assert entry["lock_requests"] > 0
    # Uniform remote access spreads lock traffic over all sites.
    assert all(e["lock_requests"] > 0 for e in stats)


def test_remote_work_lands_on_owning_sites():
    """With zero locality, home sites still issue work but the pages
    live elsewhere: every site's disks see traffic."""
    system = _run_system(_params(locality=0.0), make_no_control_sites(3))
    for entry in system.site_stats():
        assert entry["disk_utilization"] > 0.0


def _two_site_system(*plans):
    """A 2-site system (pages 0-49 at site 0, 50-99 at site 1) with one
    admitted transaction per ``(timestamp, home site)``, not started:
    tests drive the lock path by hand."""
    system = DistributedSystem(
        params=_params(num_sites=2, num_terms=2, db_size=100),
        controllers=make_no_control_sites(2))
    txns = []
    for txn_id, (timestamp, home) in enumerate(plans):
        txn = Transaction(txn_id, home, timestamp, [], set())
        system._home[txn] = home
        system._admit(txn)
        txns.append(txn)
    return system, txns


@pytest.mark.parametrize("closer", ["older", "younger"])
def test_two_site_deadlock_detected_youngest_victim(closer):
    """A holds page 0 at site 0 and waits at site 1; B the reverse.

    Whichever request closes the cycle, detection on the global lock
    view finds it and aborts the youngest transaction, B.  When A
    closes it, A waits at site 1 with nobody behind it there: only
    site 0's table sees B waiting on A.
    """
    system, (a, b) = _two_site_system((1.0, 0), (2.0, 1))
    system._request_lock_at(a, 0, 0, False)     # A: S on page 0
    system._request_lock_at(b, 50, 1, False)    # B: S on page 50
    if closer == "older":
        system._request_lock_at(b, 0, 0, True)      # B waits on A
        assert system.global_locks.is_waiting(b)
        system._request_lock_at(a, 50, 1, True)     # A waits on B
    else:
        system._request_lock_at(a, 50, 1, True)     # A waits on B
        assert system.global_locks.is_waiting(a)
        system._request_lock_at(b, 0, 0, True)      # B waits on A
    assert system.collector.aborts_by_reason == {"deadlock": 1}
    assert not system.tracker.is_active(b)
    assert system.tracker.is_active(a)
    assert not system.global_locks.is_waiting(a)
    assert system.sites[1].lock_table.holds(a, 50, LockMode.X)


def test_global_pre_filter_asks_every_site():
    """A waits at site 1 with nobody behind it there, but B waits at
    site 0 on A's page: only site 0's table sees the in-edge."""
    system, (a, b, c) = _two_site_system((1.0, 0), (2.0, 1), (3.0, 1))
    system._request_lock_at(a, 0, 0, False)     # A: S on page 0
    system._request_lock_at(c, 50, 1, False)    # C: S on page 50
    system._request_lock_at(a, 50, 1, True)     # A waits at site 1 on C
    assert not system.global_locks.may_be_waited_on(a)
    system._request_lock_at(b, 0, 0, True)      # B waits at site 0 on A
    assert not system.sites[1].lock_table.may_be_waited_on(a)
    assert system.global_locks.may_be_waited_on(a)
    assert system.global_locks.blocking_order(b) == [a]
