"""Bulk failover: one lease, every tenant re-homed, fencing enforced."""

import os

import pytest

from repro.chaos.seams import FaultyClock
from repro.chaos.soak import audit_wal
from repro.errors import HaError, StaleEpochError, TenancyError
from repro.keytree.persistence import server_digest
from repro.service.churn import PoissonChurn
from repro.service.daemon import CrashPlan, DaemonConfig, DaemonCrash
from repro.service.wal import encode_record, read_records
from repro.tenancy.daemon import MultiGroupDaemon, tenant_state_dir
from repro.tenancy.failover import fleet_lease, promote_all
from repro.tenancy.registry import make_fleet

TTL = 60.0


def _churn(fleet, alpha=0.25):
    return {spec.name: PoissonChurn(alpha=alpha) for spec in fleet}


def _boot(tmp_path, clock, count=6, seed=17, service_factory=None):
    fleet = make_fleet(count, seed=seed, interval_ticks=1)
    lease = fleet_lease(tmp_path, "leader-0", ttl=TTL, clock=clock)
    daemon = MultiGroupDaemon.start_new(
        fleet,
        tmp_path,
        churn=_churn(fleet),
        clock=clock,
        lease=lease,
        service_factory=service_factory,
    )
    return daemon


def _wal_path(root, name):
    return os.path.join(tenant_state_dir(root, name), "wal.jsonl")


def test_promote_all_rehomes_every_tenant(tmp_path):
    clock = FaultyClock()
    leader = _boot(tmp_path, clock)
    leader.run_ticks(3)
    before = {
        name: (
            tenant.server.intervals_processed,
            server_digest(tenant.server),
        )
        for name, tenant in leader.daemons.items()
    }
    leader.close()
    clock.sleep(TTL + 1)  # the dead leader's lease expires

    standby, report = promote_all(
        tmp_path,
        "standby-1",
        ttl=TTL,
        churn=_churn(make_fleet(6, seed=17, interval_ticks=1)),
        clock=clock,
    )
    try:
        assert report.ok
        assert report.tenants == 6
        assert report.epoch == 2
        assert report.digests_verified == 6
        assert report.digest_mismatches == []
        for name, tenant in standby.daemons.items():
            interval, digest = before[name]
            assert tenant.server.intervals_processed == interval
            assert server_digest(tenant.server) == digest
        # the promoted fleet keeps serving under the new epoch
        standby.run_ticks(2)
        assert standby.check_agreement() == []
        for tenant in standby.daemons.values():
            assert tenant.epoch == 2
    finally:
        standby.close()


def test_promotion_fences_the_deposed_leader(tmp_path):
    clock = FaultyClock()
    leader = _boot(tmp_path, clock)
    leader.run_ticks(2)
    clock.sleep(TTL + 1)
    standby, report = promote_all(
        tmp_path, "standby-1", ttl=TTL, clock=clock
    )
    try:
        assert report.epoch == 2
        # one acquisition fences every tenant of the old leader: any
        # WAL append it attempts is refused before a byte lands
        name = leader.registry.names[0]
        with pytest.raises(StaleEpochError):
            leader.daemons[name].submit_join("zombie-user")
    finally:
        standby.close()
        leader.close()


def test_promotion_refused_while_lease_live(tmp_path):
    clock = FaultyClock()
    leader = _boot(tmp_path, clock)
    leader.run_ticks(1)
    try:
        with pytest.raises(HaError):
            promote_all(tmp_path, "standby-1", ttl=TTL, clock=clock)
    finally:
        leader.close()


def test_promotion_needs_a_registry(tmp_path):
    with pytest.raises(TenancyError):
        promote_all(tmp_path, "standby-1", ttl=TTL, clock=FaultyClock())


def test_mid_crash_tenant_is_skipped_then_caught_up(tmp_path):
    """A tenant crashed between its snapshot and its commit record has
    no commit at the state it recovers: its check is deferred, not
    failed, and its next interval commits and verifies again."""
    clock = FaultyClock()
    fleet = make_fleet(6, seed=17, interval_ticks=1)
    lagging = fleet.names[2]

    def service_factory(spec):
        if spec.name == lagging:
            return DaemonConfig(
                crash_plan=CrashPlan(interval=2, point="post-snapshot")
            )
        return DaemonConfig()

    leader = _boot(tmp_path, clock, service_factory=service_factory)
    with pytest.raises(DaemonCrash):
        leader.run_ticks(3)
    leader.close()
    clock.sleep(TTL + 1)
    standby, report = promote_all(
        tmp_path, "standby-1", ttl=TTL, churn=_churn(fleet), clock=clock
    )
    try:
        assert report.ok
        assert report.digests_skipped == 1
        assert report.digests_verified == 5
        assert standby.daemons[lagging].digest_ok is None
        standby.run_ticks(1)
        last = read_records(_wal_path(tmp_path, lagging))[-1]
        assert last["op"] == "commit"
        assert last["digest"] == server_digest(
            standby.daemons[lagging].server
        )
    finally:
        standby.close()


def test_tampered_commit_digest_is_a_mismatch(tmp_path):
    clock = FaultyClock()
    leader = _boot(tmp_path, clock)
    leader.run_ticks(3)
    leader.close()
    tampered = leader.registry.names[1]
    path = _wal_path(tmp_path, tampered)
    records = read_records(path)
    assert records[-1]["op"] == "commit"
    records[-1]["digest"] = "0" * 64
    with open(path, "w") as handle:
        handle.writelines(encode_record(r) + "\n" for r in records)
    clock.sleep(TTL + 1)
    standby, report = promote_all(
        tmp_path, "standby-1", ttl=TTL, clock=clock
    )
    try:
        assert not report.ok
        assert report.digest_mismatches == [tampered]
        assert report.digests_verified == 5
    finally:
        standby.close()


def test_committed_intervals_witnesses_every_interval(tmp_path):
    clock = FaultyClock()
    leader = _boot(tmp_path, clock, count=4)
    leader.run_ticks(4)
    processed = {
        name: tenant.server.intervals_processed
        for name, tenant in leader.daemons.items()
    }
    leader.close()
    for name, intervals in processed.items():
        _, nothing_lost, _ = audit_wal(_wal_path(tmp_path, name), intervals)
        assert intervals > 0 and nothing_lost
