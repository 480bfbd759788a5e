"""MultiGroupDaemon: ticks, isolation, quarantine and recovery."""

import pytest

from repro.chaos.faults import FaultPlan, IoFault
from repro.chaos.seams import FaultyFilesystem
from repro.errors import TenancyError
from repro.service.churn import FlashCrowdChurn, PoissonChurn
from repro.keytree.persistence import server_digest
from repro.service.wal import read_records
from repro.tenancy.daemon import MultiGroupDaemon
from repro.tenancy.registry import TenantRegistry, make_fleet


def _churn(fleet, alpha=0.2):
    return {
        spec.name: PoissonChurn(alpha=alpha) for spec in fleet
    }


def test_needs_a_non_empty_registry(tmp_path):
    with pytest.raises(TenancyError):
        MultiGroupDaemon(TenantRegistry(), tmp_path, daemons={})


def test_fleet_ticks_and_health(tmp_path):
    fleet = make_fleet(6, seed=3)
    daemon = MultiGroupDaemon.start_new(
        fleet, tmp_path, churn=_churn(fleet)
    )
    try:
        plans = daemon.run_ticks(4)
        assert len(plans) == 4
        # tick 0 runs every tenant; later ticks respect cadences
        assert len(plans[0].run) == 6
        health = daemon.health()
        assert health["status"] == "ok"
        assert health["tenants"] == 6
        assert health["intervals_total"] == daemon.intervals_total > 6
        assert daemon.check_agreement() == []
        assert daemon.admission.verify() == []
        # every tenant's last commit record carries its state digest
        for spec in fleet:
            tenant = daemon.tenant(spec.name)
            last = read_records(tenant.wal.path)[-1]
            assert last["op"] == "commit"
            assert last["digest"] == server_digest(tenant.server)
    finally:
        daemon.close()


def test_cadence_spreads_tenant_intervals(tmp_path):
    fleet = make_fleet(4, seed=5, interval_ticks=2)
    daemon = MultiGroupDaemon.start_new(fleet, tmp_path)
    try:
        daemon.run_ticks(4)
        for tenant in daemon.daemons.values():
            # due at ticks 0 and 2 only
            assert tenant.server.intervals_processed == 2
    finally:
        daemon.close()


def test_recover_all_resumes_fleet_and_churn_stream(tmp_path):
    fleet = make_fleet(5, seed=9, interval_ticks=1)
    daemon = MultiGroupDaemon.start_new(
        fleet, tmp_path, churn=_churn(fleet)
    )
    daemon.run_ticks(3)
    keys_before = {
        name: tenant.server.group_key.fingerprint()
        for name, tenant in daemon.daemons.items()
    }
    intervals_before = {
        name: tenant.server.intervals_processed
        for name, tenant in daemon.daemons.items()
    }
    daemon.close()

    # a full continuous run is the churn-replay oracle: recovery must
    # not rewind any tenant's workload stream
    oracle_root = tmp_path / "oracle"
    oracle_fleet = make_fleet(5, seed=9, interval_ticks=1)
    oracle = MultiGroupDaemon.start_new(
        oracle_fleet, oracle_root, churn=_churn(oracle_fleet)
    )
    oracle.run_ticks(6)
    oracle_members = {
        name: set(tenant.server.users)
        for name, tenant in oracle.daemons.items()
    }
    oracle.close()

    recovered = MultiGroupDaemon.recover_all(
        tmp_path, churn=_churn(make_fleet(5, seed=9, interval_ticks=1))
    )
    try:
        for name, tenant in recovered.daemons.items():
            assert tenant.server.intervals_processed == intervals_before[name]
            assert tenant.server.group_key.fingerprint() == keys_before[name]
        recovered.run_ticks(3)
        for name, tenant in recovered.daemons.items():
            assert tenant.server.intervals_processed == 6
            # churn-stream replay: the workload did not rewind, so the
            # membership evolves exactly as in the continuous run (key
            # material may differ; agreement is the key contract)
            assert set(tenant.server.users) == oracle_members[name]
        assert recovered.check_agreement() == []
    finally:
        recovered.close()


def test_wal_failure_quarantines_only_that_tenant(tmp_path):
    fleet = make_fleet(4, seed=13, interval_ticks=1)
    victim = fleet.names[1]
    fault = FaultPlan(
        name="wal-storm",
        seed=13,
        io_faults=(IoFault("wal-write", at=4, times=1 << 20),),
    )
    churn = _churn(fleet, alpha=0.5)
    daemon = MultiGroupDaemon.start_new(
        fleet,
        tmp_path,
        churn=churn,
        fs_overrides={victim: FaultyFilesystem(fault)},
        breaker_cooldown=2,
    )
    try:
        daemon.run_ticks(4)
        assert victim in daemon.quarantined_names()
        assert daemon.breakers[victim].quarantines >= 1
        health = daemon.health()
        assert health["status"] == "degraded"
        # neighbors keep their cadence: every tick ran for them
        for name, tenant in daemon.daemons.items():
            if name != victim:
                assert tenant.server.intervals_processed == 4
        # the victim's refused load is accounted, not lost
        ledger = daemon.admission.ledger(victim)
        assert ledger.offered == (
            ledger.accepted + ledger.shed + ledger.quarantined
        )
        assert ledger.quarantined > 0
    finally:
        daemon.close()


def test_whale_runs_degraded_with_carry(tmp_path):
    fleet = make_fleet(3, seed=21, n_members=8, interval_ticks=1)
    whale = fleet.names[0]
    churn = {whale: FlashCrowdChurn(alpha=0.0, burst_every=1, burst_size=40)}
    daemon = MultiGroupDaemon.start_new(
        fleet, tmp_path, churn=churn, budget=600, solo_fraction=0.05
    )
    try:
        plans = daemon.run_ticks(2)
        assert whale in plans[1].over_budget
        # degradation must not leak: the policy is restored after
        assert daemon.daemons[whale].service.deadline_policy != "carry"
        # the whale's own breaker takes the strike
        assert daemon.breakers[whale].consecutive >= 1 or (
            daemon.breakers[whale].quarantines >= 1
        )
    finally:
        daemon.close()
