"""Tests for repro.ha.standby — stream replay, digests, promotion."""

import pytest

from repro.core.config import GroupConfig
from repro.errors import HaError, ReplicationError, StaleEpochError
from repro.ha.digest import server_digest
from repro.ha.lease import Lease
from repro.ha.replication import DirectLink, LeaderPublisher
from repro.ha.standby import StandbyReplica, promote
from repro.service import (
    DaemonConfig,
    RekeyDaemon,
    SessionDelivery,
    PoissonChurn,
)

MEMBERS = ["m%02d" % i for i in range(24)]


@pytest.fixture
def leader(tmp_path):
    config = GroupConfig(block_size=5, seed=3)
    daemon = RekeyDaemon.start_new(
        MEMBERS,
        config=config,
        backend=SessionDelivery(config, seed=4),
        churn=PoissonChurn(alpha=0.3),
        service=DaemonConfig(state_dir=str(tmp_path / "state")),
        seed=3,
        epoch=1,
    )
    publisher = daemon.attach_replication(
        LeaderPublisher(1, wal=daemon.wal)
    )
    yield daemon, publisher, config
    daemon.close()


def follow(daemon, publisher, config):
    link = DirectLink()
    replica = StandbyReplica(config=config)
    publisher.subscribe(link, server=daemon.server)
    replica.apply_frames(link.poll())
    return link, replica


class TestReplay:
    def test_bootstrap_snapshot_matches_leader_digest(self, leader):
        daemon, publisher, config = leader
        # Warm the leader first: the bootstrap must be faithful even
        # after churn has moved u-nodes around (the restore round-trip).
        for _ in range(3):
            daemon.run_interval()
        _, replica = follow(daemon, publisher, config)
        assert server_digest(replica.server) == server_digest(daemon.server)
        assert replica.applied_seq == publisher.last_seq

    def test_streamed_intervals_replay_to_digest_equality(self, leader):
        daemon, publisher, config = leader
        link, replica = follow(daemon, publisher, config)
        for _ in range(4):
            daemon.run_interval()
            replica.apply_frames(link.poll())
        assert replica.digest_ok is True
        assert replica.server.intervals_processed == 4
        assert replica.lag() == 0
        health = replica.health()
        assert health["digest_ok"] is True
        assert health["lag_records"] == 0

    def test_record_before_snapshot_refused(self):
        replica = StandbyReplica()
        with pytest.raises(ReplicationError, match="before the bootstrap"):
            replica.apply({"kind": "record", "record": {"seq": 0}})

    def test_duplicate_records_skipped_gaps_refused(self, leader):
        daemon, publisher, config = leader
        link, replica = follow(daemon, publisher, config)
        daemon.run_interval()
        payloads = link.poll()
        records = [p for p in payloads if p["kind"] == "record"]
        applied = replica.records_applied
        replica.apply_frames(payloads)
        replica.apply(records[0])  # duplicate: harmless no-op
        assert replica.records_applied == applied + len(records)
        gap = dict(records[-1])
        gap_record = dict(gap["record"])
        gap_record["seq"] = replica.applied_seq + 5
        with pytest.raises(ReplicationError, match="resubscribe"):
            replica.apply({"kind": "record", "record": gap_record})

    def test_bootstrap_carries_requests_queued_since_the_commit(
        self, leader
    ):
        """A join queued before ``subscribe`` is not in the snapshot: it
        must reach the replica from the log, or the next interval's
        digest diverges and promotion is refused."""
        daemon, publisher, config = leader
        daemon.run_interval()
        daemon.submit_join("late")
        link, replica = follow(daemon, publisher, config)
        daemon.run_interval()
        replica.apply_frames(link.poll())
        assert replica.digest_ok is True
        assert "late" in replica.server.users
        assert replica.lag() == 0

    def test_unknown_frame_kind_refused(self, leader):
        daemon, publisher, config = leader
        _, replica = follow(daemon, publisher, config)
        with pytest.raises(ReplicationError, match="cannot apply"):
            replica.apply({"kind": "mystery"})

    def test_divergence_is_detected_by_the_digest_frame(self, leader):
        daemon, publisher, config = leader
        link, replica = follow(daemon, publisher, config)
        # Sabotage the shadow: one extra join the leader never saw.
        replica.server.request_join("phantom")
        daemon.run_interval()
        replica.apply_frames(link.poll())
        assert replica.digest_ok is False


class TestPromote:
    def test_promote_refuses_without_bootstrap(self, tmp_path):
        lease = Lease(tmp_path / "lease.json", "standby")
        with pytest.raises(HaError, match="before the bootstrap"):
            promote(StandbyReplica(), str(tmp_path), lease)

    def test_promote_refuses_a_diverged_replica(self, leader, tmp_path):
        daemon, publisher, config = leader
        link, replica = follow(daemon, publisher, config)
        replica.server.request_join("phantom")
        daemon.run_interval()
        replica.apply_frames(link.poll())
        lease = Lease(tmp_path / "state" / "lease.json", "standby")
        with pytest.raises(HaError, match="diverged"):
            promote(replica, str(tmp_path / "state"), lease)

    def test_promotion_fences_the_deposed_leader(self, leader, tmp_path):
        from repro.chaos.seams import FaultyClock

        daemon, publisher, config = leader
        link, replica = follow(daemon, publisher, config)
        for _ in range(2):
            daemon.run_interval()
            replica.apply_frames(link.poll())
        state_dir = str(tmp_path / "state")
        clock = FaultyClock()
        leader_lease = Lease(
            tmp_path / "state" / "lease.json", "leader", clock=clock
        )
        assert leader_lease.acquire() == daemon.epoch == 1
        daemon.wal.fence = leader_lease
        clock.sleep(6.0)  # the leader goes quiet; its lease lapses
        lease = Lease(
            tmp_path / "state" / "lease.json", "standby", clock=clock
        )
        promoted = promote(
            replica,
            state_dir,
            lease,
            backend=SessionDelivery(config, seed=4),
            churn=PoissonChurn(alpha=0.3),
            seed=3,
        )
        try:
            assert promoted.epoch == 2
            # The old leader's next durable write must refuse before a
            # byte lands: its WAL consults the lease as the fence.
            with pytest.raises(StaleEpochError, match="fenced out"):
                daemon.submit_join("intruder")
            assert not any(
                record.get("user") == "intruder"
                for record in daemon.wal.records()
            )
            promoted.run_interval()
            assert promoted.server.intervals_processed == 3
        finally:
            promoted.close()

    def test_lagging_stream_promotes_without_reminting(self, leader, tmp_path):
        """The stream lost interval 2's last join record; the joiner
        already holds the key that interval delivered.  Promotion folds
        in the shared WAL past ``applied_seq``, so the new leader runs
        the same batch and mints no key a non-member holds."""
        daemon, publisher, config = leader
        link, replica = follow(daemon, publisher, config)
        for _ in range(2):
            daemon.run_interval()
            replica.apply_frames(link.poll())
        daemon.run_interval()
        payloads = link.poll()
        joins = [
            index
            for index, payload in enumerate(payloads)
            if payload["kind"] == "record"
            and payload["record"]["op"] == "join"
        ]
        assert joins, "interval 2 must accept a join for the probe"
        replica.apply_frames(payloads[: joins[-1]])
        lost = payloads[joins[-1]]["record"]["user"]
        assert lost in daemon.fleet.members
        held = {
            name: member.group_key.material
            for name, member in daemon.fleet.members.items()
        }
        daemon.close()
        promoted = promote(
            replica,
            str(tmp_path / "state"),
            Lease(tmp_path / "lease.json", "standby"),
            backend=SessionDelivery(config, seed=4),
            fleet=daemon.fleet,
            churn=PoissonChurn(alpha=0.3),
            seed=3,
        )
        try:
            promoted.run_interval()
            key = promoted.server.group_key.material
            outsiders = [
                name
                for name, material in held.items()
                if material == key and name not in promoted.server.users
            ]
            assert outsiders == []
            assert lost in promoted.server.users
            promoted.fleet.check_agreement(promoted.server)
        finally:
            promoted.close()

    def test_promote_refuses_a_damaged_shared_wal(self, leader, tmp_path):
        daemon, publisher, config = leader
        link, replica = follow(daemon, publisher, config)
        daemon.run_interval()
        replica.apply_frames(link.poll())
        daemon.run_interval()  # never streamed
        daemon.close()
        wal_path = tmp_path / "state" / "wal.jsonl"
        lines = wal_path.read_bytes().split(b"\n")
        lines[1] = b"{garbage" + lines[1]
        wal_path.write_bytes(b"\n".join(lines))
        lease = Lease(tmp_path / "lease.json", "standby")
        with pytest.raises(HaError, match="shared WAL is damaged"):
            promote(replica, str(tmp_path / "state"), lease)
