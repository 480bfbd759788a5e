"""Tests for repro.service.daemon — soaks, degradation, metrics, threads."""

import copy
import json

import pytest

from repro.core import GroupConfig
from repro.errors import (
    DuplicateUserError,
    KeyTreeError,
    ServiceError,
    UnknownUserError,
)
from repro.keytree.ids import derive_new_user_id
from repro.service import (
    DaemonConfig,
    DirectDelivery,
    NoChurn,
    PoissonChurn,
    RekeyDaemon,
    SessionDelivery,
)
from repro.service.members import MemberFleet
from tests.service.marker_mutants import mutate


def small_config(**overrides):
    defaults = dict(block_size=5, crypto_seed=11, seed=42)
    defaults.update(overrides)
    return GroupConfig(**defaults)


def make_daemon(n=24, backend=None, churn=None, service=None, **config):
    return RekeyDaemon.start_new(
        ["m%02d" % i for i in range(n)],
        config=small_config(**config),
        backend=backend or DirectDelivery(),
        churn=churn,
        service=service,
    )


class TestSoak:
    def test_direct_soak_keeps_invariants(self):
        daemon = make_daemon(churn=PoissonChurn(alpha=0.25))
        records = daemon.run(10)
        assert len(records) == 10
        # check_agreement ran every interval (verify_invariants default);
        # spot-check the end state explicitly too.
        daemon.fleet.check_agreement(daemon.server)
        assert daemon.server.intervals_processed == 10
        assert daemon.fleet.n_members == daemon.server.n_users

    def test_session_soak_keeps_invariants(self):
        config = small_config()
        daemon = make_daemon(
            n=32,
            backend=SessionDelivery(config, seed=5),
            churn=PoissonChurn(alpha=0.25),
        )
        daemon.run(4)
        daemon.fleet.check_agreement(daemon.server)
        assert daemon.metrics.n_intervals == 4

    def test_empty_interval_records_no_delivery(self):
        daemon = make_daemon(churn=NoChurn())
        (record,) = daemon.run(1)
        assert record.decision == "empty"
        assert record.n_enc_packets == 0
        assert daemon.metrics.counters["empty_intervals"] == 1

    def test_message_ids_advance_across_intervals(self):
        daemon = make_daemon(churn=PoissonChurn(alpha=0.3))
        records = daemon.run(3)
        ids = [r.message_id for r in records if r.message_id >= 0]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)


class LoopDifferential(DirectDelivery):
    """Indexed direct delivery checked against the original loop.

    Every live member, and every departed member whose stale ID still
    relocates under this ``maxKID``, is delivered to: the backend keeps
    each member it sees leave the fleet and hands it every later packet,
    as an eavesdropper on the multicast gets them.  Copies of the same
    members go through the members x packets loop the index replaced,
    and both populations must end with identical key states.
    """

    def __init__(self):
        self.uncovered = 0
        self.departed = {}  # name -> the member state it left with
        self._seen = {}

    def watch(self, fleet):
        """Start from ``fleet``'s members, so no departure is missed."""
        self._seen = dict(fleet.members)

    @staticmethod
    def relocatable(member, max_kid):
        try:
            derive_new_user_id(member.user_id, max_kid, member.degree)
        except KeyTreeError:
            return False
        return True

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        self.departed.update(
            (name, member)
            for name, member in self._seen.items()
            if fleet.members.get(name) is not member
        )
        self.watch(fleet)
        population = MemberFleet()
        population.members = {
            name: member
            for name, member in self.departed.items()
            if self.relocatable(member, message.max_kid)
        }
        population.members.update(fleet.members)
        twins = copy.deepcopy(population.members)
        packets = [p for p in message.enc_packets() if not p.is_duplicate]
        for twin in twins.values():
            for packet in packets:
                if twin.process_enc_packet(packet):
                    break
        report = super().deliver(message, population, deadline_rounds, policy)
        for name, member in population.members.items():
            twin = twins[name]
            assert member.user_id == twin.user_id, name
            assert member.path_keys == twin.path_keys, name
            self.uncovered += not any(
                p.covers_user(member.user_id) for p in packets
            )
        return report


class TestDirectDelivery:
    def test_indexed_delivery_matches_the_loop(self):
        backend = LoopDifferential()
        daemon = make_daemon(
            n=40, backend=backend, churn=PoissonChurn(alpha=0.3)
        )
        backend.watch(daemon.fleet)
        daemon.run(8)
        daemon.fleet.check_agreement(daemon.server)
        # Members no packet covers (former members here) still relocate.
        assert backend.uncovered > 0
        assert backend.departed
        assert all(
            member.group_key != daemon.server.group_key
            for member in backend.departed.values()
        )


class TestSubmitApi:
    def test_submit_then_interval(self):
        daemon = make_daemon(churn=NoChurn())
        departing = daemon.fleet.members["m03"]
        daemon.submit_join("newcomer")
        daemon.submit_leave("m03")
        record = daemon.run_interval()
        assert record.n_joins == 1 and record.n_leaves == 1
        assert "newcomer" in daemon.fleet.members
        assert "m03" not in daemon.fleet.members
        assert departing.group_key != daemon.server.group_key
        assert daemon.fleet.ledger.breaches == []
        daemon.fleet.check_agreement(daemon.server)

    def test_submit_validation(self):
        daemon = make_daemon(churn=NoChurn())
        with pytest.raises(DuplicateUserError):
            daemon.submit_join("m01")
        with pytest.raises(UnknownUserError):
            daemon.submit_leave("nobody")

    def test_join_then_leave_cancels(self):
        daemon = make_daemon(churn=NoChurn())
        daemon.submit_join("flicker")
        daemon.submit_leave("flicker")
        record = daemon.run_interval()
        assert record.decision == "empty"
        assert "flicker" not in daemon.fleet.members

    def test_background_thread_with_concurrent_submits(self):
        daemon = make_daemon(n=16, churn=NoChurn())
        daemon.start(n_intervals=6)
        for index in range(5):
            daemon.submit_join("bg-%d" % index)
        daemon.stop()
        assert daemon.crashed is None
        assert daemon.server.intervals_processed >= 1
        # every accepted join eventually materialised as a member
        daemon.run_interval()  # flush any joins accepted after the loop
        for index in range(5):
            assert "bg-%d" % index in daemon.fleet.members
        daemon.fleet.check_agreement(daemon.server)


class TestDegradation:
    @staticmethod
    def lossy_config():
        # One multicast round as the deadline plus painful loss makes
        # the deadline genuinely miss-able for a 32-user group.
        from repro.sim.topology import LossParameters

        return small_config(
            loss=LossParameters(alpha=0.5, p_high=0.5, p_low=0.2)
        )

    def test_unicast_cutover_recorded(self):
        config = self.lossy_config()
        daemon = RekeyDaemon.start_new(
            ["m%02d" % i for i in range(32)],
            config=config,
            backend=SessionDelivery(config, seed=9, adapt_rho=False),
            churn=PoissonChurn(alpha=0.3),
            service=DaemonConfig(deadline_rounds=1),
        )
        records = daemon.run(4)
        decisions = {r.decision for r in records}
        assert "unicast-cutover" in decisions
        cutover = [r for r in records if r.decision == "unicast-cutover"]
        assert all(r.unicast_served > 0 for r in cutover)
        daemon.fleet.check_agreement(daemon.server)

    def test_carry_over_serves_next_interval(self):
        config = self.lossy_config()
        daemon = RekeyDaemon.start_new(
            ["m%02d" % i for i in range(32)],
            config=config,
            backend=SessionDelivery(config, seed=9, adapt_rho=False),
            churn=PoissonChurn(alpha=0.3),
            service=DaemonConfig(
                deadline_rounds=1, deadline_policy="carry"
            ),
        )
        records = daemon.run(5)
        carried = [r for r in records if r.decision == "carry-over"]
        assert carried, "expected at least one carry-over under heavy loss"
        # Somebody who was carried got served at a later interval's start
        # (an evicted carried member is the only exception, and eviction
        # of *every* carried user is vanishingly unlikely here).
        assert any(record.carry_served > 0 for record in records[1:])
        daemon.fleet.check_agreement(
            daemon.server, exclude=daemon.pending_carry_names()
        )


class TestMetricsSurface:
    def test_json_schema(self):
        daemon = make_daemon(churn=PoissonChurn(alpha=0.25))
        daemon.run(3)
        payload = json.loads(daemon.metrics.to_json())
        assert payload["schema"] == 1
        assert len(payload["intervals"]) == 3
        assert len(payload["rho_trajectory"]) == 3
        row = payload["intervals"][0]
        for key in (
            "interval", "n_members", "marking_ms", "n_encryptions",
            "rho", "multicast_rounds", "first_round_nacks",
            "recovery_p50", "recovery_p99", "decision", "group_key_fp",
        ):
            assert key in row

    def test_health_ok_then_degraded(self):
        daemon = make_daemon(churn=PoissonChurn(alpha=0.25))
        daemon.run(3)
        health = daemon.health()
        assert health["status"] == "ok"
        assert health["intervals_processed"] == 3
        assert health["members"] == daemon.server.n_users
        # Fake a bad recent window and watch the probe flip.
        for record in daemon.metrics.intervals:
            record.decision = "unicast-cutover"
        assert daemon.metrics.health()["status"] == "degraded"

    def test_invariant_violation_raises(self):
        daemon = make_daemon(churn=NoChurn())
        daemon.submit_leave("m00")
        # Sabotage: a marker that leaves the evictee's parent key in
        # place; every member still agrees, so only secrecy can fail.
        mutate(daemon.server, "skip")
        with pytest.raises(ServiceError, match="secrecy ledger"):
            daemon.run_interval()
        assert daemon.fleet.out_of_sync(daemon.server) == []
        with pytest.raises(ServiceError):
            daemon.fleet.check_agreement(daemon.server)
