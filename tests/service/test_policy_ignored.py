"""The wire plane cannot defer stragglers, so a configured ``carry``
policy silently degrading would lie to operators.  These tests pin the
honest path: an obs event at the transport, a counter in the daemon's
ledger, and a note in the health probe."""

from repro.core import GroupConfig, GroupKeyServer
from repro.obs import EventBus, Recorder, read_events
from repro.service import (
    DaemonConfig,
    MemberFleet,
    RekeyDaemon,
    make_backend,
)

MEMBERS = ["m%02d" % i for i in range(8)]


def wire_backend(config):
    return make_backend("wire", config, seed=5)


class TestTransport:
    def deliver(self, policy):
        config = GroupConfig(block_size=5, crypto_seed=2)
        server = GroupKeyServer(MEMBERS, config=config)
        fleet = MemberFleet.register_all(server)
        server.request_leave(MEMBERS[0])
        _, message = server.rekey()
        fleet.evict(MEMBERS[0])
        bus = EventBus()
        wire = wire_backend(config)
        wire.set_observer(Recorder(bus=bus))
        try:
            report = wire.deliver(message, fleet, policy=policy)
        finally:
            wire.close()
        return report, bus

    def test_carry_policy_is_reported_ignored(self):
        report, bus = self.deliver("carry")
        assert report.detail["policy_ignored"] is True
        (event,) = bus.of_kind("degradation_policy_ignored")
        assert event["detail"] == {
            "transport": "wire", "policy": "carry", "effective": "unicast"
        }

    def test_unicast_policy_is_silent(self):
        report, bus = self.deliver("unicast")
        assert "policy_ignored" not in report.detail
        assert bus.of_kind("degradation_policy_ignored") == []


class TestDaemonLedger:
    def test_counter_health_note_and_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        config = GroupConfig(block_size=5, crypto_seed=2)
        bus = EventBus(path=str(path))
        backend = wire_backend(config)
        try:
            daemon = RekeyDaemon.start_new(
                MEMBERS,
                config=config,
                backend=backend,
                service=DaemonConfig(deadline_policy="carry"),
                obs=Recorder(bus=bus),
            )
            daemon.submit_leave(MEMBERS[1])
            daemon.run_interval()
        finally:
            backend.close()
            bus.close()
        assert daemon.metrics.counters["policy_ignored"] == 1
        health = daemon.metrics.health()
        assert any(
            "policy was not in force" in note for note in health["notes"]
        )
        kinds = [e["kind"] for e in read_events(str(path))]
        assert "degradation_policy_ignored" in kinds
