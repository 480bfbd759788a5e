"""Tests for repro.obs.events — registry, bus, JSONL round-trip."""

import json

import pytest

from repro.errors import ObsError
from repro.obs import (
    EventBus,
    SCHEMA_VERSION,
    is_registered,
    read_events,
    register_event_kind,
    registered_kinds,
    validate_jsonl,
    validate_record,
)
from repro.obs.events import SERVICE_EVENT_KINDS, SESSION_EVENT_KINDS


class TestRegistry:
    def test_session_kinds_registered(self):
        for kind in SESSION_EVENT_KINDS:
            assert is_registered(kind)

    def test_service_kinds_registered(self):
        for kind in SERVICE_EVENT_KINDS:
            assert is_registered(kind)

    def test_register_new_kind(self):
        assert not is_registered("custom_probe")
        assert register_event_kind("custom_probe") == "custom_probe"
        assert is_registered("custom_probe")
        assert "custom_probe" in registered_kinds()

    def test_register_is_idempotent(self):
        register_event_kind("idempotent_kind")
        register_event_kind("idempotent_kind")
        assert registered_kinds().count("idempotent_kind") == 1

    def test_register_rejects_non_string(self):
        with pytest.raises(ObsError):
            register_event_kind("")
        with pytest.raises(ObsError):
            register_event_kind(42)


class TestEventBus:
    def test_emit_returns_envelope(self):
        bus = EventBus(clock=lambda: 123.5)
        record = bus.emit("snapshot", path="x.json")
        assert record == {
            "v": SCHEMA_VERSION,
            "t": 123.5,
            "kind": "snapshot",
            "detail": {"path": "x.json"},
        }
        assert len(bus) == 1

    def test_unregistered_kind_raises(self):
        with pytest.raises(ObsError, match="unregistered"):
            EventBus().emit("definitely_not_a_kind")

    def test_context_merges_into_detail(self):
        bus = EventBus()
        bus.set_context(interval=3)
        record = bus.emit("wal_append", op="join")
        assert record["detail"] == {"interval": 3, "op": "join"}

    def test_explicit_detail_overrides_context(self):
        bus = EventBus()
        bus.set_context(interval=3)
        record = bus.emit("wal_append", interval=9)
        assert record["detail"]["interval"] == 9

    def test_context_none_deletes(self):
        bus = EventBus()
        bus.set_context(interval=3)
        bus.set_context(interval=None)
        assert bus.emit("snapshot")["detail"] == {}

    def test_of_kind(self):
        bus = EventBus()
        bus.emit("snapshot")
        bus.emit("wal_compact", through_interval=4)
        assert len(bus.of_kind("snapshot")) == 1
        assert len(bus.of_kind("wal_compact")) == 1
        assert bus.of_kind("crash") == []

    def test_memory_bound(self):
        bus = EventBus(keep=5)
        for index in range(12):
            bus.emit("snapshot", index=index)
        assert len(bus) == 5
        assert bus.events[-1]["detail"]["index"] == 11

    def test_ring_counts_what_it_drops(self):
        bus = EventBus(keep=5)
        for index in range(5):
            bus.emit("snapshot", index=index)
        assert bus.dropped == 0
        for index in range(5, 12):
            bus.emit("snapshot", index=index)
        assert bus.dropped == 7
        assert bus.events[0]["detail"]["index"] == bus.dropped

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventBus(path=str(path)) as bus:
            bus.emit("interval_start", members=16)
            bus.emit("interval_complete", interval=0, rho=1.0)
        records = read_events(str(path))
        assert [r["kind"] for r in records] == [
            "interval_start",
            "interval_complete",
        ]
        assert records[1]["detail"]["rho"] == 1.0

    def test_validate_jsonl_counts(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventBus(path=str(path)) as bus:
            for _ in range(3):
                bus.emit("snapshot")
        assert validate_jsonl(str(path)) == 3


class TestValidation:
    def good(self, **overrides):
        record = {
            "v": SCHEMA_VERSION,
            "t": 1.0,
            "kind": "snapshot",
            "detail": {},
        }
        record.update(overrides)
        return record

    def test_good_record_passes(self):
        assert validate_record(self.good()) is not None

    def test_wrong_version_rejected(self):
        with pytest.raises(ObsError, match="version"):
            validate_record(self.good(v=99))

    def test_missing_kind_rejected(self):
        with pytest.raises(ObsError, match="kind"):
            validate_record(self.good(kind=""))

    def test_bad_time_rejected(self):
        with pytest.raises(ObsError, match="time"):
            validate_record(self.good(t="yesterday"))

    def test_bad_detail_rejected(self):
        with pytest.raises(ObsError, match="detail"):
            validate_record(self.good(detail=[1, 2]))

    def test_unknown_kind_tolerated_by_default(self):
        # Readers must accept kinds newer than themselves.
        validate_record(self.good(kind="from_the_future"))

    def test_unknown_kind_rejected_when_strict(self):
        with pytest.raises(ObsError, match="unregistered"):
            validate_record(
                self.good(kind="from_the_future"), strict_kinds=True
            )

    def test_validate_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ObsError, match="bad.jsonl:1"):
            validate_jsonl(str(path))

    def test_validate_jsonl_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(self.good()) + "\n" + json.dumps({"v": 99}) + "\n"
        )
        with pytest.raises(ObsError, match="bad.jsonl:2"):
            validate_jsonl(str(path))
