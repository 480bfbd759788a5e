"""Tests for repro.service.wal — the daemon's write-ahead log."""

import json

import pytest

from repro.core import GroupConfig
from repro.core.server import GroupKeyServer
from repro.errors import WalError
from repro.service.wal import WriteAheadLog, read_records, replay


def make_log(tmp_path, records=()):
    wal = WriteAheadLog(tmp_path / "wal.jsonl")
    for op, user, interval in records:
        if op == "commit":
            wal.append_commit(interval)
        else:
            wal.append_request(op, user, interval)
    return wal


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        wal = make_log(
            tmp_path,
            [("join", "a", 0), ("leave", "b", 0), ("commit", None, 0)],
        )
        records = wal.records()
        assert [r["op"] for r in records] == ["join", "leave", "commit"]
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert records[0]["user"] == "a"

    def test_reopen_continues_sequence(self, tmp_path):
        wal = make_log(tmp_path, [("join", "a", 0)])
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.jsonl")
        assert reopened.next_seq == 1
        reopened.append_request("leave", "a", 1)
        assert [r["seq"] for r in reopened.records()] == [0, 1]

    def test_bytes_on_disk_after_append(self, tmp_path):
        """The append is durable before it returns (no close needed)."""
        wal = make_log(tmp_path, [("join", "a", 0)])
        on_disk = read_records(tmp_path / "wal.jsonl")
        assert len(on_disk) == 1 and on_disk[0]["user"] == "a"
        wal.close()

    def test_rejects_unknown_op(self, tmp_path):
        wal = make_log(tmp_path)
        with pytest.raises(WalError):
            wal.append("evict", 0, user="x")
        with pytest.raises(WalError):
            wal.append_request("commit", "x", 0)


class TestTornTail:
    def test_torn_last_line_dropped(self, tmp_path):
        wal = make_log(tmp_path, [("join", "a", 0), ("join", "b", 0)])
        wal.close()
        path = tmp_path / "wal.jsonl"
        with open(path, "a") as handle:
            handle.write('{"seq": 2, "op": "leave", "user": "a"')  # torn
        records = read_records(path)
        assert [r["seq"] for r in records] == [0, 1]

    def test_torn_mid_file_is_fatal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with open(path, "w") as handle:
            handle.write('{"seq": 0, "op": "join", "user":\n')  # corrupt
            handle.write(
                '{"seq": 1, "op": "leave", "user": "a", "interval": 0}\n'
            )
        with pytest.raises(WalError):
            read_records(path)

    def test_sequence_gap_is_fatal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with open(path, "w") as handle:
            for seq in (0, 2):
                handle.write(
                    json.dumps(
                        {"seq": seq, "op": "join", "user": "u",
                         "interval": 0}
                    )
                    + "\n"
                )
            handle.write("x\n")  # ensure the gap is not the tail
        with pytest.raises(WalError):
            read_records(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert read_records(tmp_path / "absent.jsonl") == []


def server_at(interval, users=("a", "x")):
    """A key server whose snapshot stands at ``interval``."""
    server = GroupKeyServer(list(users), config=GroupConfig(seed=5))
    server.intervals_processed = interval
    return server


class TestPendingAndCompaction:
    def test_pending_filters_consumed_intervals(self, tmp_path):
        wal = make_log(
            tmp_path,
            [
                ("join", "a", 0),
                ("commit", None, 0),
                ("join", "b", 1),
                ("leave", "a", 1),
            ],
        )
        server = server_at(1)
        assert replay(server, wal.records()) == (2, 0)
        assert server.pending_requests == (["b"], ["a"])
        assert server.intervals_processed == 1
        server = server_at(2)
        assert replay(server, wal.records()) == (0, 0)
        assert server.pending_requests == ([], [])

    def test_commit_reruns_its_interval(self, tmp_path):
        """A commit of the snapshot's interval re-runs that interval's
        rekey as its own batch; the next interval's requests queue."""
        wal = make_log(
            tmp_path,
            [
                ("join", "a", 0),
                ("commit", None, 0),
                ("join", "b", 1),
                ("leave", "a", 1),
            ],
        )
        server = server_at(0, users=("x",))
        assert replay(server, wal.records()) == (3, 0)
        assert server.intervals_processed == 1
        assert server.users == {"a", "x"}
        assert server.pending_requests == (["b"], ["a"])
        writer = server_at(0, users=("x",))
        writer.request_join("a")
        writer.rekey()
        assert server.group_key.material == writer.group_key.material

    def test_a_later_interval_closes_an_uncommitted_one(self, tmp_path):
        """A failed snapshot logs no commit, but the writer rekeyed the
        interval before it logged the next one's requests."""
        wal = make_log(tmp_path, [("join", "a", 0), ("join", "b", 1)])
        server = server_at(0, users=("x",))
        assert replay(server, wal.records()) == (2, 0)
        assert server.intervals_processed == 1
        assert server.users == {"a", "x"}
        assert server.pending_requests == (["b"], [])

    def test_refused_request_is_counted_not_fatal(self, tmp_path):
        wal = make_log(tmp_path, [("leave", "nobody", 0), ("join", "b", 0)])
        server = server_at(0)
        assert replay(server, wal.records()) == (1, 1)
        assert server.pending_requests == (["b"], [])

    def test_unknown_op_refused(self):
        record = {"seq": 0, "op": "evict", "interval": 0, "user": "a"}
        with pytest.raises(WalError):
            replay(server_at(0), [record])

    def test_compact_preserves_replay_set(self, tmp_path):
        wal = make_log(
            tmp_path,
            [
                ("join", "a", 0),
                ("commit", None, 0),
                ("join", "b", 1),
            ],
        )
        before = server_at(1)
        replay(before, wal.records())
        dropped = wal.compact(before_interval=1)
        assert dropped == 2
        after = server_at(1)
        replay(after, wal.records())
        assert after.pending_requests == before.pending_requests == (
            ["b"], []
        )
        # appends still work after compaction, sequence unbroken
        wal.append_request("leave", "b", 1)
        seqs = [r["seq"] for r in wal.records()]
        assert seqs == sorted(seqs)
