"""The commit record's state digest, checked by every replay of the log.

Each committed interval's WAL ``commit`` record carries the SHA-256 of
the snapshot it commits; :func:`repro.service.wal.replay` checks the
state it holds at each commit against it, and crash recovery reports
the verdict on the daemon without refusing.
"""

import os

from repro.core import GroupConfig
from repro.core.server import GroupKeyServer
from repro.keytree.persistence import save_server, server_digest
from repro.service import DaemonConfig, PoissonChurn, RekeyDaemon
from repro.service.wal import encode_record, read_records, replay

MEMBERS = ["m%02d" % i for i in range(12)]


def durable(state_dir, **service):
    return RekeyDaemon.start_new(
        MEMBERS,
        config=GroupConfig(block_size=5, seed=11),
        churn=PoissonChurn(alpha=0.3, min_members=4),
        service=DaemonConfig(state_dir=str(state_dir), **service),
        seed=11,
    )


def recover(state_dir):
    return RekeyDaemon.recover(
        str(state_dir), config=GroupConfig(block_size=5, seed=11), seed=11
    )


def tamper_last_commit(state_dir):
    """Rewrite the last commit record's digest, CRC kept valid."""
    path = os.path.join(str(state_dir), "wal.jsonl")
    records = read_records(path)
    last = max(i for i, r in enumerate(records) if r["op"] == "commit")
    records[last]["digest"] = "0" * 64
    with open(path, "w") as handle:
        handle.writelines(encode_record(r) + "\n" for r in records)


def test_save_server_returns_the_state_digest(tmp_path):
    server = GroupKeyServer(MEMBERS, config=GroupConfig(seed=4))
    server.request_leave("m03")
    server.rekey()
    server.request_join("late")  # pending requests are not state
    digest = save_server(server, str(tmp_path / "server.json"))
    assert digest == server_digest(server)


def test_commit_records_carry_the_snapshot_digest(tmp_path):
    daemon = durable(tmp_path)
    try:
        daemon.run(3)
        commits = [
            r for r in daemon.wal.records() if r["op"] == "commit"
        ]
        assert [r["interval"] for r in commits] == [0, 1, 2]
        assert commits[-1]["digest"] == server_digest(daemon.server)
    finally:
        daemon.close()


def test_recover_verifies_the_loaded_state(tmp_path):
    durable(tmp_path).run(3)
    daemon = recover(tmp_path)
    try:
        assert daemon.digest_ok is True
        assert daemon.metrics.counters["digests_verified"] == 1
        assert daemon.metrics.counters["digest_mismatches"] == 0
        assert daemon.health()["digest_ok"] is True
    finally:
        daemon.close()


def test_tampered_commit_digest_fails_the_recovery_verdict(tmp_path):
    durable(tmp_path).run(3)
    tamper_last_commit(tmp_path)
    daemon = recover(tmp_path)
    try:
        # reported, not refused: the daemon recovered and keeps serving
        assert daemon.digest_ok is False
        assert daemon.metrics.counters["digest_mismatches"] == 1
        assert daemon.health()["digest_ok"] is False
        daemon.run_interval()
    finally:
        daemon.close()


def test_prev_rung_verifies_loaded_state_and_rerun_interval(tmp_path):
    durable(tmp_path, wal_compact_every=0).run(3)
    with open(tmp_path / "server.json", "r+b") as handle:
        handle.write(b"\xff\xfe")
    daemon = recover(tmp_path)
    try:
        # .prev stands at interval 2: commit 1 is checked against it as
        # loaded, commit 2 after replay re-runs interval 2's rekey
        assert daemon.server.intervals_processed == 3
        assert daemon.metrics.counters["snapshot_fallbacks"] == 1
        assert daemon.metrics.counters["digests_verified"] == 2
        assert daemon.digest_ok is True
    finally:
        daemon.close()


def test_replay_reports_each_checked_commit(tmp_path):
    leader = durable(tmp_path, wal_compact_every=0)
    try:
        leader.run(3)
        records = leader.wal.records()
    finally:
        leader.close()
    config = GroupConfig(block_size=5, seed=11)
    _, _, checks = replay(GroupKeyServer(MEMBERS, config=config), records)
    assert checks == [(0, True), (1, True), (2, True)]
    # a log older than commit digests checks nothing
    bare = [{k: v for k, v in r.items() if k != "digest"} for r in records]
    _, _, checks = replay(GroupKeyServer(MEMBERS, config=config), bare)
    assert checks == []
