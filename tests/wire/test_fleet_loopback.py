"""End-to-end wire-plane tests over real loopback UDP.

The pinned digest is the determinism acceptance: the smoke plan at
seed 7 must replay the exact same canonical interval records on every
machine — rounds, NACK counts, parity shortfalls, per-member recovery
rounds — however the event loop schedules the sockets.  If a deliberate
protocol change shifts the records, re-pin after inspecting the diff;
an *unexplained* digest change means wall-clock timing leaked into the
protocol input.
"""

import io
import math
import socket
import time

import pytest

from repro.chaos.soak import run_soak, soak_family
from repro.cli import main
from repro.core.config import GroupConfig
from repro.obs.events import read_events
from repro.rekey.packets import NackPacket, NackRequest
from repro.service.transports import make_backend
from repro.wire.codec import (
    PACKET_SIZE_CEILING,
    Feedback,
    encode_feedback,
    encode_shard_feedback,
)
from repro.wire.delivery import WireDelivery

#: sha256 of the canonical interval records for (smoke, seed=7).
SMOKE_SEED7_DIGEST = (
    "fd1662c94da939c26609b9ac90930b865423f08c7e4699348b6a8662d75e186f"
)
#: (sharded, seed=5, 12 clients, 2 intervals) — worker-side shards.
SHARDED_SEED5_DIGEST = (
    "1bf3d40541c4622ff9431e0c77e8d5c325fae820c7541a74beaa50e2366abbd6"
)
#: (standard, seed=7): 512 clients behind one shard, so one datagram
#: feeds hundreds of member state machines.
STANDARD_SEED7_DIGEST = (
    "653c63c11b15e817cbb62d49a3173a25bd3e4f53f02c5363f6377923b80ffa29"
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def observed_fleet(tmp_path_factory, plan, **kwargs):
    """``(result, wire_delivery_complete details)`` of one fleet run;
    each detail also lists the interval's window ``tries`` (announce,
    rounds, unicast acks owed), from the server's own events."""
    path = tmp_path_factory.mktemp("fleet") / "events.jsonl"
    result = run_soak("fleet", plan, obs_path=str(path), **kwargs)
    completes, tries = [], []
    for event in read_events(str(path)):
        kind, detail = event["kind"], event["detail"]
        if kind == "wire_announce":
            tries.append({"announce": 1 + detail["retries"], "rounds": []})
        elif kind == "wire_nack_window":
            tries[-1]["rounds"].append(1 + detail["retries"])
        elif kind == "wire_unicast":
            tries[-1]["unicast"] = detail["users"] * (1 + detail["retries"])
        elif kind == "wire_delivery_complete":
            completes.append(dict(detail, tries=tries[-1]))
    return result, completes


def worst_table_datagrams(members, blocks):
    """Datagrams one shard's FEEDBACK table may take: every member's
    entry with a NACK naming every block, packed by the codec."""
    nack = NackPacket(
        rekey_message_id=1,
        user_id=1,
        requests=tuple(NackRequest(b, 1) for b in range(blocks)),
    )
    table = encode_shard_feedback(
        [
            encode_feedback(
                Feedback(i, i, False, 0, 0, "00" * 6, 0.0, nack=nack)
            )
            for i in range(members)
        ]
    )
    return math.ceil(sum(map(len, table)) / PACKET_SIZE_CEILING)


def assert_data_once_per_shard(result, completes, shards):
    """Each interval's DATA datagrams = DATA slots sent x shards."""
    assert len(completes) == len(result.records)
    for record, complete in zip(result.records, completes):
        slots = sum(record["packets_per_round"])
        assert slots > 0
        assert complete["data_datagrams"] == slots * shards


@pytest.fixture(scope="module")
def smoke7(tmp_path_factory):
    return observed_fleet(tmp_path_factory, "smoke", seed=7)


@pytest.fixture(scope="module")
def sharded5(tmp_path_factory):
    return observed_fleet(
        tmp_path_factory, "sharded", seed=5, clients=12, intervals=2
    )


class TestSmokeFleet:
    def test_all_invariants_green_and_digest_pinned(self, smoke7):
        result, _ = smoke7
        assert result.failure is None, result.failure
        assert result.ok, result.to_dict()
        assert result.intervals_completed == 3
        assert result.digest == SMOKE_SEED7_DIGEST
        # Every interval must have been carried by the wire: a record
        # per interval, every served member reporting its recovery.
        assert len(result.records) == 3
        for record in result.records:
            assert record["served"] == len(record["recovery_rounds"])
            assert record["rounds"] >= 1
        # Recovery latencies come from wire events, split by cohort.
        assert set(result.cohorts) == {"high", "low"}
        for stats in result.cohorts.values():
            assert stats["reports"] > 0
            assert stats["recovery_ms"]["p99"] >= stats["recovery_ms"]["p50"]
            assert stats["recovery_ms"]["p50"] > 0.0

    def test_loss_actually_bites(self, smoke7):
        result, _ = smoke7
        assert sum(record["dropped"] for record in result.records) > 0

    def test_data_sent_once_per_shard(self, smoke7):
        # In-process: one receiver shard, so one datagram per DATA slot
        # however many members are served.
        assert_data_once_per_shard(*smoke7, shards=1)

    def test_feedback_is_a_table_per_shard_per_round(self, smoke7):
        """The server hears one FEEDBACK table per window try from the
        one shard — not one datagram per member — plus the unicast
        stragglers' own acks."""
        result, completes = smoke7
        per_try = worst_table_datagrams(
            result.clients, max(r["packets_per_round"][0] for r in result.records)
        )
        assert per_try < result.clients
        for record, complete in zip(result.records, completes):
            tries = complete["tries"]
            assert len(tries["rounds"]) == record["rounds"]
            windows = tries["announce"] + sum(tries["rounds"])
            bound = windows * per_try + tries.get("unicast", 0)
            assert 1 + record["rounds"] <= complete["feedback_datagrams"]
            assert complete["feedback_datagrams"] <= bound

    def test_no_kernel_dropped_data(self, smoke7):
        _, completes = smoke7
        assert [c["data_gaps"] for c in completes] == [0, 0, 0]


class TestScale:
    def test_standard_plan_digest_pinned(self):
        result = run_soak("fleet", "standard", seed=7)
        assert result.failure is None, result.failure
        assert result.ok, result.to_dict()
        assert result.digest == STANDARD_SEED7_DIGEST


class TestDeterminism:
    def test_same_seed_same_digest(self):
        first = run_soak("fleet", "smoke", seed=11, clients=16, intervals=2)
        second = run_soak("fleet", "smoke", seed=11, clients=16, intervals=2)
        assert first.ok and second.ok
        assert first.records == second.records
        assert first.digest == second.digest

    def test_different_seed_different_digest(self):
        first = run_soak("fleet", "smoke", seed=11, clients=16, intervals=2)
        second = run_soak("fleet", "smoke", seed=12, clients=16, intervals=2)
        assert first.digest != second.digest


class TestWorkerMode:
    def test_sharded_fleet_agrees(self, sharded5):
        result, completes = sharded5
        assert result.failure is None, result.failure
        assert result.ok, result.to_dict()
        assert result.workers == 2
        assert result.digest == SHARDED_SEED5_DIGEST
        assert [c["data_gaps"] for c in completes] == [0, 0]

    def test_worker_digest_matches_in_process(self, sharded5):
        # Process placement must be invisible to the protocol: the same
        # (seed, clients, intervals) digests identically with clients
        # in-process and sharded over workers.
        sharded, _ = sharded5
        local = run_soak("fleet", "sharded", seed=5, clients=12,
                         intervals=2, workers=0)
        assert sharded.ok and local.ok
        assert sharded.digest == local.digest

    def test_data_sent_once_per_worker_shard(self, sharded5):
        assert_data_once_per_shard(*sharded5, shards=2)


class TestHeavyLoss:
    """Force the NACK/extra-round/unicast paths with a brutal link."""

    def deliver_once(self, p, deadline_rounds, seed=2):
        from repro.core.server import GroupKeyServer
        from repro.service.members import MemberFleet
        from repro.sim.topology import LossParameters

        config = GroupConfig(
            block_size=5,
            seed=seed,
            nack_window_seconds=0.2,
            # Bernoulli rather than bursty: the Markov chain needs many
            # slots to mix, and this message is only a few slots long.
            loss=LossParameters(
                alpha=1.0, p_high=p, p_low=p, p_source=0.0, bursty=False
            ),
        )
        server = GroupKeyServer(
            ["m%02d" % i for i in range(12)], config=config
        )
        fleet = MemberFleet.register_all(server)
        leaver = sorted(server.users)[0]
        server.request_leave(leaver)
        fleet.evict(leaver)
        _, message = server.rekey()
        with WireDelivery(config, seed=seed + 1) as backend:
            report = backend.deliver(
                message, fleet, deadline_rounds=deadline_rounds
            )
        fleet.check_agreement(server)
        return report

    def test_nacks_and_extra_rounds(self):
        # At this (p, seed) two members lose all of round 1 and recover
        # from round-4 parity — deterministic, checked by scan.
        report = self.deliver_once(p=0.8, deadline_rounds=8, seed=3)
        assert report.first_round_nacks > 0
        assert report.multicast_rounds >= 2
        assert report.unicast_served == 0
        assert all(r > 0 for r in report.recovery_rounds)
        assert max(report.recovery_rounds) >= 2

    def test_unicast_cutover_at_the_deadline(self):
        report = self.deliver_once(p=0.9, deadline_rounds=2, seed=2)
        assert report.unicast_served > 0
        assert report.decision == "unicast-cutover"
        # Unicast recoveries report round 0 by convention.
        assert any(r == 0 for r in report.recovery_rounds)


class TestMalformedFeedback:
    def test_zero_parity_nack_counted_and_interval_completes(self):
        """Any sender can reach the server's port: a FEEDBACK whose NACK
        tail asks for 0 parity packets must be counted as a decode error,
        not recorded as a failure that sinks the next interval."""
        from repro.core.server import GroupKeyServer
        from repro.rekey.packets import NackPacket, NackRequest
        from repro.service.members import MemberFleet
        from repro.wire.codec import Feedback, FrameKind, encode_feedback
        from repro.wire.codec import encode_frame

        config = GroupConfig(block_size=5, seed=4, nack_window_seconds=0.2)
        server = GroupKeyServer(
            ["m%02d" % i for i in range(8)], config=config
        )
        fleet = MemberFleet.register_all(server)
        nack = NackPacket(
            rekey_message_id=1, user_id=7, requests=(NackRequest(0, 1),)
        ).encode()
        feedback = encode_feedback(
            Feedback(
                member_index=0,
                user_id=7,
                done=False,
                recovery_round=0,
                dropped=0,
                fingerprint="00" * 6,
                latency_ms=0.0,
            )
        )
        datagram = encode_frame(
            FrameKind.FEEDBACK,
            1,
            round_no=1,
            payload=feedback + nack[:4] + b"\x00" + nack[5:],
        )

        def rekey_out(leaver):
            server.request_leave(leaver)
            fleet.evict(leaver)
            return server.rekey()[1]

        with WireDelivery(config, seed=5) as backend:
            backend.deliver(rekey_out("m00"), fleet)
            wire_server = backend.server
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as rogue:
                rogue.sendto(datagram, tuple(wire_server.address))
            deadline = time.monotonic() + 5.0
            while not (wire_server.decode_errors or wire_server.errors):
                assert time.monotonic() < deadline, "datagram never seen"
                time.sleep(0.01)
            backend.deliver(rekey_out("m01"), fleet)
            fleet.check_agreement(server)
            assert wire_server.decode_errors == 1
            assert wire_server.errors == []


#: the fleet family's plans, as plain wire plans
FLEET_PLANS = {
    name: entry.spec for name, entry in soak_family("fleet").plans.items()
}


class TestPlans:
    def test_catalog(self):
        assert set(FLEET_PLANS) == {"smoke", "standard", "surge", "sharded"}
        assert FLEET_PLANS["standard"].clients == 512
        assert FLEET_PLANS["surge"].clients == 1024
        assert FLEET_PLANS["sharded"].workers == 2

    def test_fleet_plans_are_fault_free_wire_plans(self):
        for plan in FLEET_PLANS.values():
            assert not plan.faults.any_enabled
            assert plan.crashes == () and plan.leader_kill_interval == 0

    def test_resolve_overrides(self):
        result = run_soak(
            "fleet", "smoke", seed=3, clients=8, intervals=1, workers=3
        )
        assert result.ok, result.to_dict()
        assert (
            result.clients, result.intervals_target, result.workers
        ) == (8, 1, 3)

    def test_unknown_plan_refused(self):
        from repro.errors import ChaosError

        with pytest.raises(ChaosError):
            run_soak("fleet", "nope")


class TestBackendFactory:
    def test_make_backend_wire(self):
        backend = make_backend("wire", GroupConfig(block_size=5), seed=3)
        assert isinstance(backend, WireDelivery)
        backend.close()  # never started: close must be a no-op

    def test_close_is_idempotent(self):
        backend = WireDelivery(GroupConfig(block_size=5), seed=3)
        backend.close()
        backend.close()


class TestCli:
    def test_list_plans(self):
        code, output = run_cli("fleet", "--list-plans")
        assert code == 0
        for name in FLEET_PLANS:
            assert name in output

    def test_tiny_fleet_run(self):
        code, output = run_cli(
            "fleet", "--clients", "8", "--intervals", "1", "--seed", "3"
        )
        assert code == 0, output
        assert "all invariants green" in output
        assert "fleet digest:" in output

    def test_interval_with_nothing_to_rekey_is_green(self):
        """One client and no churn: the interval's message is empty, so
        the wire carries nothing and leaves no backend record."""
        code, output = run_cli("fleet", "--clients", "1", "--intervals", "1")
        assert code == 0, output
        assert "all invariants green" in output

    def test_digest_mismatch_exits_3(self):
        code, output = run_cli(
            "fleet", "--clients", "8", "--intervals", "1", "--seed", "3",
            "--expect-digest", "f" * 64,
        )
        assert code == 3
        assert "digest mismatch" in output

    def test_unknown_plan_exits_2(self):
        code, output = run_cli("fleet", "--plan", "nope")
        assert code == 2
        assert "error:" in output

    def test_serve_with_wire_transport(self):
        code, output = run_cli(
            "serve",
            "--transport", "wire",
            "--members", "12",
            "--intervals", "2",
            "--seed", "3",
        )
        assert code == 0, output
        assert "wire transport" in output
        assert "health: ok" in output
