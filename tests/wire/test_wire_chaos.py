"""Wire-chaos soak tests: small soaks, pinned digests, CLI.

The full pinned-digest plans also run in CI (the smoke job); here
the wire family is exercised at test size — determinism across runs,
the crash→evict→carry flow, and a live-fleet failover.  The timeline
canonicalisation rules the digests stand on are tested with the
harness's projection in tests/chaos/test_soak.py.
"""

import io

import pytest

from repro.chaos.soak import run_soak
from repro.chaos.wire_faults import (
    ClientCrash,
    WireChaosPlan,
    WireFaultParams,
)
from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestDatagramStormSmall:
    def run_small(self, seed=7):
        return run_soak(
            "wire", "datagram-storm", seed=seed, clients=8, intervals=2
        )

    def test_invariants_green(self):
        result = self.run_small()
        assert result.failure is None, result.failure
        assert result.ok, result.to_dict()
        assert result.intervals_completed == 2
        assert not result.evictions  # faults degrade, they never kill
        assert sum(result.faults_applied.values()) > 0

    def test_same_seed_same_digest(self):
        first = self.run_small(seed=11)
        second = self.run_small(seed=11)
        assert first.ok and second.ok
        assert first.digest == second.digest
        assert first.timeline == second.timeline

    def test_different_seed_different_digest(self):
        assert self.run_small(seed=11).digest != self.run_small(
            seed=12
        ).digest


class TestClientCrashSmall:
    PLAN = WireChaosPlan(
        name="crash-small",
        clients=8,
        intervals=4,
        workers=0,
        churn_alpha_join=0.2,
        churn_alpha_leave=0.0,
        block_size=5,
        nack_window_seconds=0.1,
        faults=WireFaultParams(),
        crashes=(ClientCrash(member=2, interval=2, round_no=1),),
        liveness_tries=15,
        description="one scripted death at test size",
    )

    def test_crashed_client_is_evicted_and_carried(self):
        result = run_soak("wire", self.PLAN, seed=7)
        assert result.failure is None, result.failure
        assert result.ok, result.to_dict()
        assert result.evictions == 1
        assert result.crashes_scheduled == 1
        kinds = [entry["kind"] for entry in result.timeline]
        assert "wire_client_crashed" in kinds
        assert "wire_client_evicted" in kinds

    def test_digest_stable(self):
        first = run_soak("wire", self.PLAN, seed=7)
        second = run_soak("wire", self.PLAN, seed=7)
        assert first.ok and second.ok
        assert first.digest == second.digest


class TestLeaderKillSmall:
    PLAN = WireChaosPlan(
        name="leader-kill-small",
        clients=8,
        intervals=4,
        workers=1,
        churn_alpha_join=0.1,
        churn_alpha_leave=0.0,
        block_size=5,
        nack_window_seconds=0.15,
        faults=WireFaultParams(),
        crashes=(),
        leader_kill_interval=2,
        resync_timeout=0.5,
        description="live-fleet failover at test size",
    )

    def test_fleet_rehomes_to_promoted_leader(self):
        result = run_soak("wire", self.PLAN, seed=7)
        assert result.failure is None, result.failure
        assert result.ok, result.to_dict()
        assert result.promotions == 1
        assert result.final_epoch == 2  # node-a minted 1, node-b 2
        assert result.rehomes > 0
        assert result.invariants["no-interval-lost"]
        assert result.invariants["wal-epochs-monotonic"]

    def test_workers_required(self):
        from dataclasses import replace

        from repro.errors import ChaosError

        with pytest.raises(ChaosError):
            run_soak("wire", replace(self.PLAN, workers=0), seed=7)


#: The canonical wire-timeline digests at seed 7 — the same pins the CI
#: smoke job and docs/robustness.md carry.  A deliberate
#: behaviour change that moves one must update all three places.
PINNED = {
    "datagram-storm":
        "5843388b82ac3004eba10b75dd185b44d8c8f5bd9ea2d7f2dba4587c05a1830e",
    "client-churn-crash":
        "b6406ac3a70e224e900c4db5707f7b3139450634a2046106eed9181368481db8",
    "leader-kill-live":
        "8008a13b292a4878770bc5e803b9518e0ec47c7e374db5b78421bcc33c21a6c3",
}


class TestPinnedDigests:
    def test_datagram_storm(self):
        result = run_soak("wire", "datagram-storm", seed=7)
        assert result.ok, result.to_dict()
        assert result.events_dropped == 0  # the digest saw every event
        assert result.digest == PINNED["datagram-storm"]

    def test_client_churn_crash(self):
        result = run_soak("wire", "client-churn-crash", seed=7)
        assert result.ok, result.to_dict()
        assert result.evictions == 3
        assert result.events_dropped == 0
        assert result.digest == PINNED["client-churn-crash"]

    def test_leader_kill_live(self):
        result = run_soak("wire", "leader-kill-live", seed=7)
        assert result.ok, result.to_dict()
        assert result.promotions == 1
        assert result.events_dropped == 0
        assert result.digest == PINNED["leader-kill-live"]


class TestCli:
    def test_list_plans(self):
        code, output = run_cli("wire-chaos-soak", "--list-plans")
        assert code == 0
        for name in ("datagram-storm", "client-churn-crash",
                     "leader-kill-live"):
            assert name in output

    def test_tiny_run_green(self):
        code, output = run_cli(
            "wire-chaos-soak", "--clients", "8", "--intervals", "2",
            "--seed", "5",
        )
        assert code == 0, output
        assert "all invariants green" in output
        assert "wire-timeline digest:" in output

    def test_digest_mismatch_exits_3(self):
        code, output = run_cli(
            "wire-chaos-soak", "--clients", "8", "--intervals", "2",
            "--seed", "5", "--expect-digest", "f" * 64,
        )
        assert code == 3
        assert "digest mismatch" in output

    def test_unknown_plan_exits_2(self):
        code, output = run_cli("wire-chaos-soak", "--plan", "nope")
        assert code == 2
        assert "error:" in output
