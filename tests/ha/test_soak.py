"""End-to-end HA soak tests: the three cluster plans and their pins.

As with the single-node chaos pins, each digest is the determinism
acceptance for its plan: the same (plan, seed) must replay the same
canonical fault timeline on every machine.  Re-pin only after a
deliberate, inspected change to the HA layer's behaviour.
"""

import io

import pytest

from repro.chaos.soak import run_soak
from repro.cli import main
from repro.errors import ChaosError

#: sha256 of the canonical fault timelines at seed 7 (docs/ha.md)
PINNED = {
    "leader-kill": (
        "7e59d05e2dbc64ad2b7a95d130cd6900a7969f63ec1958beca6069ef9a0a682e"
    ),
    "replication-partition": (
        "e60d0c85eda954a010c6d879ca220a6095df6ffe1561b27f94b8583025420409"
    ),
    "split-brain": (
        "0a1c1d6c0819127f8dc0cd86f93e174f5c28ac29c0502f88f51881bfec8ac7b9"
    ),
}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestLeaderKill:
    def test_failover_matches_the_single_node_oracle(self, tmp_path):
        result = run_soak(
            "ha", "leader-kill", seed=7, state_dir=str(tmp_path)
        )
        assert result.failure is None
        assert result.ok, result.to_dict()
        assert result.promotions == 1
        assert result.final_epoch == 2
        assert result.invariants["key-oracle"]
        assert result.invariants["no-interval-lost"]
        assert result.digest == PINNED["leader-kill"]


class TestReplicationPartition:
    def test_partition_heals_without_promotion(self, tmp_path):
        result = run_soak(
            "ha", "replication-partition", seed=7, state_dir=str(tmp_path)
        )
        assert result.failure is None
        assert result.ok, result.to_dict()
        assert result.promotions == 0
        assert result.final_epoch == 1
        assert result.invariants["frames-dropped"]
        assert result.invariants["caught-up"]
        assert result.invariants["digest-match"]
        assert result.digest == PINNED["replication-partition"]


class TestSplitBrain:
    def test_deposed_leader_is_fenced(self, tmp_path):
        result = run_soak(
            "ha", "split-brain", seed=7, state_dir=str(tmp_path)
        )
        assert result.failure is None
        assert result.ok, result.to_dict()
        assert result.promotions == 1
        assert result.invariants["fenced"]
        assert result.invariants["no-stale-record"]
        assert result.digest == PINNED["split-brain"]


class TestGuards:
    def test_single_node_plan_refused(self):
        with pytest.raises(ChaosError, match="single-node"):
            run_soak("ha", "standard", seed=7)


class TestCli:
    def test_list_plans_exits_zero(self):
        code, output = run_cli("ha-soak", "--list-plans")
        assert code == 0
        for name in PINNED:
            assert name in output

    def test_chaos_soak_list_plans_covers_both_families(self):
        code, output = run_cli("chaos-soak", "--list-plans")
        assert code == 0
        assert "standard" in output
        assert "split-brain" in output

    def test_expect_digest_mismatch_exits_three(self, tmp_path):
        code, output = run_cli(
            "ha-soak", "--plan", "split-brain",
            "--state-dir", str(tmp_path),
            "--expect-digest", "deadbeef",
        )
        assert code == 3
        assert "digest mismatch" in output

    def test_green_run_exits_zero_and_prints_digest(self, tmp_path):
        code, output = run_cli(
            "ha-soak", "--plan", "replication-partition",
            # A directory that does not exist yet: the harness must
            # create it rather than crash on the lease write.
            "--state-dir", str(tmp_path / "fresh" / "cluster"),
            "--expect-digest", PINNED["replication-partition"],
        )
        assert code == 0
        assert "all invariants green" in output
        assert PINNED["replication-partition"] in output
