"""The one soak harness across its four families: the ``--json`` key
contract, size checks before the run, and scratch-dir ownership.

Each family's ``to_dict()`` key set is what ``--json`` consumers read;
the sets below were recorded from the four separate result classes the
harness replaced, and must not drift.
"""

import tempfile

import pytest

from repro.chaos.soak import run_soak
from repro.chaos.wire_faults import WireChaosPlan, WireFaultParams
from repro.errors import ChaosError

_SHARED = {
    "plan", "seed", "invariants", "digest", "events_dropped", "failure", "ok",
}

#: each family's ``to_dict()`` key set
JSON_KEYS = {
    "chaos": _SHARED | {
        "intervals_target", "intervals_completed", "restarts",
        "faults_injected", "expect_recoverable",
    },
    "ha": _SHARED | {
        "intervals_target", "intervals_completed", "promotions",
        "faults_injected", "final_epoch",
    },
    "wire": _SHARED | {
        "clients", "workers", "intervals_target", "intervals_completed",
        "faults_applied", "crashes_scheduled", "evictions", "resyncs",
        "rehomes", "promotions", "final_epoch", "worker_crash",
    },
    "tenancy": _SHARED | {
        "tenants", "ticks_target", "ticks_completed", "intervals_total",
        "shed_total", "quarantines", "restarts", "promotions", "rehomed",
        "digests_verified", "requests_replayed", "final_epoch",
        "victim_miss_delta", "aggressor",
    },
}

#: the live-fleet leader kill at test size (it needs a state dir for
#: the shared WAL and lease, unlike the other wire plans)
WIRE_LEADER_KILL = WireChaosPlan(
    name="leader-kill-small",
    clients=6,
    intervals=3,
    workers=1,
    churn_alpha_join=0.1,
    churn_alpha_leave=0.0,
    block_size=5,
    nack_window_seconds=0.15,
    faults=WireFaultParams(),
    crashes=(),
    leader_kill_interval=1,
    resync_timeout=0.5,
    description="live-fleet failover at test size",
)

#: the smallest run of each family that uses every scratch dir the
#: family can create (the HA leader kill adds its oracle's)
SMALLEST = {
    "chaos": ("standard", {"intervals": 2, "members": 6}),
    "ha": ("leader-kill", {"intervals": 5, "members": 6}),
    "wire": (WIRE_LEADER_KILL, {}),
    "tenancy": ("noisy-neighbor", {"tenants": 2, "ticks": 1}),
}


@pytest.mark.parametrize("family", sorted(SMALLEST))
def test_json_keys_and_no_scratch_dir_left(family, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    plan, sizes = SMALLEST[family]
    result = run_soak(family, plan, seed=7, **sizes)
    assert result.failure is None, result.failure
    assert set(result.to_dict()) == JSON_KEYS[family]
    assert list(tmp_path.iterdir()) == []


def test_caller_state_dir_is_kept(tmp_path):
    state = tmp_path / "fresh" / "state"
    result = run_soak(
        "chaos", "feedback-abuse", seed=7, intervals=2, members=6,
        state_dir=str(state),
    )
    assert result.ok, result.to_dict()
    assert (state / "wal.jsonl").exists()
    assert (state / "server.json").exists()


@pytest.mark.parametrize(
    "plan, sizes",
    [
        ("tenant-wal-corruption", {"tenants": 3}),
        ("tenant-wal-corruption", {"ticks": 3}),
        ("mass-rehome", {"ticks": 2}),
        ("noisy-neighbor", {"tenants": 1}),
    ],
)
def test_plan_minimums_refused_before_the_run(plan, sizes, tmp_path):
    with pytest.raises(ChaosError, match="needs at least"):
        run_soak("tenancy", plan, state_root=str(tmp_path), **sizes)
    assert list(tmp_path.iterdir()) == []


def test_cross_family_plans_refused():
    with pytest.raises(ChaosError, match="needs a cluster"):
        run_soak("chaos", "leader-kill")
