"""The tenancy-soak plans: green at small scale, pinned at full scale.

The full-scale digests are the repo's reproducibility contract for the
multi-tenant plane (CI pins the noisy-neighbor one through the CLI's
``--expect-digest``); a change here is a deliberate behaviour change
and the pins below must be re-derived, not deleted.
"""

import pytest

from repro.chaos.soak import run_soak
from repro.errors import ChaosError
from repro.tenancy.soak import SOAK_FAMILY, TENANCY_PLAN_NAMES

#: default fleet size and scheduler ticks per plan
PLAN_TENANTS = {
    name: plan.sizes["tenants"] for name, plan in SOAK_FAMILY.plans.items()
}
PLAN_TICKS = {
    name: plan.sizes["ticks"] for name, plan in SOAK_FAMILY.plans.items()
}

#: full-scale digests at seed 7 (default tenants/ticks per plan)
PINNED_DIGESTS = {
    "noisy-neighbor": (
        "f809d9df2bc3ef1db01a08e346a127c0ab14bfe13d67ecd36a1a8fdd533bd738"
    ),
    "tenant-wal-corruption": (
        "0ce671606983316a704b353ef74ce3d3daa5741677c79f01ab91fa89128cb993"
    ),
    "mass-rehome": (
        "b26c43efc97319c88f06671e52392c9e1e1aaa2ec8b06908e0e0cd632b2ef407"
    ),
}


def test_plan_tables_are_consistent():
    assert set(PINNED_DIGESTS) == set(TENANCY_PLAN_NAMES)
    assert set(PLAN_TENANTS) == set(TENANCY_PLAN_NAMES)
    assert set(PLAN_TICKS) == set(TENANCY_PLAN_NAMES)


def test_unknown_plan_rejected(tmp_path):
    with pytest.raises(ChaosError):
        run_soak("tenancy", "kitchen-fire", state_root=str(tmp_path))


def test_noisy_neighbor_small_scale(tmp_path):
    result = run_soak(
        "tenancy",
        "noisy-neighbor",
        seed=7,
        tenants=8,
        ticks=8,
        state_root=str(tmp_path / "a"),
    )
    assert result.ok, (result.failure, result.invariants)
    assert result.shed_total > 0
    assert result.quarantines >= 1
    assert result.aggressor["ledger"]["shed"] > 0
    assert result.victim_miss_delta == 0.0
    # determinism: the same (plan, seed, scale) reproduces the digest
    again = run_soak(
        "tenancy",
        "noisy-neighbor",
        seed=7,
        tenants=8,
        ticks=8,
        state_root=str(tmp_path / "b"),
    )
    assert again.digest == result.digest
    # ... and a different seed does not
    other = run_soak(
        "tenancy",
        "noisy-neighbor",
        seed=8,
        tenants=8,
        ticks=8,
        state_root=str(tmp_path / "c"),
    )
    assert other.digest != result.digest


def test_wal_corruption_small_scale(tmp_path):
    result = run_soak(
        "tenancy",
        "tenant-wal-corruption",
        seed=7,
        tenants=9,
        ticks=8,
        state_root=str(tmp_path),
    )
    assert result.ok, (result.failure, result.invariants)
    assert result.restarts == 1
    assert result.invariants["wal-quarantine-isolated"]
    assert result.invariants["storm-tenant-benched"]


def test_mass_rehome_small_scale(tmp_path):
    result = run_soak(
        "tenancy",
        "mass-rehome",
        seed=7,
        tenants=40,
        ticks=4,
        state_root=str(tmp_path),
    )
    assert result.ok, (result.failure, result.invariants)
    assert result.promotions == 1
    assert result.rehomed == 40
    assert result.digests_verified == 40
    assert result.final_epoch == 2
    assert result.invariants["no-interval-lost"]


@pytest.mark.parametrize("plan", TENANCY_PLAN_NAMES)
def test_full_scale_digest_is_pinned(plan, tmp_path):
    result = run_soak("tenancy", plan, seed=7, state_root=str(tmp_path))
    assert result.ok, (result.failure, result.invariants)
    assert result.digest == PINNED_DIGESTS[plan]
    if plan == "mass-rehome":
        assert result.tenants == 1000
        assert result.rehomed == 1000
        assert result.digests_verified == 1000
