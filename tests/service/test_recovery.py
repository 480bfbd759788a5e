"""Crash-recovery property tests: the daemon's durability contract.

The daemon is killed by an injected :class:`DaemonCrash` (the SIGKILL
stand-in — no cleanup runs; only fsynced state survives) at a random
interval and a random :data:`CRASH_POINTS` site, then restarted from
the WAL + snapshot in the same ``state_dir``.  The *member fleet
survives the crash* — members live on remote hosts and do not die with
the key server — so recovery must bring the restored server back into
agreement with their key state:

- every current member ends the next interval holding the server's
  group key (agreement);
- the fleet's secrecy ledger stays clean: the departed coalition
  reaches no current tree key (forward secrecy) and no joiner holds a
  key from before its join (backward secrecy), whether an eviction was
  consumed by a snapshot or replayed from the WAL;
- with the primary snapshot damaged, recovery falls back one generation
  and replays the committed interval as its own batch: no departed
  member's pre-crash key is a current tree key.  The ledger cannot see
  this (it re-reads its mirror from the restored server), so the key
  material is compared directly.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import GroupConfig
from repro.service import (
    CRASH_POINTS,
    CrashPlan,
    DaemonConfig,
    DaemonCrash,
    DirectDelivery,
    NoChurn,
    PoissonChurn,
    RekeyDaemon,
)


def damage(path):
    """Make a snapshot unreadable, as a torn or flipped write would."""
    with open(path, "r+b") as handle:
        handle.write(b"\xff\xfe")


def held_keys(fleet):
    """The key material each member holds, by name."""
    return {
        name: {key.material for key in member.path_keys.values()}
        for name, member in fleet.members.items()
    }


def tree_keys(server):
    tree = server.tree
    return {tree.key_of(node).material for node in tree.node_ids()}


def run_crash_cycle(crash_interval, crash_point, seed, resync,
                    damage_primary=False):
    """Soak → injected crash → recover (same fleet) → soak on.

    Returns the recovered daemon (caller asserts on it), its state dir
    and the key material each member held at the crash.  With
    ``damage_primary`` the primary snapshot is made unreadable first, so
    recovery starts from ``server.json.prev``.  Uses its own temp dir
    per example: hypothesis reuses ``tmp_path`` across examples.
    """
    state_dir = tempfile.mkdtemp(prefix="rekeyd-")
    config = GroupConfig(
        degree=3, block_size=5, crypto_seed=seed, seed=seed
    )
    churn = PoissonChurn(alpha=0.25, min_members=4)
    daemon = RekeyDaemon.start_new(
        ["m%02d" % i for i in range(12)],
        config=config,
        backend=DirectDelivery(),
        churn=churn,
        service=DaemonConfig(
            state_dir=state_dir,
            crash_plan=CrashPlan(crash_interval, crash_point),
        ),
        seed=seed,
    )
    try:
        daemon.run(crash_interval + 3)
    except DaemonCrash:
        pass
    else:  # pragma: no cover - the plan must fire
        raise AssertionError("crash plan did not fire")

    # The fleet survives (members are remote); the server state is
    # whatever was fsynced.  Note: no daemon.close() — a SIGKILL
    # flushes nothing beyond what each append already fsynced.
    held = held_keys(daemon.fleet)
    if damage_primary:
        damage(os.path.join(state_dir, "server.json"))
    recovered = RekeyDaemon.recover(
        state_dir,
        config=config,
        backend=DirectDelivery(),
        fleet=daemon.fleet,
        churn=churn,
        service=DaemonConfig(state_dir=state_dir),
        seed=seed + 1,
        resync_members=resync,
    )
    return recovered, state_dir, held


@given(
    crash_interval=st.integers(min_value=0, max_value=4),
    crash_point=st.sampled_from(CRASH_POINTS),
    seed=st.integers(min_value=0, max_value=2**16),
    damage_primary=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_recovery_restores_agreement_and_lockout(
    crash_interval, crash_point, seed, damage_primary
):
    # Interval 0's first snapshot has no older generation to fall to
    # unless it was already replaced.
    assume(
        not damage_primary
        or crash_interval > 0
        or crash_point == "post-snapshot"
    )
    recovered, state_dir, held = run_crash_cycle(
        crash_interval, crash_point, seed, resync=False,
        damage_primary=damage_primary,
    )
    try:
        # Two more intervals: the first flushes any replayed requests
        # (its rekey regenerates the crashed interval's keys
        # deterministically, so redelivery is idempotent for members
        # that had already absorbed part of the lost interval).
        recovered.run(2)
        recovered.fleet.check_agreement(recovered.server)
        assert recovered.fleet.n_members == recovered.server.n_users
        assert set(recovered.fleet.members) == set(recovered.server.users)
        current = tree_keys(recovered.server)
        for name in set(held) - recovered.server.users:
            assert not held[name] & current, name
    finally:
        recovered.close()
        shutil.rmtree(state_dir, ignore_errors=True)


@given(
    crash_point=st.sampled_from(CRASH_POINTS),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None)
def test_recovery_with_member_resync(crash_point, seed):
    """The CLI path: re-register out-of-sync members at recovery time
    (the paper's SSL re-registration story) — agreement holds right
    away, before any post-recovery interval runs."""
    recovered, state_dir, _ = run_crash_cycle(
        2, crash_point, seed, resync=True
    )
    try:
        recovered.fleet.check_agreement(recovered.server)
        recovered.run(1)
        recovered.fleet.check_agreement(recovered.server)
    finally:
        recovered.close()
        shutil.rmtree(state_dir, ignore_errors=True)


def test_recover_without_snapshot_raises(tmp_path):
    from repro.errors import ServiceError

    with pytest.raises(ServiceError):
        RekeyDaemon.recover(tmp_path / "nothing-here")


@pytest.mark.parametrize("loss", ["damaged-primary", "failed-snapshot"])
def test_prev_fallback_does_not_remint_a_leavers_key(tmp_path, loss):
    """An interval with a join ran and delivered, a leave was logged in
    the next one, then the daemon crashed.  Recovery starts one snapshot
    generation back: the primary is damaged (``server.json.prev``), or
    the interval's snapshot write failed and logged no commit.  Either
    way replay must re-run the delivered interval as its own batch.
    Merging it with the leave would mint the group key that interval
    delivered — the one the leaver holds — as the key that locks it
    out."""
    state_dir = str(tmp_path / "state")
    config = GroupConfig(degree=3, block_size=5, seed=11)
    daemon = RekeyDaemon.start_new(
        ["m%02d" % i for i in range(12)],
        config=config,
        backend=DirectDelivery(),
        churn=NoChurn(),
        service=DaemonConfig(state_dir=state_dir),
        seed=11,
    )
    daemon.submit_join("newcomer")
    if loss == "failed-snapshot":
        daemon._save_snapshot = lambda: False
    daemon.run_interval()
    daemon.submit_leave("m03")
    leaver_key = daemon.fleet.members["m03"].group_key
    assert leaver_key == daemon.server.group_key
    daemon.close()  # the crash: the leave is only in the WAL
    if loss == "damaged-primary":
        damage(os.path.join(state_dir, "server.json"))

    recovered = RekeyDaemon.recover(
        state_dir,
        config=config,
        backend=DirectDelivery(),
        fleet=daemon.fleet,
        churn=NoChurn(),
        service=DaemonConfig(state_dir=state_dir),
        seed=11,
    )
    try:
        recovered.run_interval()  # the replay interval: the leave
        assert "m03" not in recovered.server.users
        assert recovered.server.group_key.material != leaver_key.material
        assert recovered.server.intervals_processed == 2
        recovered.fleet.check_agreement(recovered.server)
    finally:
        recovered.close()
