"""Crash-recovery property tests (the ISSUE's durability acceptance).

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
  consumed by a snapshot or replayed from the WAL.
"""

import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from repro.core import GroupConfig
from repro.service import (
    CRASH_POINTS,
    CrashPlan,
    DaemonConfig,
    DaemonCrash,
    DirectDelivery,
    PoissonChurn,
    RekeyDaemon,
)


def run_crash_cycle(crash_interval, crash_point, seed, resync):
    """Soak → injected crash → recover (same fleet) → soak on.

    Returns the recovered daemon (caller asserts on it).  Uses its own
    temp dir per example: hypothesis reuses ``tmp_path`` across examples.
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
    return recovered, state_dir


@given(
    crash_interval=st.integers(min_value=0, max_value=4),
    crash_point=st.sampled_from(CRASH_POINTS),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_recovery_restores_agreement_and_lockout(
    crash_interval, crash_point, seed
):
    recovered, state_dir = run_crash_cycle(
        crash_interval, crash_point, seed, resync=False
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
    recovered, state_dir = run_crash_cycle(
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
    import pytest

    from repro.errors import ServiceError

    with pytest.raises(ServiceError):
        RekeyDaemon.recover(tmp_path / "nothing-here")
