"""The named fault plans the ``chaos-soak`` CLI runs.

Each plan is a curated :class:`~repro.chaos.faults.FaultPlan` —
a reproducible gauntlet aimed at one slice of the hardening:

- ``standard`` — a bit of everything: transient I/O errors under the
  retry budget, at-rest WAL/snapshot damage through the quarantine and
  snapshot ladder, clock jumps, and each feedback mutation once;
- ``io-storm`` — only injected ``OSError``\\ s, including a burst long
  enough to exhaust the snapshot retry budget (the interval stays
  uncommitted and the next snapshot covers it) and a failed compaction;
- ``storage-corruptor`` — repeated bit-flips and truncations of the
  durable files, restarting the daemon through recovery after each;
- ``feedback-abuse`` — NACK storms against a one-round deadline: the
  ρ clamp saturates and the degradation circuit breaker opens, cools
  down, and closes;
- ``unrecoverable`` — damages *every* snapshot generation, so recovery
  must fail; the soak (and CLI) treat the resulting
  :class:`~repro.errors.RecoveryError` as the expected outcome and the
  CLI still exits non-zero with the diagnostic.

Every number below is deliberate; see each plan's comment.  Offsets and
masks for the storage damage are *not* here — they come from the plan
RNG, so ``--seed`` reshuffles the damaged bytes while the schedule
stays fixed.
"""

from __future__ import annotations

from repro.chaos.faults import (
    ClockJump,
    FaultPlan,
    FeedbackFault,
    HaFault,
    IoFault,
    StorageFault,
)
from repro.errors import ChaosError

PLAN_NAMES = (
    "standard",
    "io-storm",
    "storage-corruptor",
    "feedback-abuse",
    "unrecoverable",
)

#: cluster-level plans run by ``ha-soak`` (see docs/ha.md); their
#: faults are orchestrated by the HA harness, not the single-node soak
HA_PLAN_NAMES = (
    "leader-kill",
    "replication-partition",
    "split-brain",
)

#: intervals each named plan is designed to run (the CLI default)
PLAN_INTERVALS = {
    "standard": 12,
    "io-storm": 10,
    "storage-corruptor": 10,
    "feedback-abuse": 10,
    "unrecoverable": 6,
    "leader-kill": 8,
    "replication-partition": 8,
    "split-brain": 8,
}

#: one-line operator-facing description per plan (``--list-plans``)
PLAN_DESCRIPTIONS = {
    "standard": (
        "a bit of everything: transient I/O errors, at-rest WAL/snapshot "
        "damage, clock jumps, and each feedback mutation once"
    ),
    "io-storm": (
        "only injected OSErrors, including a burst that exhausts the "
        "snapshot retry budget and a failed compaction"
    ),
    "storage-corruptor": (
        "repeated WAL/snapshot flips and truncations, each followed by a "
        "restart through recovery"
    ),
    "feedback-abuse": (
        "NACK storms against a one-round deadline: the rho clamp "
        "saturates and the circuit breaker cycles"
    ),
    "unrecoverable": (
        "damages every snapshot generation; recovery must fail with a "
        "clean RecoveryError and a non-zero exit"
    ),
    "leader-kill": (
        "HA: kill the leader mid-interval; the standby promotes, replays "
        "the pending requests, and must match the single-node oracle key"
    ),
    "replication-partition": (
        "HA: drop replication frames for a window shorter than the "
        "lease; the follower must catch up without promoting"
    ),
    "split-brain": (
        "HA: the leader stops renewing its lease, the standby promotes, "
        "and the deposed leader's late WAL append must be fenced out"
    ),
}


def make_plan(name, seed=7):
    """Build the named :class:`FaultPlan` with damage drawn from ``seed``."""
    if name == "standard":
        return FaultPlan(
            name=name,
            seed=seed,
            io_faults=(
                # third WAL fsync fails once: rollback + one retry
                IoFault("wal-fsync", at=2),
                # snapshot fsyncs 1-2 fail: two retries, still in budget
                IoFault("snapshot-fsync", at=1, times=2),
                # one atomic-replace failure mid-run
                IoFault("snapshot-replace", at=4),
            ),
            storage_faults=(
                # at-rest WAL damage -> quarantine + salvaged prefix
                StorageFault("wal-flip", after_interval=3),
                # mid-record cut -> torn tail or quarantine (seed-fixed)
                StorageFault("wal-truncate", after_interval=6),
                # primary snapshot damage -> ladder falls back to .prev
                StorageFault("snapshot-flip", after_interval=8),
            ),
            clock_jumps=(
                ClockJump(at_interval=4, delta=3600.0),   # NTP step fwd
                ClockJump(at_interval=9, delta=-120.0),   # and back
            ),
            feedback_faults=(
                FeedbackFault("duplicate", at_interval=2),
                FeedbackFault("reorder", at_interval=5),
                FeedbackFault("storm", at_interval=7),
            ),
            # compact often enough that the run exercises compaction
            daemon_overrides={"wal_compact_every": 4},
        )
    if name == "io-storm":
        return FaultPlan(
            name=name,
            seed=seed,
            io_faults=(
                IoFault("wal-write", at=1, times=2),
                IoFault("wal-fsync", at=6),
                # four consecutive snapshot-fsync failures exhaust the
                # default retry budget (max_attempts=4): the interval is
                # left uncommitted and the next snapshot covers it
                IoFault("snapshot-fsync", at=2, times=4),
                IoFault("snapshot-write", at=9),
                # first compaction's replace fails: compaction skipped
                IoFault("wal-replace", at=0),
            ),
            daemon_overrides={"wal_compact_every": 3},
        )
    if name == "storage-corruptor":
        return FaultPlan(
            name=name,
            seed=seed,
            storage_faults=(
                StorageFault("wal-flip", after_interval=1),
                StorageFault("wal-flip", after_interval=3),
                StorageFault("wal-truncate", after_interval=5),
                StorageFault("snapshot-flip", after_interval=7),
                StorageFault("wal-flip", after_interval=8),
            ),
            daemon_overrides={"wal_compact_every": 5},
        )
    if name == "feedback-abuse":
        return FaultPlan(
            name=name,
            seed=seed,
            feedback_faults=(
                FeedbackFault("storm", at_interval=1),
                FeedbackFault("storm", at_interval=2),
                FeedbackFault("storm", at_interval=3),
                FeedbackFault("storm", at_interval=4),
                FeedbackFault("duplicate", at_interval=6),
            ),
            # one-round deadline so cutovers recur and the breaker trips
            daemon_overrides={
                "deadline_rounds": 1,
                "circuit_threshold": 2,
                "circuit_cooldown": 2,
            },
            # a low ceiling so the storms demonstrably saturate the
            # AdjustRho clamp within a short run
            group_overrides={"rho_max": 1.2, "num_nack": 5},
        )
    if name == "leader-kill":
        return FaultPlan(
            name=name,
            seed=seed,
            ha_faults=(
                # kill after delivery but before snapshot/commit: members
                # already hold the interval's keys, the log has its
                # requests, and the snapshot never saw it — the worst
                # alignment for a naive failover
                HaFault("leader-kill", at_interval=3, point="post-delivery"),
            ),
        )
    if name == "replication-partition":
        return FaultPlan(
            name=name,
            seed=seed,
            ha_faults=(
                # three intervals of dropped frames, healed well inside
                # the lease TTL: the follower must fall behind, catch up
                # from the leader's WAL, and never promote
                HaFault("partition", at_interval=2, until_interval=5),
            ),
        )
    if name == "split-brain":
        return FaultPlan(
            name=name,
            seed=seed,
            ha_faults=(
                # the leader keeps running but stops renewing its lease
                # (a wedged renewal thread / isolated node); at interval 6
                # the standby notices the lapse and promotes, after which
                # the deposed leader attempts one more append
                HaFault("lease-pause", at_interval=3, until_interval=6),
            ),
        )
    if name == "unrecoverable":
        return FaultPlan(
            name=name,
            seed=seed,
            storage_faults=(
                # every snapshot generation damaged: the ladder must be
                # exhausted and recovery must fail with a clean
                # RecoveryError (never a traceback)
                StorageFault("snapshot-flip-all", after_interval=2),
            ),
            expect_recoverable=False,
        )
    raise ChaosError(
        "unknown fault plan %r (valid: %s)"
        % (name, ", ".join(PLAN_NAMES + HA_PLAN_NAMES))
    )
