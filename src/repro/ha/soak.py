"""The HA soak family: a leader/standby pair under a cluster fault plan.

``run_soak("ha", plan)`` (:mod:`repro.chaos.soak`) boots a real durable
leader daemon and a hot standby in one process, wires them through the
deterministic :class:`~repro.ha.replication.DirectLink`
(:class:`StandbyPair`), and enacts one of the cluster fault plans
(:data:`repro.chaos.plans.HA_PLAN_NAMES`):

- ``leader-kill`` — an injected :class:`DaemonCrash` fells the leader
  mid-interval (post-delivery: the worst alignment — members hold keys
  the snapshot never saw).  The standby waits out the lease, promotes,
  replays the pending requests, and finishes the run.  The decisive
  invariant is **key-oracle**: the failover cluster's final group key
  must be bit-identical to a single-node daemon that crashed and
  recovered at the same point — failover must be *invisible* in key
  material.
- ``replication-partition`` — the link drops every frame for a window
  shorter than the lease TTL.  The follower falls behind, the heal
  replays the WAL suffix (``catch_up``), and the run must end with lag
  zero, matching digests, and **no promotion**.
- ``split-brain`` — the leader keeps rekeying but stops renewing its
  lease; the standby promotes on the lapse, and the deposed leader's
  next append must be refused by the epoch fence with no byte landing
  (**no-stale-record**: the surviving WAL's epochs never decrease and
  the intruding request is nowhere in it).

Determinism: the same ``(plan, seed)`` drives the same churn, the same
delivery losses, and the same orchestration schedule, so the run's
chaos/HA event subsequence canonicalises to a stable digest — pinned in
``docs/ha.md`` and checked by the CI smoke job, exactly like the
single-node soak digests.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager

from repro.chaos.plans import (
    PLAN_DESCRIPTIONS,
    PLAN_INTERVALS,
    PLAN_NAMES,
    make_plan,
)
from repro.chaos.seams import FaultyClock, FaultyFilesystem
from repro.chaos.soak import (
    TIMELINE_KINDS,
    SoakFamily,
    SoakPlan,
    agreement_ok,
    audit_wal,
    run_single_node,
    start_durable,
    steps,
)
from repro.errors import StaleEpochError
from repro.ha.digest import server_digest
from repro.ha.lease import Lease
from repro.ha.replication import DirectLink, LeaderPublisher
from repro.ha.standby import StandbyReplica, promote
from repro.obs.recorder import NULL

#: soak lease TTL (virtual seconds) — far beyond any real run time, so
#: only an *orchestrated* ``clock.sleep`` can lapse it; the FaultyClock
#: folds real elapsed time into ``time()``, and a tight TTL would let
#: a slow CI host lapse the lease mid-run and wreck determinism
LEASE_TTL = 3600.0


class StandbyPair:
    """A leader daemon and its hot standby in one process.

    Both nodes share ``state_dir`` (WAL, snapshot, lease); the leader's
    WAL streams to a :class:`StandbyReplica` over a :class:`DirectLink`,
    and :meth:`fail_over` waits out the lease and promotes the standby.
    The caller builds the leader with ``epoch=pair.epoch`` and
    ``fence=pair.leader_lease`` and hands it to :meth:`attach`: the HA
    plans start a durable daemon, the wire-chaos leader kill a live
    wire fleet.
    """

    def __init__(self, state_dir, obs, clock, fs=None):
        self.state_dir = state_dir
        self.obs = obs
        self.clock = clock
        self.fs = fs
        lease_path = os.path.join(state_dir, "lease.json")
        self.leader_lease = Lease(
            lease_path, "node-a", ttl=LEASE_TTL, fs=fs, clock=clock, obs=obs
        )
        self.standby_lease = Lease(
            lease_path, "node-b", ttl=LEASE_TTL, fs=fs, clock=clock, obs=obs
        )
        self.epoch = self.leader_lease.acquire()
        #: the first leader, and whichever daemon owns the write path
        self.leader = self.active = None

    def attach(self, leader):
        """Start streaming ``leader``'s WAL into a fresh standby."""
        self.leader = self.active = leader
        self.obs.emit("ha_role", node="node-a", role="leader",
                      epoch=self.epoch)
        self.obs.emit("ha_role", node="node-b", role="standby",
                      epoch=self.epoch)
        self.publisher = leader.attach_replication(
            LeaderPublisher(self.epoch, wal=leader.wal, obs=self.obs)
        )
        self.link = DirectLink()
        self.replica = StandbyReplica(
            config=leader.server.config,
            node_id="node-b",
            obs=self.obs,
            clock=self.clock,
        )
        self.publisher.subscribe(self.link, server=leader.server)
        self.drain()

    def drain(self):
        """Deliver every queued frame into the standby."""
        self.replica.apply_frames(self.link.poll())

    def tick(self, renew=True):
        """The leader's between-interval housekeeping: renew + stream."""
        if renew:
            self.leader_lease.renew()
        self.publisher.heartbeat()
        self.drain()

    def fail_over(self, seed, backend=None):
        """Standby-side failover: wait out the lease, then promote."""
        self.drain()
        self.clock.sleep(LEASE_TTL + 1.0)
        self.obs.emit(
            "ha_heartbeat_lost",
            node=self.replica.node_id,
            leader_epoch=self.replica.leader_epoch,
            applied_seq=self.replica.applied_seq,
        )
        self.active = promote(
            self.replica,
            self.state_dir,
            self.standby_lease,
            backend=self.leader.backend if backend is None else backend,
            fleet=self.leader.fleet,
            churn=self.leader.churn,
            service=self.leader.service,
            seed=seed,
            obs=self.obs,
            fs=self.fs,
            clock=self.clock,
        )
        return self.active

    def run_killed(self, intervals, tally, fail_over, before=None):
        """Run the active daemon to ``intervals`` across a leader kill.

        After each of its intervals the leader renews its lease and
        streams; when the injected :class:`DaemonCrash` fells it,
        ``fail_over(current)`` must close it and promote the standby.
        Returns the invariants every leader-kill plan shares.
        """
        from repro.service.daemon import DaemonCrash

        for current in steps(
            intervals, lambda: self.active.server.intervals_processed
        ):
            if before is not None:
                before(current)
            try:
                self.active.run_interval()
            except DaemonCrash:
                # the crash already fired; the promoted daemon must not
                # trip over the same plan at its replay interval
                self.leader.service.crash_plan = None
                fail_over(current)
                tally["promotions"] += 1
                continue
            if self.active is self.leader:
                self.tick()
        tally["final_epoch"] = self.active.epoch
        _, lost_none, monotonic = self.wal_audit(intervals)
        return {
            "completed": self.active.server.intervals_processed >= intervals,
            "promoted": tally["promotions"] == 1,
            "key-agreement": agreement_ok(self.active),
            "no-interval-lost": lost_none,
            "wal-epochs-monotonic": monotonic,
        }

    def wal_audit(self, intervals):
        """:func:`~repro.chaos.soak.audit_wal` over the shared log."""
        return audit_wal(
            os.path.join(self.state_dir, "wal.jsonl"), intervals, self.fs
        )

    def close(self):
        self.leader.close()
        if self.active is not self.leader:
            self.active.close()


@contextmanager
def _cluster(soak):
    """Boot the pair for one HA plan; yields ``(fault_plan, pair)`` and
    closes both nodes however the plan ends."""
    from repro.service.daemon import CrashPlan

    fault_plan = make_plan(soak.name, seed=soak.seed).bind(soak.obs)
    tally = soak.result.counters
    pair = None
    try:
        kill = fault_plan.ha_fault_of("leader-kill")
        fs = FaultyFilesystem(fault_plan)
        pair = StandbyPair(soak.state_dir, soak.obs, FaultyClock(), fs=fs)
        pair.attach(
            start_durable(
                fault_plan,
                soak.seed,
                soak.sizes["members"],
                soak.state_dir,
                soak.obs,
                fs,
                pair.clock,
                start={"epoch": pair.epoch, "fence": pair.leader_lease},
                # compaction off: the end-of-run WAL scan is the audit
                # trail (every commit, every epoch) and must see it all
                wal_compact_every=0,
                crash_plan=(
                    None if kill is None
                    else CrashPlan(kill.at_interval, kill.point)
                ),
            )
        )
        soak.say(
            "ha-soak: plan %r, seed %d, %d members, %d intervals"
            % (soak.name, soak.seed, soak.sizes["members"],
               soak.sizes["intervals"])
        )
        yield fault_plan, pair
    finally:
        if pair is not None and pair.active is not None:
            pair.close()
            tally["intervals_completed"] = (
                pair.active.server.intervals_processed
            )
        tally["faults_injected"] = fault_plan.injected


def _oracle_final_state(soak, kill):
    """The single-node truth the failover cluster must reproduce.

    The chaos family's single-node loop, silent (``obs=NULL``): same
    seeds, same churn, crashed by the same plan at the same point, then
    recovered from its own snapshot + WAL and run to the same interval
    count.  Returns ``(fingerprint, digest)`` of its final state.
    Because key derivation, marking, and churn are all deterministic in
    the seeds, failover is correct *iff* the cluster's final state
    equals this run's, byte for byte.
    """
    from repro.service.daemon import CrashPlan

    with tempfile.TemporaryDirectory(prefix="ha-oracle-") as state_dir:
        daemon, _ = run_single_node(
            make_plan(soak.name, seed=soak.seed),
            soak.seed,
            soak.sizes["intervals"],
            soak.sizes["members"],
            state_dir,
            NULL,
            {"restarts": 0},
            wal_compact_every=0,
            crash_plan=CrashPlan(kill.at_interval, kill.point),
        )
        try:
            return (
                daemon.server.group_key.fingerprint(),
                server_digest(daemon.server),
            )
        finally:
            daemon.close()


def _run_leader_kill(soak):
    with _cluster(soak) as (plan, pair):
        kill = plan.ha_fault_of("leader-kill")
        digest_at_promotion = None

        def fail_over(current):
            nonlocal digest_at_promotion
            plan.apply_ha_fault("leader-kill", point=kill.point)
            soak.say(
                "  interval %d: leader killed at %s -> failing over"
                % (current, kill.point)
            )
            pair.leader.close()
            pair.drain()
            digest_at_promotion = pair.replica.digest_ok
            pair.fail_over(soak.seed)

        invariants = soak.result.invariants
        invariants.update(
            pair.run_killed(
                soak.sizes["intervals"],
                soak.result.counters,
                fail_over,
                before=plan.set_interval,
            )
        )
        invariants["digest-at-promotion"] = digest_at_promotion is True
        oracle_fp, oracle_digest = _oracle_final_state(soak, kill)
        invariants["key-oracle"] = (
            pair.active.server.group_key.fingerprint() == oracle_fp
            and server_digest(pair.active.server) == oracle_digest
        )


def _run_partition(soak):
    intervals = soak.sizes["intervals"]
    tally = soak.result.counters
    with _cluster(soak) as (plan, pair):
        window = plan.ha_fault_of("partition")
        for current in steps(
            intervals, lambda: pair.leader.server.intervals_processed
        ):
            plan.set_interval(current)
            if current == window.at_interval and not pair.link.partitioned:
                pair.link.partitioned = True
                plan.apply_ha_fault(
                    "partition", until_interval=window.until_interval
                )
                soak.say("  interval %d: replication partitioned" % current)
            elif current == window.until_interval and pair.link.partitioned:
                pair.link.partitioned = False
                soak.obs.emit(
                    "ha_replication_connect",
                    node=pair.replica.node_id,
                    since_seq=pair.replica.applied_seq + 1,
                )
                pair.publisher.catch_up(
                    pair.link, since_seq=pair.replica.applied_seq + 1
                )
                soak.say(
                    "  interval %d: partition healed, WAL suffix replayed"
                    % current
                )
            pair.leader.run_interval()
            pair.tick()
        tally["final_epoch"] = pair.leader.epoch

        invariants = soak.result.invariants
        invariants["completed"] = (
            pair.leader.server.intervals_processed >= intervals
        )
        invariants["no-promotion"] = tally["promotions"] == 0
        invariants["frames-dropped"] = pair.link.dropped > 0
        invariants["caught-up"] = (
            pair.replica.lag() == 0
            and pair.replica.server.intervals_processed
            == pair.leader.server.intervals_processed
        )
        invariants["digest-match"] = pair.replica.digest_ok is True
        invariants["key-agreement"] = agreement_ok(pair.leader)


def _run_split_brain(soak):
    intervals = soak.sizes["intervals"]
    tally = soak.result.counters
    with _cluster(soak) as (plan, pair):
        pause = plan.ha_fault_of("lease-pause")
        digest_at_promotion = None
        fenced = False
        for current in steps(
            intervals, lambda: pair.active.server.intervals_processed
        ):
            plan.set_interval(current)
            if pair.active is pair.leader:
                if current == pause.at_interval:
                    plan.apply_ha_fault(
                        "lease-pause", until_interval=pause.until_interval
                    )
                    soak.say(
                        "  interval %d: leader stops renewing its lease"
                        % current
                    )
                if current == pause.until_interval:
                    # The standby notices the lapse and takes over while
                    # the old leader is still alive — the split-brain
                    # moment the epoch fence exists for.
                    digest_at_promotion = pair.replica.digest_ok
                    pair.fail_over(soak.seed)
                    tally["promotions"] += 1
                    soak.say(
                        "  interval %d: standby promoted to epoch %d"
                        % (current, pair.active.epoch)
                    )
                    # ... and the deposed leader, none the wiser, tries
                    # to accept one more request.  The fence must refuse
                    # it before a single byte reaches the shared log.
                    try:
                        pair.leader.submit_join("intruder")
                    except StaleEpochError as error:
                        fenced = True
                        soak.say("  deposed leader fenced: %s" % error)
                    pair.leader.close()
                    continue
            pair.active.run_interval()
            if pair.active is pair.leader:
                pair.tick(renew=plan.current_interval < pause.at_interval)
        tally["final_epoch"] = pair.active.epoch

        invariants = soak.result.invariants
        invariants["completed"] = (
            pair.active.server.intervals_processed >= intervals
        )
        invariants["promoted"] = tally["promotions"] == 1
        invariants["fenced"] = fenced
        records, _, monotonic = pair.wal_audit(intervals)
        invariants["no-stale-record"] = monotonic and not any(
            record.get("user") == "intruder" for record in records
        )
        invariants["digest-at-promotion"] = digest_at_promotion is True
        invariants["key-agreement"] = agreement_ok(pair.active)


SOAK_FAMILY = SoakFamily(
    command="ha-soak",
    plans={
        name: SoakPlan(
            run,
            sizes={"intervals": PLAN_INTERVALS[name], "members": 24},
            description=PLAN_DESCRIPTIONS[name],
        )
        for name, run in {
            "leader-kill": _run_leader_kill,
            "replication-partition": _run_partition,
            "split-brain": _run_split_brain,
        }.items()
    },
    kinds=TIMELINE_KINDS,
    counters={
        "intervals_target": 0,
        "intervals_completed": 0,
        "promotions": 0,
        "faults_injected": 0,
        "final_epoch": 0,
    },
    targets={"intervals_target": "intervals"},
    state_key="state_dir",
    refused={
        name: "is single-node: run it with chaos-soak, not ha-soak"
        for name in PLAN_NAMES
    },
)
