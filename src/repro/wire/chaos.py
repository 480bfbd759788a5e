"""The wire soak family: ``python -m repro wire-chaos-soak``.

``run_soak("wire", plan)`` (:mod:`repro.chaos.soak`) drives the real
asyncio UDP wire plane through one of the pinned-digest survivability
plans (:data:`~repro.chaos.wire_faults.WIRE_CHAOS_PLANS`):

- ``datagram-storm`` — every fault family of the
  :class:`~repro.chaos.wire_faults.DatagramFaultInjector` at once,
  control frames included.  The run must finish with key agreement and
  without losing a member: corruption degrades to counted decode
  errors, duplicates deduplicate, reorders stay inside their round,
  delays cost retries, blackouts ride the announce barrier back in.
- ``client-churn-crash`` — scripted clients die mid-interval (one at
  the ANNOUNCE, two mid-round) while joins keep arriving.  The server's
  liveness budget must evict each casualty into the daemon's leave
  intake: carried out of the interval, rekeyed out at the next, with
  the survivors in agreement throughout.
- ``leader-kill-live`` — the leader daemon is killed *post-delivery*
  (the worst alignment: members hold keys the snapshot never saw)
  while worker processes keep their clients alive.  A hot standby
  waits out the lease, promotes under a higher epoch, adopts the live
  worker pool on the same UDP port
  (:meth:`~repro.wire.delivery.WireDelivery.handoff`), and the fleet
  must re-home: every surviving client re-REGISTERs on its silence
  watchdog, adopts the promoted epoch, refuses anything stamped with
  the old one, and reaches key agreement within the remaining
  intervals.

**The digest.**  A run's survivability timeline is the *sorted*
canonical projection of its deterministic events
(:data:`WIRE_TIMELINE_KINDS`): injected datagram faults, scheduled
client deaths, liveness evictions, HA transitions and the invariant
verdicts.  Sorted, not sequenced, because receive-side fault
applications land in socket-arrival order, which the scheduler owns —
the *set* is a pure function of ``(plan, seed)``.  Client-side FSM
events (resyncs, rehomes, stale-epoch refusals) are deliberately
excluded: their counts depend on real-time pacing and worker placement.
The digests are pinned in ``docs/robustness.md`` and checked by the CI
smoke job.
"""

from __future__ import annotations

from dataclasses import replace

from repro.chaos.soak import SoakFamily, SoakPlan, agreement_ok
from repro.chaos.wire_faults import WIRE_CHAOS_PLANS
from repro.errors import ChaosError, ReproError
from repro.obs.events import HA_EVENT_KINDS

__all__ = ["WIRE_TIMELINE_KINDS", "run_single", "wire_plan"]

#: Event kinds that define a wire-chaos run's reproducible timeline.
#: The single-node soak's ``TIMELINE_KINDS`` is deliberately left
#: untouched (its digests are pinned); this set covers what the wire
#: plans can deterministically produce.
WIRE_TIMELINE_KINDS = frozenset(
    HA_EVENT_KINDS
    | {
        "wire_chaos_fault",
        "wire_client_crashed",
        "wire_client_evicted",
        "wire_chaos_invariant",
        "crash",
    }
)


def _wire_daemon(plan, seed, obs, backend, service, **kwargs):
    """A daemon serving the plan's clients, under its churn, over the
    wire ``backend``; the members are hosted by the backend's worker
    processes when it has any."""
    from repro.core.server import GroupKeyServer
    from repro.service.churn import NoChurn, PoissonChurn
    from repro.service.daemon import RekeyDaemon
    from repro.service.members import MemberFleet
    from repro.wire.delivery import WireFleet

    churn = NoChurn()
    if plan.churn_alpha_join or plan.churn_alpha_leave:
        churn = PoissonChurn(
            alpha=plan.churn_alpha_leave,
            alpha_join=plan.churn_alpha_join,
        )
    server = GroupKeyServer(
        ["member-%04d" % index for index in range(plan.clients)],
        config=backend.config,
    )
    fleet_cls = WireFleet if backend.workers else MemberFleet
    return RekeyDaemon(
        server,
        backend=backend,
        fleet=fleet_cls.register_all(server),
        churn=churn,
        service=service,
        seed=seed,
        obs=obs,
        **kwargs,
    )


def _crash_schedule(plan):
    """``{name: (wire_interval, round_no)}`` from the plan's crashes."""
    return {
        "member-%04d" % crash.member: (crash.interval, crash.round_no)
        for crash in plan.crashes
    }


def _close_backend(backend):
    try:
        backend.close()
    except ReproError:  # teardown must not mask the run's verdict
        pass


def _start(soak, label="wire-chaos"):
    """The plan with the run's sizes applied, and its group config."""
    from repro.core.config import GroupConfig

    plan = replace(soak.spec, **soak.sizes)
    soak.say(
        "%s: plan %r, seed %d, %d clients%s, %d intervals"
        % (
            label,
            soak.name,
            soak.seed,
            plan.clients,
            " on %d workers" % plan.workers if plan.workers else "",
            plan.intervals,
        )
    )
    return plan, GroupConfig(
        block_size=plan.block_size,
        seed=soak.seed,
        nack_window_seconds=plan.nack_window_seconds,
    )


# -- the single-daemon plans ---------------------------------------------


def run_single(soak, label="wire-chaos"):
    """One daemon over the wire, for ``datagram-storm``,
    ``client-churn-crash`` and every fleet plan: the injector and/or
    scripted client deaths when the plan has them, liveness evictions
    feeding the leave intake.  The backend's per-interval records land
    in ``soak.result.records``; returns the daemon's interval metrics."""
    from repro.chaos.wire_faults import DatagramFaultInjector
    from repro.service.daemon import DaemonConfig
    from repro.wire.delivery import WireDelivery

    plan, config = _start(soak, label)
    seed, obs, tally = soak.seed, soak.obs, soak.result.counters
    injector = None
    if plan.faults.any_enabled:
        injector = DatagramFaultInjector(plan.faults, seed, obs=obs)
    schedule = _crash_schedule(plan)
    tally["crashes_scheduled"] = len(schedule)
    backend = WireDelivery(
        config,
        seed=seed + 1,
        workers=plan.workers,
        faults=injector,
        liveness_tries=plan.liveness_tries or None,
        resync_timeout=plan.resync_timeout or None,
        crash_plan=schedule,
        obs_dir=soak.obs_dir,
    )
    # The schedule is part of the deterministic timeline: one event per
    # scripted death, emitted in program order before the run begins.
    for name in sorted(schedule):
        interval, round_no = schedule[name]
        obs.emit(
            "wire_client_crashed",
            member=name,
            interval=interval,
            phase=round_no,
        )
    daemon = _wire_daemon(
        plan,
        seed,
        obs,
        backend,
        DaemonConfig(deadline_rounds=config.max_multicast_rounds),
    )
    # Casualties become leaves from the daemon's own thread (the intake
    # lock is reentrant): evicted mid-interval, rekeyed out at the next.
    backend.on_casualty = daemon.submit_leave

    def on_interval(record):
        obs.emit(
            "wire_fleet_interval",
            interval=record.interval,
            members=record.n_members,
            rounds=record.multicast_rounds,
            unicast_served=record.unicast_served,
            decision=record.decision,
        )
        soak.say(
            "  interval %d: %d members, %d rounds, %d by unicast, "
            "%d carried"
            % (
                record.interval,
                record.n_members,
                record.multicast_rounds,
                record.unicast_served,
                record.carried_users,
            )
        )

    try:
        daemon.run(plan.intervals, on_interval=on_interval)
        tally["evictions"] = len(backend.dead_members)
        stats = backend.client_stats()
        tally["resyncs"] = sum(s["resyncs"] for s in stats.values())

        invariants = soak.result.invariants
        invariants["completed"] = (
            daemon.server.intervals_processed >= plan.intervals
        )
        invariants["key-agreement"] = agreement_ok(daemon)
        if injector is not None:
            tally["faults_applied"] = dict(injector.applied)
            for fault, rate in (
                ("corrupt", plan.faults.corrupt_rate),
                ("duplicate", plan.faults.duplicate_rate),
                ("reorder", plan.faults.reorder_rate),
                ("delay", plan.faults.delay_rate),
                ("blackout", plan.faults.blackout_rate),
            ):
                if rate > 0.0:
                    invariants["fault-%s" % fault] = (
                        injector.applied.get(fault, 0) > 0
                    )
            if plan.faults.corrupt_rate > 0.0:
                # Corruption is detectable by construction — it must
                # surface as counted decode errors, never as silence.
                client_decode = sum(
                    s["decode_errors"] for s in stats.values()
                )
                invariants["decode-error-path"] = (
                    backend.server.decode_errors + client_decode > 0
                )
        if schedule:
            crashed = set(schedule)
            invariants["crashed-evicted"] = (
                crashed <= backend.dead_members
            )
            invariants["eviction-count"] = (
                backend.dead_members == frozenset(crashed)
            )
            invariants["evicted-left"] = not (
                crashed & set(daemon.fleet.members)
            )
        else:
            invariants["no-member-lost"] = not backend.dead_members
        return daemon.metrics.intervals
    finally:
        tally["intervals_completed"] = daemon.server.intervals_processed
        soak.result.records = list(backend.records)
        _close_backend(backend)
        daemon.close()


# -- the live-fleet failover plan ----------------------------------------


def _run_leader_kill_live(soak):
    """``leader-kill-live``: kill the leader post-delivery, promote a
    hot standby, and make the *live* worker fleet re-home to it."""
    from repro.chaos.seams import FaultyClock
    from repro.ha.soak import StandbyPair
    from repro.service.daemon import CrashPlan, DaemonConfig
    from repro.wire.delivery import WireDelivery

    plan, config = _start(soak)
    seed, obs, tally = soak.seed, soak.obs, soak.result.counters
    pair = StandbyPair(soak.state_dir, obs, FaultyClock())
    service = DaemonConfig(
        state_dir=soak.state_dir,
        wal_compact_every=0,
        verify_invariants=True,
        deadline_rounds=config.max_multicast_rounds,
        crash_plan=CrashPlan(plan.leader_kill_interval, "post-delivery"),
    )
    backend = WireDelivery(
        config,
        seed=seed + 1,
        workers=plan.workers,
        resync_timeout=plan.resync_timeout,
        epoch=pair.epoch,
    )
    leader = _wire_daemon(
        plan,
        seed,
        obs,
        backend,
        service,
        clock=pair.clock,
        epoch=pair.epoch,
        fence=pair.leader_lease,
    )
    try:
        if not leader._save_snapshot():
            raise ChaosError(
                "could not write the initial snapshot to %s"
                % leader.snapshot_path
            )
        pair.attach(leader)

        def fail_over(current):
            nonlocal backend
            soak.say(
                "  interval %d: leader killed post-delivery -> "
                "failing over with the fleet live" % current
            )
            # The workers' client processes — and their sockets —
            # survive the leader: detach them before tearing the
            # leader's wire plane down, so the successor can adopt the
            # pool and rebind the same UDP port.
            adoption = backend.handoff()
            leader.close()
            backend.close()
            backend = WireDelivery(
                config,
                seed=seed + 1,
                workers=plan.workers,
                resync_timeout=plan.resync_timeout,
                handoff=adoption,
            )
            # The promoted epoch is minted inside promote(); the
            # successor's server starts lazily at the next deliver, so
            # stamping it here fences every ANNOUNCE it sends.
            backend.epoch = pair.fail_over(seed, backend=backend).epoch
            soak.say(
                "  promoted node-b to epoch %d; fleet re-homing"
                % backend.epoch
            )

        invariants = soak.result.invariants
        invariants.update(pair.run_killed(plan.intervals, tally, fail_over))
        stats = backend.client_stats()
        tally["resyncs"] = sum(s["resyncs"] for s in stats.values())
        tally["rehomes"] = sum(
            1 for s in stats.values() if s["epoch"] == pair.active.epoch
        )
        tally["evictions"] = len(backend.dead_members)
        invariants["rehomed"] = bool(stats) and all(
            s["epoch"] == pair.active.epoch and not s["dead"]
            for s in stats.values()
        )
    finally:
        tally["intervals_completed"] = (
            pair.active or leader
        ).server.intervals_processed
        _close_backend(backend)
        if pair.active is None:
            leader.close()
        else:
            pair.close()


def wire_plan(spec):
    """The :class:`~repro.chaos.soak.SoakPlan` that runs one
    :class:`~repro.chaos.wire_faults.WireChaosPlan` (registered or ad
    hoc): a leader kill needs worker processes, because the clients
    must outlive the killed leader."""
    return SoakPlan(
        _run_leader_kill_live if spec.leader_kill_interval else run_single,
        sizes={
            "clients": spec.clients,
            "intervals": spec.intervals,
            "workers": spec.workers,
        },
        minimum={"workers": 1} if spec.leader_kill_interval else {},
        description=spec.description,
        spec=spec,
    )


SOAK_FAMILY = SoakFamily(
    command="wire-chaos-soak",
    plans={name: wire_plan(spec) for name, spec in WIRE_CHAOS_PLANS.items()},
    kinds=WIRE_TIMELINE_KINDS,
    ordered=False,
    invariant_event="wire_chaos_invariant",
    counters={
        "clients": 0,
        "workers": 0,
        "intervals_target": 0,
        "intervals_completed": 0,
        #: per-family counts of applied (first-occurrence) datagram
        #: faults
        "faults_applied": {},
        "crashes_scheduled": 0,
        "evictions": 0,
        #: client-FSM totals — informational, timing-dependent, not
        #: digested
        "resyncs": 0,
        "rehomes": 0,
        "promotions": 0,
        "final_epoch": 0,
        "worker_crash": False,
    },
    targets={
        "clients": "clients",
        "workers": "workers",
        "intervals_target": "intervals",
    },
    complete_event="wire_chaos_complete",
    complete_fields={"intervals": "intervals_completed"},
    complete_after_digest=True,
    adopt=wire_plan,
)
