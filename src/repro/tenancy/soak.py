"""The tenancy soak family: the multi-tenant daemon under abuse.

Three plans, each pinning one multi-tenant promise:

- ``noisy-neighbor`` — one tenant's flash-crowd churn storms the shared
  run queue.  The aggressor must be shed at admission and quarantined
  by its breaker, while every *victim* tenant finishes byte-identical
  to a baseline run without the aggressor (same interval counts, same
  group keys, deadline-miss rate within the band).  Cross-tenant fault
  isolation as an equality, not a vibe.
- ``tenant-wal-corruption`` — one tenant's WAL is damaged at rest and
  another's WAL writes fail persistently.  The damaged tenant must
  quarantine *its own WAL* (exactly one quarantine fleet-wide) and
  catch back up through recovery; the write-storm tenant must be
  benched by its breaker; everyone else completes every interval.
- ``mass-rehome`` — a leader carrying ~1k tenants is killed mid-tick
  (the injected SIGKILL stand-in) and a standby promotes: one lease
  acquisition fences every tenant, every tenant is re-homed, recorded
  state digests verify, WAL epochs stay monotonic, and no tenant loses
  a committed interval.

Every run is a pure function of ``(plan, seed)`` — virtual ticks, a
:class:`~repro.chaos.seams.FaultyClock`, per-tenant seeded churn — so
the tenancy-relevant event subsequence canonicalises to a pinned
**digest** exactly like the chaos soak's: all four soak families run
through the one harness, ``run_soak("tenancy", plan)`` in
:mod:`repro.chaos.soak`.
"""

from __future__ import annotations

import os

from repro.chaos.seams import FaultyClock
from repro.chaos.soak import SoakFamily, SoakPlan, audit_wal
from repro.errors import ChaosError
from repro.ha.soak import LEASE_TTL
from repro.obs.events import TENANCY_EVENT_KINDS
from repro.obs.recorder import NULL
from repro.tenancy.daemon import MultiGroupDaemon, tenant_state_dir
from repro.tenancy.registry import TenantRegistry, TenantSpec, make_fleet

#: event kinds that define a tenancy run's reproducible timeline: the
#: tenancy lifecycle itself plus the fault/recovery/fencing kinds the
#: plans exercise (all deterministic in (plan, seed))
TENANCY_TIMELINE_KINDS = frozenset(
    TENANCY_EVENT_KINDS
    | {
        "crash",
        "recovery",
        "wal_quarantine",
        "fault_injected",
        "soak_restart",
        "degradation",
        "ha_lease_acquired",
    }
)

#: noisy-neighbor knobs: the budget is generous enough that the 31
#: compliant victims always fit (their isolation is pinned as byte
#: equality), while solo_fraction makes the aggressor a whale from its
#: first admitted burst onward
NOISY_BUDGET = 4000
NOISY_SOLO_FRACTION = 0.2
AGGRESSOR_QUOTA = 64
AGGRESSOR_BURST = 256
#: deadline-miss band for victims vs the aggressor-free baseline
VICTIM_MISS_BAND = 0.02

#: tenant-wal-corruption: the write storm starts at this wal-write
#: occurrence (header + the first tick's appends succeed, then never
#: again)
STORM_AT = 5

def _start(soak):
    """``(tenants, ticks, root, seed, obs, say, tally)`` of one run."""
    return (
        soak.sizes["tenants"],
        soak.sizes["ticks"],
        soak.state_dir,
        soak.seed,
        soak.obs,
        soak.say,
        soak.result.counters,
    )


def _tally_fleet(tally, *segments):
    """Sum ticks, intervals and quarantines over a run's daemons."""
    tally["ticks_completed"] = sum(d.ticks for d in segments)
    tally["intervals_total"] = sum(d.intervals_total for d in segments)
    tally["quarantines"] = sum(
        b.quarantines for d in segments for b in d.breakers.values()
    )


def _fingerprints(daemon, names):
    return {
        name: (
            daemon.daemons[name].server.intervals_processed,
            daemon.daemons[name].server.group_key.fingerprint(),
        )
        for name in names
    }


# -- plan: noisy-neighbor ----------------------------------------------


def _noisy_registry(n_tenants, seed):
    """The heterogeneous fleet with tenant 0 re-specced as the
    quota-bounded, every-tick aggressor."""
    base = list(make_fleet(n_tenants, seed=seed))
    first = base[0]
    base[0] = TenantSpec(
        name=first.name,
        n_members=first.n_members,
        config=first.config,
        interval_ticks=1,
        quota=AGGRESSOR_QUOTA,
    )
    return TenantRegistry(base)


def _run_noisy_neighbor(soak):
    from repro.service.churn import FlashCrowdChurn, NoChurn, PoissonChurn
    from repro.service.transports import SessionDelivery

    n_tenants, n_ticks, root, seed, obs, say, tally = _start(soak)

    def drivers(registry, aggressive):
        aggressor = registry.names[0]
        out = {}
        for spec in registry:
            if spec.name == aggressor:
                # The baseline swaps only this driver: every other
                # source of behaviour is identical across the runs.
                out[spec.name] = (
                    FlashCrowdChurn(
                        alpha=0.05, burst_every=1, burst_size=AGGRESSOR_BURST
                    )
                    if aggressive
                    else NoChurn()
                )
            else:
                out[spec.name] = PoissonChurn(alpha=0.05)
        return out

    def backend_factory(spec):
        # Lossy simulated transport, per-tenant seeded: the degradation
        # machinery is live, and victim deliveries are independent of
        # the aggressor's.
        return SessionDelivery(spec.config, seed=spec.config.seed + 1)

    def run(sub_root, aggressive, recorder):
        registry = _noisy_registry(n_tenants, seed)
        daemon = MultiGroupDaemon.start_new(
            registry,
            os.path.join(root, sub_root),
            churn=drivers(registry, aggressive),
            budget=NOISY_BUDGET,
            solo_fraction=NOISY_SOLO_FRACTION,
            backend_factory=backend_factory,
            obs=recorder,
            clock=FaultyClock(),
        )
        try:
            daemon.run_ticks(n_ticks)
        finally:
            daemon.close()
        return daemon

    say(
        "tenancy-soak: noisy-neighbor, seed %d, %d tenants, %d ticks"
        % (seed, n_tenants, n_ticks)
    )
    say("  baseline run (aggressor quiet) ...")
    baseline = run("baseline", aggressive=False, recorder=NULL)
    say("  aggressor run (flash crowd of %d/tick) ..." % AGGRESSOR_BURST)
    active = run("active", aggressive=True, recorder=obs)

    aggressor = active.registry.names[0]
    victims = active.registry.names[1:]
    ledger = active.admission.ledger(aggressor)
    breaker = active.breakers[aggressor]
    _tally_fleet(tally, active)
    tally["shed_total"] = sum(
        entry["shed"] for entry in active.admission.to_dict().values()
    )
    tally["aggressor"] = {
        "name": aggressor,
        "ledger": ledger.to_dict(),
        "quarantines": breaker.quarantines,
    }
    deltas = [
        abs(
            active.scheduler.miss_rate(name)
            - baseline.scheduler.miss_rate(name)
        )
        for name in victims
    ]
    tally["victim_miss_delta"] = max(deltas) if deltas else 0.0

    invariants = soak.result.invariants
    invariants["completed"] = (
        active.ticks == n_ticks and baseline.ticks == n_ticks
    )
    invariants["aggressor-shed"] = ledger.shed > 0
    invariants["aggressor-quarantined"] = breaker.quarantines >= 1
    invariants["victims-unperturbed"] = _fingerprints(
        active, victims
    ) == _fingerprints(baseline, victims)
    invariants["victim-miss-band"] = (
        tally["victim_miss_delta"] <= VICTIM_MISS_BAND
    )
    invariants["victims-never-quarantined"] = not any(
        active.breakers[name].quarantines for name in victims
    )
    invariants["admission-conserved"] = (
        not active.admission.verify() and not baseline.admission.verify()
    )
    invariants["key-agreement"] = not active.check_agreement()


# -- plan: tenant-wal-corruption ---------------------------------------


def _run_wal_corruption(soak):
    from repro.chaos.faults import FaultPlan, IoFault
    from repro.chaos.seams import FaultyFilesystem
    from repro.service.churn import PoissonChurn

    n_tenants, n_ticks, root, seed, obs, say, tally = _start(soak)
    half = n_ticks // 2
    registry = make_fleet(n_tenants, seed=seed, interval_ticks=1)
    names = registry.names
    corrupt_name = names[len(names) // 3]
    storm_name = names[(2 * len(names)) // 3]
    say(
        "tenancy-soak: tenant-wal-corruption, seed %d, %d tenants, "
        "%d ticks (flip %s at tick %d; wal-write storm on %s)"
        % (seed, n_tenants, n_ticks, corrupt_name, half, storm_name)
    )
    # The storm plan is bound to one tenant's filesystem seam only: its
    # occurrence counter counts that tenant's WAL writes alone.
    fault = FaultPlan(
        name="tenant-wal-corruption",
        seed=seed,
        io_faults=(IoFault("wal-write", at=STORM_AT, times=1 << 20),),
    ).bind(obs)
    fs_overrides = {storm_name: FaultyFilesystem(fault)}
    clock = FaultyClock()

    def drivers():
        return {name: PoissonChurn(alpha=0.1) for name in names}

    first = MultiGroupDaemon.start_new(
        registry,
        root,
        churn=drivers(),
        fs_overrides=fs_overrides,
        obs=obs,
        clock=clock,
    )
    try:
        first.run_ticks(half)
        seg1_conserved = not first.admission.verify()
    finally:
        first.close()

    # Damage one tenant's log at rest, then restart the whole fleet
    # through recovery — the blast radius must be that tenant's WAL.
    # A flip that lands on the final line reads as a torn append (which
    # recovery forgives without quarantining), so keep flipping until
    # the scan actually reports damage; the flip offsets come from the
    # plan RNG over seed-determined file contents, so the loop is as
    # deterministic as a single flip.
    from repro.service.wal import scan_records

    fault.set_interval(half)
    wal_path = os.path.join(
        tenant_state_dir(root, corrupt_name), "wal.jsonl"
    )
    for _ in range(8):
        fault.flip_byte(wal_path)
        if scan_records(wal_path)[1] is not None:
            break
    else:  # pragma: no cover - 8 misses of the non-final lines
        raise ChaosError(
            "wal byte-flips never produced detectable damage"
        )
    if obs.enabled:
        obs.emit("soak_restart", interval=half, faults=["tenant-wal-flip"])
    say("  tick %d: flipped a byte of %s's WAL; recovering the fleet"
        % (half, corrupt_name))
    daemon = MultiGroupDaemon.recover_all(
        root,
        churn=drivers(),
        fs_overrides=fs_overrides,
        obs=obs,
        clock=clock,
    )
    tally["restarts"] = 1
    try:
        daemon.run_ticks(n_ticks - half)
        _tally_fleet(tally, first, daemon)
        quarantine_events = [
            event
            for event in soak.events
            if event["kind"] == "wal_quarantine"
        ]
        invariants = soak.result.invariants
        invariants["completed"] = tally["ticks_completed"] == n_ticks
        invariants["wal-quarantine-isolated"] = len(
            quarantine_events
        ) == 1 and quarantine_events[0]["detail"].get(
            "tenant"
        ) == corrupt_name
        invariants["corrupt-tenant-caught-up"] = (
            daemon.daemons[corrupt_name].server.intervals_processed
            == n_ticks
        )
        invariants["storm-tenant-benched"] = (
            daemon.breakers[storm_name].quarantines >= 1
        )
        invariants["neighbors-complete"] = all(
            daemon.daemons[name].server.intervals_processed == n_ticks
            for name in names
            if name != storm_name
        )
        invariants["admission-conserved"] = (
            seg1_conserved and not daemon.admission.verify()
        )
        invariants["key-agreement"] = not daemon.check_agreement()
    finally:
        daemon.close()


# -- plan: mass-rehome -------------------------------------------------


def _run_mass_rehome(soak):
    from repro.service.churn import PoissonChurn
    from repro.service.daemon import CrashPlan, DaemonConfig, DaemonCrash
    from repro.tenancy.failover import fleet_lease, promote_all

    n_tenants, n_ticks, root, seed, obs, say, tally = _start(soak)
    registry = make_fleet(
        n_tenants, seed=seed, n_members=3, interval_ticks=1
    )
    crash_name = registry.names[int(n_tenants * 0.6) % n_tenants]
    crash_tick = n_ticks // 2
    say(
        "tenancy-soak: mass-rehome, seed %d, %d tenants, %d ticks "
        "(leader dies mid-tick %d at %s)"
        % (seed, n_tenants, n_ticks, crash_tick, crash_name)
    )

    def drivers():
        return {
            name: PoissonChurn(alpha=0.15) for name in registry.names
        }

    def service_factory(spec):
        if spec.name == crash_name:
            return DaemonConfig(
                crash_plan=CrashPlan(
                    interval=crash_tick, point="post-delivery"
                )
            )
        return DaemonConfig()

    clock = FaultyClock()
    leader = MultiGroupDaemon.start_new(
        registry,
        root,
        churn=drivers(),
        service_factory=service_factory,
        obs=obs,
        clock=clock,
        lease=fleet_lease(
            root, "leader-0", ttl=LEASE_TTL, clock=clock, obs=obs
        ),
    )
    crashed = False
    try:
        for _ in range(n_ticks):
            try:
                leader.tick()
            except DaemonCrash:
                crashed = True
                break
    finally:
        # The stand-in for SIGKILL: nothing below writes state — the
        # close only returns the dead process's file handles.
        leader.close()
    say(
        "  leader died after %d full ticks (%d tenant intervals); "
        "waiting out the lease"
        % (leader.ticks, leader.intervals_total)
    )
    clock.sleep(LEASE_TTL + 1.0)

    promoted, report = promote_all(
        root,
        "standby-1",
        ttl=LEASE_TTL,
        churn=drivers(),
        obs=obs,
        clock=clock,
    )
    tally["promotions"] = 1
    tally["rehomed"] = report.tenants
    tally["digests_verified"] = report.digests_verified
    tally["requests_replayed"] = report.requests_replayed
    tally["final_epoch"] = report.epoch
    say(
        "  promoted: %d tenants re-homed under epoch %d "
        "(%d digests verified, %d requests replayed)"
        % (
            report.tenants,
            report.epoch,
            report.digests_verified,
            report.requests_replayed,
        )
    )
    try:
        promoted.run_ticks(n_ticks - leader.ticks)
        tally["ticks_completed"] = leader.ticks + promoted.ticks
        tally["intervals_total"] = (
            leader.intervals_total + promoted.intervals_total
        )
        tally["quarantines"] = sum(
            b.quarantines for b in promoted.breakers.values()
        )
        audits = [
            audit_wal(
                os.path.join(tenant_state_dir(root, name), "wal.jsonl"),
                tenant.server.intervals_processed,
            )
            for name, tenant in promoted.daemons.items()
        ]
        invariants = soak.result.invariants
        invariants["leader-crashed"] = crashed
        invariants["completed"] = tally["ticks_completed"] == n_ticks
        invariants["rehomed-all"] = report.tenants == n_tenants
        invariants["digests-verified"] = (
            report.ok and report.digests_verified == n_tenants
        )
        invariants["no-interval-lost"] = all(a[1] for a in audits)
        invariants["wal-epochs-monotonic"] = all(a[2] for a in audits)
        invariants["final-epoch"] = report.epoch == 2
        invariants["key-agreement"] = not promoted.check_agreement()
        invariants["admission-conserved"] = (
            not promoted.admission.verify()
        )
    finally:
        promoted.close()


SOAK_FAMILY = SoakFamily(
    command="tenancy-soak",
    plans={
        # minimum sizes: the smallest fleet each plan's cast of
        # characters fits in (aggressor + victim; a WAL victim, a storm
        # victim, a neighbor and the flip target; a crasher + the
        # re-homed) and the ticks its schedule needs
        "noisy-neighbor": SoakPlan(
            _run_noisy_neighbor,
            sizes={"tenants": 32, "ticks": 12},
            minimum={"tenants": 2, "ticks": 1},
            description=(
                "one tenant's flash crowd is shed and quarantined while "
                "every victim tenant finishes byte-identical to an "
                "aggressor-free run"
            ),
        ),
        "tenant-wal-corruption": SoakPlan(
            _run_wal_corruption,
            sizes={"tenants": 24, "ticks": 10},
            minimum={"tenants": 4, "ticks": 4},
            description=(
                "a WAL byte-flip quarantines only its own tenant's log and "
                "an I/O-storm tenant is benched; neighbors complete every "
                "interval"
            ),
        ),
        "mass-rehome": SoakPlan(
            _run_mass_rehome,
            sizes={"tenants": 1000, "ticks": 4},
            minimum={"tenants": 2, "ticks": 3},
            description=(
                "a standby re-homes every tenant of a killed leader under "
                "one new epoch: digests verify, no committed interval is "
                "lost"
            ),
        ),
    },
    kinds=TENANCY_TIMELINE_KINDS,
    invariant_event="tenancy_invariant",
    counters={
        "tenants": 0,
        "ticks_target": 0,
        "ticks_completed": 0,
        "intervals_total": 0,
        "shed_total": 0,
        "quarantines": 0,
        "restarts": 0,
        "promotions": 0,
        "rehomed": 0,
        "digests_verified": 0,
        "requests_replayed": 0,
        "final_epoch": 0,
        #: largest |victim miss-rate - baseline miss-rate|
        #: (noisy-neighbor)
        "victim_miss_delta": 0.0,
        #: the aggressor's admission ledger and breaker (noisy-neighbor)
        "aggressor": {},
    },
    targets={"tenants": "tenants", "ticks_target": "ticks"},
    complete_event="tenancy_complete",
    complete_fields={
        "ticks": "ticks_completed",
        "intervals": "intervals_total",
        "shed": "shed_total",
        "quarantines": "quarantines",
    },
    state_key="state_root",
)

#: the tenancy plans, in documentation order
TENANCY_PLAN_NAMES = tuple(SOAK_FAMILY.plans)
