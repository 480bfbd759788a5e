"""The multi-group daemon: thousands of tenants, one run queue.

:class:`MultiGroupDaemon` runs one
:class:`~repro.service.daemon.RekeyDaemon` per registered tenant —
each with its own WAL and snapshot under ``<root>/tenants/<name>/``,
its own scheme knobs, and its own churn stream — on one shared
deadline scheduler (:mod:`repro.tenancy.scheduler`).  One tick is one
pass of the run queue:

1. quarantined tenants absorb their offered churn into the
   ``quarantined`` admission bucket and count down their cooldown;
2. each due tenant's churn is drawn, admitted against its quota
   (overflow is shed at the door), and submitted to its daemon;
3. the scheduler plans the tick against the cost budget — compliant
   tenants in deadline order, whales last, the overflow deferred;
4. scheduled tenants run one interval each (an over-budget tenant runs
   degraded: the existing deadline-degradation path, forced to the
   cheap carry policy), committing it to their own WAL with its state
   digest, and strikes/failures feed their quarantine breakers.

A tenant's *failure* (WAL write refused, interval error) trips its
breaker and benches it; its neighbors' tick continues.  A
:class:`~repro.service.daemon.DaemonCrash` is different — that is the
injected SIGKILL stand-in, and it kills the whole process, exactly
like the single-group daemon.

All tenants share **one fencing domain**: the one lease under the
storage root.  Its epoch is stamped into every tenant's WAL and
snapshot, so bulk failover (:func:`repro.tenancy.failover.promote_all`)
fences a deposed leader out of *every* tenant's write path with a
single acquisition.
"""

from __future__ import annotations

import os

from repro.chaos.seams import REAL_FILESYSTEM, SYSTEM_CLOCK
from repro.errors import ReproError, TenancyError, WalError
from repro.obs.recorder import NULL
from repro.service.daemon import DaemonConfig, RekeyDaemon
from repro.tenancy.quotas import AdmissionController, TenantBreaker
from repro.tenancy.registry import TenantRegistry
from repro.tenancy.scheduler import DeadlineScheduler, estimate_cost
from repro.util.rng import RandomSource

#: per-tenant state lives under ``<root>/tenants/<name>/``
TENANTS_DIRNAME = "tenants"


def tenant_state_dir(state_root, name):
    return os.path.join(os.fspath(state_root), TENANTS_DIRNAME, name)


class MultiGroupDaemon:
    """Every tenant's rekey daemon behind one deadline scheduler."""

    def __init__(
        self,
        registry,
        state_root,
        daemons,
        churn=None,
        budget=None,
        solo_fraction=0.5,
        breaker_threshold=3,
        breaker_cooldown=4,
        obs=None,
        fs=None,
        clock=None,
        lease=None,
    ):
        if not isinstance(registry, TenantRegistry) or not len(registry):
            raise TenancyError("MultiGroupDaemon needs a non-empty registry")
        self.registry = registry
        self.state_root = os.fspath(state_root)
        self.daemons = daemons
        self.churn = dict(churn or {})
        self.obs = obs if obs is not None else NULL
        self.fs = fs if fs is not None else REAL_FILESYSTEM
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        #: the single fencing domain (``None`` = standalone)
        self.lease = lease
        self.ticks = 0
        self.intervals_total = 0
        self.admission = AdmissionController()
        self.scheduler = DeadlineScheduler(
            budget=budget, solo_fraction=solo_fraction
        )
        self.breakers = {}
        self._rngs = {}
        for spec in registry:
            self.admission.register(spec.name, quota=spec.quota)
            self.scheduler.register(
                spec.name, interval_ticks=spec.interval_ticks
            )
            self.breakers[spec.name] = TenantBreaker(
                threshold=breaker_threshold, cooldown=breaker_cooldown
            )
            # One churn stream per tenant *interval*, spawned from the
            # tenant's seed: stream i is the i-th spawn, so a recovered
            # fleet re-synchronises by interval count alone, and one
            # tenant's draws never perturb another's (the isolation the
            # noisy-neighbor soak pins as byte equality).
            self._rngs[spec.name] = RandomSource(spec.config.seed)

    # -- construction --------------------------------------------------

    @classmethod
    def start_new(
        cls,
        registry,
        state_root,
        churn=None,
        budget=None,
        solo_fraction=0.5,
        breaker_threshold=3,
        breaker_cooldown=4,
        backend_factory=None,
        service_factory=None,
        obs=None,
        fs=None,
        clock=None,
        retry=None,
        fs_overrides=None,
        epoch=None,
        fence=None,
        lease=None,
    ):
        """Boot every tenant fresh and persist the registry at the root.

        ``backend_factory`` / ``service_factory`` map a spec to that
        tenant's delivery backend / :class:`DaemonConfig` (defaults:
        loss-free direct delivery, a durable config with invariant
        checks on); ``fs_overrides`` swaps one tenant's filesystem seam
        (how the chaos harness storms a single tenant's I/O).  With a
        ``lease``, its epoch fences every tenant's WAL.
        """
        obs = obs if obs is not None else NULL
        fs = fs if fs is not None else REAL_FILESYSTEM
        fs_overrides = dict(fs_overrides or {})
        if lease is not None and epoch is None:
            epoch = lease.acquire()
            fence = lease
        registry.save(state_root, fs=fs)
        daemons = {}
        for spec in registry:
            service = (
                service_factory(spec) if service_factory is not None
                else DaemonConfig()
            )
            service.state_dir = tenant_state_dir(state_root, spec.name)
            daemons[spec.name] = RekeyDaemon.start_new(
                spec.initial_members(),
                config=spec.config,
                backend=(
                    backend_factory(spec) if backend_factory is not None
                    else None
                ),
                service=service,
                seed=spec.config.seed,
                obs=obs,
                fs=fs_overrides.get(spec.name, fs),
                clock=clock,
                retry=retry,
                epoch=epoch,
                fence=fence,
            )
        return cls(
            registry,
            state_root,
            daemons,
            churn=churn,
            budget=budget,
            solo_fraction=solo_fraction,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            obs=obs,
            fs=fs,
            clock=clock,
            lease=lease,
        )

    @classmethod
    def recover_all(
        cls,
        state_root,
        churn=None,
        budget=None,
        solo_fraction=0.5,
        breaker_threshold=3,
        breaker_cooldown=4,
        backend_factory=None,
        service_factory=None,
        obs=None,
        fs=None,
        clock=None,
        retry=None,
        fs_overrides=None,
        epoch=None,
        fence=None,
        lease=None,
    ):
        """Recover every registered tenant from the shared root.

        The registry on disk is the tenant discovery mechanism: a
        standby needs nothing but the storage root.  Each tenant walks
        the ordinary single-group recovery ladder (snapshot + WAL
        replay, fleet resync); per-tenant ``rehomed`` bookkeeping is
        left to :func:`repro.tenancy.failover.promote_all`, which also
        verifies the recorded digests.
        """
        obs = obs if obs is not None else NULL
        fs = fs if fs is not None else REAL_FILESYSTEM
        fs_overrides = dict(fs_overrides or {})
        registry = TenantRegistry.load(state_root, fs=fs)
        bus = obs.bus if obs.enabled else None
        daemons = {}
        for spec in registry:
            service = (
                service_factory(spec) if service_factory is not None
                else DaemonConfig()
            )
            # Recovery-time events (wal_quarantine, recovery, replay)
            # must say whose state they describe.
            if bus is not None:
                bus.set_context(tenant=spec.name)
            try:
                daemons[spec.name] = RekeyDaemon.recover(
                    tenant_state_dir(state_root, spec.name),
                    config=spec.config,
                    backend=(
                        backend_factory(spec) if backend_factory is not None
                        else None
                    ),
                    service=service,
                    seed=spec.config.seed,
                    obs=obs,
                    fs=fs_overrides.get(spec.name, fs),
                    clock=clock,
                    retry=retry,
                    epoch=epoch,
                    fence=fence,
                )
            finally:
                if bus is not None:
                    bus.set_context(tenant=None)
        daemon = cls(
            registry,
            state_root,
            daemons,
            churn=churn,
            budget=budget,
            solo_fraction=solo_fraction,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            obs=obs,
            fs=fs,
            clock=clock,
            lease=lease,
        )
        # Churn RNG replay: a recovered fleet must not rewind a
        # tenant's workload stream.  Streams are spawned per interval,
        # so skipping the completed intervals' spawns re-synchronises
        # exactly — independent of the membership history.
        for name, tenant in daemons.items():
            if daemon.churn.get(name) is None:
                continue
            # a replay interval's batch was drawn before the crash (its
            # requests are in the WAL), so its stream is consumed too
            done = tenant.server.intervals_processed
            if tenant._replay_interval:
                done += 1
            for _ in range(done):
                daemon._rngs[name].generator()
        return daemon

    # -- the tick ------------------------------------------------------

    def tenant(self, name):
        try:
            return self.daemons[name]
        except KeyError:
            raise TenancyError("unknown tenant %r" % (name,)) from None

    def quarantined_names(self):
        return [
            name for name, breaker in self.breakers.items()
            if breaker.quarantined
        ]

    def _emit_tenant(self, kind, name, **detail):
        if self.obs.enabled:
            self.obs.emit(kind, tenant=name, **detail)

    def _offered_events(self, name, tenant):
        """Draw this tenant's offered churn for its next interval."""
        driver = self.churn.get(name)
        if driver is None:
            return None
        return driver.events(
            tenant.server.intervals_processed,
            set(tenant.server.users),
            self._rngs[name].generator(),
        )

    def _intake(self, name, tenant):
        """Admission + submission; returns (shed, failed)."""
        if tenant._replay_interval:
            # The recovery discipline: the replay interval consumes the
            # WAL's re-queued requests only.  Offering fresh churn now
            # would mix new requests into the re-run rekey, so the
            # outside world's next batch waits one tick.
            return 0, False
        events = self._offered_events(name, tenant)
        if events is None or not events.n_events:
            return 0, False
        admitted, shed = self.admission.admit(name, events)
        if shed:
            self._emit_tenant(
                "tenant_shed", name,
                offered=events.n_events, shed=shed,
            )
            self.obs.count("tenancy_shed_requests", by=shed, tenant=name)
        failed = False
        for op, user in [("join", u) for u in admitted.joins] + [
            ("leave", u) for u in admitted.leaves
        ]:
            try:
                if op == "join":
                    tenant.submit_join(user)
                else:
                    tenant.submit_leave(user)
            except WalError:
                # Accepted but not durable: the tenant's storage is
                # refusing writes.  This is the failure mode the
                # breaker exists for — bench the tenant, keep the
                # queue moving.
                failed = True
                self._emit_tenant(
                    "tenant_failure", name, op=op, stage="wal-append"
                )
                break
            except ReproError:
                # invalid request (duplicate join, unknown leaver) —
                # the tenant daemon's ordinary rejection path
                pass
        return shed, failed

    def _run_tenant(self, name, degraded):
        """One tenant interval; returns ``(ok, failed)``.

        ``degraded`` forces the carry policy — the existing
        deadline-degradation path — for this run (load shedding for a
        tenant over its cost share).  Failures are isolated: any error
        except the injected :class:`DaemonCrash` is recorded against
        this tenant alone.
        """
        tenant = self.daemons[name]
        bus = self.obs.bus if self.obs.enabled else None
        if bus is not None:
            bus.set_context(tenant=name)
        previous_policy = tenant.service.deadline_policy
        if degraded:
            tenant.service.deadline_policy = "carry"
            self._emit_tenant("tenant_degraded", name, policy="carry")
        try:
            record = tenant.run_interval()
        except (ReproError, OSError) as exc:
            from repro.service.daemon import DaemonCrash

            if isinstance(exc, DaemonCrash):
                raise  # the SIGKILL stand-in: the whole process dies
            self._emit_tenant(
                "tenant_failure", name, stage="interval",
            )
            self.obs.count("tenancy_tenant_failures", tenant=name)
            return False, True
        finally:
            tenant.service.deadline_policy = previous_policy
            if bus is not None:
                bus.set_context(tenant=None, interval=None, trace=None)
        self.intervals_total += 1
        self._emit_tenant(
            "tenant_interval", name,
            interval=record.interval,
            members=record.n_members,
            joins=record.n_joins,
            leaves=record.n_leaves,
            decision=record.decision,
            degraded=bool(degraded),
        )
        if self.obs.enabled:
            self.obs.count("tenancy_intervals", tenant=name)
            self.obs.gauge("tenancy_members", record.n_members, tenant=name)
            self.obs.gauge(
                "tenancy_epoch",
                0 if tenant.epoch is None else tenant.epoch,
            )
        return True, False

    def tick(self):
        """One scheduler tick over the whole fleet; returns its plan."""
        tick = self.ticks
        if self.lease is not None:
            self.lease.renew()
        shed_total = 0
        failed = set()
        # 1. quarantined tenants: absorb offered load, count cooldown
        quarantined = set(self.quarantined_names())
        for name in self.registry.names:
            if name not in quarantined:
                continue
            tenant = self.daemons[name]
            events = self._offered_events(name, tenant)
            if events is not None and events.n_events:
                self.admission.admit(name, events, quarantined=True)
                self.obs.count(
                    "tenancy_quarantined_requests",
                    by=events.n_events, tenant=name,
                )
            transition = self.breakers[name].tick_quarantine()
            if transition is not None:
                self._emit_tenant(transition, name, tick=tick)
                self.scheduler.defer_quarantined(name, tick)
        # 2. intake + cost estimation for schedulable due tenants
        due = self.scheduler.due(tick, skip=quarantined)
        costs = {}
        for name in due:
            tenant = self.daemons[name]
            shed, intake_failed = self._intake(name, tenant)
            shed_total += shed
            if intake_failed:
                failed.add(name)
            joins, leaves = tenant.server.pending_requests
            costs[name] = estimate_cost(
                tenant.server.n_users,
                len(joins) + len(leaves),
                degree=tenant.server.config.degree,
            )
        # A tenant whose intake already failed is struck immediately;
        # scheduling it this tick would only fail again.
        for name in failed:
            transition = self.breakers[name].trip()
            self._emit_tenant(transition, name, tick=tick, reason="failure")
            self.scheduler.defer_quarantined(name, tick)
        plan = self.scheduler.plan(
            tick, costs, skip=quarantined | failed
        )
        over_budget = set(plan.over_budget)
        for name in plan.over_budget:
            self._emit_tenant(
                "tenant_overload", name, tick=tick, cost=costs[name]
            )
        for name in plan.deferred:
            self._emit_tenant("tenant_deferred", name, tick=tick)
            self.obs.count("tenancy_deadline_misses", tenant=name)
        # 3. run the scheduled intervals
        for name in plan.run:
            ok, run_failed = self._run_tenant(name, name in over_budget)
            if run_failed:
                transition = self.breakers[name].trip()
                self._emit_tenant(
                    transition, name, tick=tick, reason="failure"
                )
                self.scheduler.defer_quarantined(name, tick)
            else:
                transition = self.breakers[name].record(
                    name in over_budget
                )
                if transition is not None:
                    self._emit_tenant(
                        transition, name, tick=tick, reason="overload"
                    )
                    if transition == "tenant_quarantine":
                        self.scheduler.defer_quarantined(name, tick)
        # a whale that did not even fit the leftover budget is still a
        # strike — it is the tenant shedding load, not its neighbors
        for name in plan.deferred:
            if name in over_budget:
                transition = self.breakers[name].record(True)
                if transition is not None:
                    self._emit_tenant(
                        transition, name, tick=tick, reason="overload"
                    )
                    self.scheduler.defer_quarantined(name, tick)
        if self.obs.enabled:
            self.obs.emit(
                "tenancy_tick",
                tick=tick,
                ran=len(plan.run),
                deferred=len(plan.deferred),
                quarantined=len(quarantined),
                shed=shed_total,
                cost=plan.cost_total,
            )
        self.ticks += 1
        return plan

    def run_ticks(self, n):
        """Run ``n`` ticks back to back; returns the plans."""
        return [self.tick() for _ in range(int(n))]

    # -- introspection -------------------------------------------------

    def health(self):
        quarantined = self.quarantined_names()
        report = {
            "status": "degraded" if quarantined else "ok",
            "tenants": len(self.registry),
            "ticks": self.ticks,
            "intervals_total": self.intervals_total,
            "quarantined": quarantined,
            "scheduler": self.scheduler.snapshot(),
            "admission": self.admission.to_dict(),
            "ha": {
                "role": "standalone" if self.lease is None else "leader",
                "epoch": (
                    0 if self.lease is None or self.lease.epoch is None
                    else self.lease.epoch
                ),
            },
        }
        report["tenant_health"] = {
            name: {
                "members": tenant.server.n_users,
                "intervals": tenant.server.intervals_processed,
                "breaker": self.breakers[name].snapshot(),
                "misses": self.scheduler.misses[name],
            }
            for name, tenant in self.daemons.items()
        }
        return report

    def check_agreement(self):
        """Per-tenant key agreement; returns the disagreeing tenants.

        Quarantined tenants are skipped — a benched tenant may hold
        carried-over members mid-degradation by design; it is checked
        again once its trial restores it.
        """
        broken = []
        quarantined = set(self.quarantined_names())
        for name, tenant in self.daemons.items():
            if name in quarantined:
                continue
            try:
                tenant.fleet.check_agreement(
                    tenant.server, exclude=tenant.pending_carry_names()
                )
            except ReproError:
                broken.append(name)
        return broken

    def close(self):
        for tenant in self.daemons.values():
            tenant.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self):
        return "MultiGroupDaemon(tenants=%d, ticks=%d, intervals=%d)" % (
            len(self.registry), self.ticks, self.intervals_total
        )
