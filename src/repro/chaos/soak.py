"""The soak harness: every fault-soak family runs through :func:`run_soak`.

A soak drives part of the system under a deterministic fault plan,
checks its **invariants** at the end, and reduces the run's
fault/recovery events to a **digest**: the same ``(plan, seed)`` must
produce the same digest on every machine, which is what the CI smoke
jobs and the determinism tests pin.  Five families share this harness:

- ``chaos`` (below) — one durable daemon under I/O errors, at-rest
  WAL/snapshot damage, clock jumps and mangled NACK feedback;
- ``ha`` (:mod:`repro.ha.soak`) — a leader/standby pair under a
  cluster fault plan;
- ``wire`` (:mod:`repro.wire.chaos`) — the UDP wire plane under
  datagram faults, client deaths and a live-fleet leader kill;
- ``fleet`` (:mod:`repro.wire.fleet`) — the same wire plane with no
  faults at all: hundreds to thousands of clients under seeded loss,
  digested by their per-interval protocol records;
- ``tenancy`` (:mod:`repro.tenancy.soak`) — the multi-tenant daemon
  under abuse.

A family is a :class:`SoakFamily` record of plain data: its plans (a
runner plus default and minimum sizes each), what its digest hashes
(the event timeline, or the wire backend's per-interval records), the
event kinds its timeline keeps, whether that timeline is ordered or
sorted, and the event names it emits.  The harness owns everything
else: the event bus (with one stream per process under ``obs_dir``),
the run's evidence — every event of the family's kinds, collected as
it is emitted, so the bus's bounded ring never truncates it — plan
resolution and size checks (before anything runs), the scratch state
dir, invariant events, mapping run-time errors to ``result.failure``,
and the projection and digest.

The chaos family's single-node plans assert:

- ``completed`` — every planned interval ran (recovery never wedged);
- ``key-agreement`` — no member's key state disagrees with the server
  (also checked *every* interval by the daemon itself);
- ``recovery-bounded`` — each restart resumed exactly where the damage
  struck, never behind it (WAL replay re-runs every committed interval,
  so even the ``.prev`` fallback loses none);
- ``wal-roundtrip`` — the final WAL replays cleanly end to end;
- ``snapshot-roundtrip`` — a fresh snapshot written at the end loads
  back byte-equivalent (same interval count, same group key).

A plan with ``expect_recoverable=False`` is *supposed* to end in
:class:`~repro.errors.RecoveryError`; the result records the diagnostic
instead of raising, and the CLI turns it into a non-zero exit.
"""

from __future__ import annotations

import copy
import importlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.chaos.faults import FeedbackChaos
from repro.chaos.plans import (
    HA_PLAN_NAMES,
    PLAN_DESCRIPTIONS,
    PLAN_INTERVALS,
    PLAN_NAMES,
    make_plan,
)
from repro.chaos.seams import FaultyClock, FaultyFilesystem
from repro.errors import ChaosError, ReproError, WorkerCrashError
from repro.obs.events import CHAOS_EVENT_KINDS, HA_EVENT_KINDS, EventBus
from repro.obs.recorder import Recorder
from repro.util import canonical_digest, canonical_json

#: event kinds that define a run's reproducible fault/recovery timeline
#: (the HA kinds and "crash" never fire in the single-node plans, so
#: adding them left the pinned single-node digests unchanged)
TIMELINE_KINDS = frozenset(
    CHAOS_EVENT_KINDS
    | HA_EVENT_KINDS
    | {"recovery", "degradation", "crash"}
)

#: detail keys dropped from the digest: human-facing strings that embed
#: absolute paths or OS error text, plus observability annotations that
#: ride on every event via the bus context (the distributed-trace id is
#: deterministic in (seed, interval) but is an annotation, not a fault
#: -timeline fact — keeping it out preserves the historical pins)
_VOLATILE_KEYS = ("error", "trace")

#: family name -> the module whose ``SOAK_FAMILY`` defines it (imported
#: on first use: the families reach up into the service, HA, wire and
#: tenancy layers, which themselves import the chaos seams)
FAMILY_MODULES = {
    "chaos": "repro.chaos.soak",
    "ha": "repro.ha.soak",
    "wire": "repro.wire.chaos",
    "fleet": "repro.wire.fleet",
    "tenancy": "repro.tenancy.soak",
}


def canonical_timeline(events, kinds, ordered=True):
    """The digest-stable projection of a run's events.

    Only events whose kind is in ``kinds`` are kept; wall-clock times
    (the envelope ``t``) and volatile detail keys are dropped, and any
    path-valued detail is reduced to its basename, so two runs in
    different temp dirs at different times still compare equal byte for
    byte.  ``ordered=False`` sorts the entries: for runs whose events
    arrive in scheduler order, only the set is deterministic.
    """
    timeline = []
    for event in events:
        if event["kind"] not in kinds:
            continue
        detail = {}
        for key, value in event["detail"].items():
            if key in _VOLATILE_KEYS:
                continue
            if isinstance(value, str) and os.sep in value:
                value = os.path.basename(value)
            detail[key] = value
        timeline.append({"kind": event["kind"], "detail": detail})
    if not ordered:
        timeline.sort(key=canonical_json)
    return timeline


@dataclass(frozen=True)
class SoakPlan:
    """One named plan of a family: its runner and its sizes."""

    #: ``run(soak)`` drives the plan given a :class:`SoakRun`, filling
    #: ``soak.result``'s counters and invariants
    run: object
    #: overridable size -> default (``intervals``, ``members``, ...)
    sizes: dict
    #: size -> the smallest value the plan's cast of characters fits in
    minimum: dict = field(default_factory=dict)
    description: str = ""
    #: the family's own plan object, when it has one (wire plans)
    spec: object = None


@dataclass(frozen=True)
class SoakFamily:
    """Everything that distinguishes one soak family, as data."""

    #: the CLI command, also the log and error label
    command: str
    #: plan name -> :class:`SoakPlan`
    plans: dict
    #: event kinds the run collects as its evidence (:attr:`SoakRun.
    #: events`), all of which the timeline's projection keeps
    kinds: frozenset
    #: the :class:`SoakResult` field the digest hashes: ``"timeline"``
    #: (the projection of the run's events) or ``"records"`` (the wire
    #: backend's canonical per-interval protocol records)
    digest_of: str = "timeline"
    #: ordered timeline, or sorted (scheduler-ordered events)
    ordered: bool = True
    invariant_event: str = "soak_invariant"
    #: the family's result counters and their starting values; with the
    #: shared keys they make up the family's ``to_dict()`` key set
    counters: dict = field(default_factory=dict)
    #: counter -> the size it starts at (``intervals_target``, ...)
    targets: dict = field(default_factory=dict)
    #: summary event emitted once per run (``None``: none), its detail
    #: keys -> counter names, and whether it follows the digest (and
    #: then carries it) or precedes it (and then is digested)
    complete_event: str = None
    complete_fields: dict = field(default_factory=dict)
    complete_after_digest: bool = False
    #: the size override naming a caller-owned state dir, if any
    state_key: str = None
    #: plan names of other families -> why this family cannot run them
    refused: dict = field(default_factory=dict)
    #: ``adopt(spec)`` turns a ready family plan object into a
    #: :class:`SoakPlan` (only the wire family takes them)
    adopt: object = None

    def plan_entry(self, plan):
        """``(name, SoakPlan)`` for a plan name or a ready plan object."""
        if not isinstance(plan, str):
            return plan.name, self.adopt(plan)
        if plan in self.refused:
            raise ChaosError("plan %r %s" % (plan, self.refused[plan]))
        if plan not in self.plans:
            raise ChaosError(
                "unknown %s plan %r (valid: %s)"
                % (self.command, plan, ", ".join(self.plans))
            )
        return plan, self.plans[plan]


def soak_family(family):
    """The :class:`SoakFamily` named ``family`` (or ``family`` itself)."""
    if isinstance(family, SoakFamily):
        return family
    return importlib.import_module(FAMILY_MODULES[family]).SOAK_FAMILY


@dataclass
class SoakResult:
    """Everything one soak run observed and concluded, for any family."""

    plan: str
    seed: int
    #: the family's own tallies (restarts, promotions, evictions, ...);
    #: readable as attributes and flattened into :meth:`to_dict`
    counters: dict = field(default_factory=dict)
    #: invariant name -> bool (empty when the run failed before the end)
    invariants: dict = field(default_factory=dict)
    #: the canonical event projection (see canonical_timeline)
    timeline: list = field(default_factory=list)
    #: the wire backend's canonical per-interval protocol records (wire
    #: runs with one daemon; the fleet family's digest input)
    records: list = field(default_factory=list)
    digest: str = ""
    #: events the bus's ring dropped (the timeline is read from the
    #: run's own evidence list, not the ring); reported, never digested
    events_dropped: int = 0
    #: the terminal diagnostic, when the run could not finish
    failure: object = None

    def __getattr__(self, name):
        counters = self.__dict__.get("counters", {})
        if name in counters:
            return counters[name]
        raise AttributeError(name)

    @property
    def ok(self):
        """Did the run match the plan's expectation?"""
        if not self.counters.get("expect_recoverable", True):
            return self.failure is not None
        return self.failure is None and bool(self.invariants) and all(
            self.invariants.values()
        )

    def to_dict(self):
        return {
            "plan": self.plan,
            "seed": self.seed,
            **copy.deepcopy(self.counters),
            "invariants": dict(self.invariants),
            "digest": self.digest,
            "events_dropped": self.events_dropped,
            "failure": None if self.failure is None else str(self.failure),
            "ok": self.ok,
        }


@dataclass
class SoakRun:
    """What a plan runner gets from :func:`run_soak`."""

    name: str
    #: the plan entry's ``spec`` (the family's own plan object, if any)
    spec: object
    seed: int
    #: resolved sizes: the plan's defaults with the caller's overrides
    sizes: dict
    state_dir: str
    #: where worker processes write their own event streams (``None``:
    #: no per-process streams)
    obs_dir: str
    obs: Recorder
    result: SoakResult
    say: object
    #: every event of the family's kinds so far, in emission order
    events: list


def steps(target, progress):
    """Yield ``progress()`` until it reaches ``target`` intervals.

    Replays and fallbacks can revisit an interval, so a soak loop is
    bounded by work done (``target * 3 + 8`` steps), not by a range
    over interval numbers; past that it raises :class:`ChaosError`.
    """
    budget = target * 3 + 8
    for _ in range(budget):
        done = progress()
        if done >= target:
            return
        yield done
    raise ChaosError(
        "soak wedged: %d steps but only %d/%d intervals done"
        % (budget, progress(), target)
    )


def agreement_ok(daemon):
    """Do all members (bar the pending carry) agree with the server?"""
    try:
        daemon.fleet.check_agreement(
            daemon.server, exclude=daemon.pending_carry_names()
        )
        return True
    except ReproError:
        return False


def audit_wal(path, intervals, fs=None):
    """Audit a log scanned strictly (any damage raises).

    Returns ``(records, nothing_lost, epochs_monotonic)``: whether each
    interval below ``intervals`` has its commit record, and whether the
    epoch fencing tokens never decrease along the log.
    """
    from repro.service.wal import epochs_monotonic, scan_records

    records, error = scan_records(path, fs)
    if error is not None:
        raise error
    committed = {
        int(record["interval"])
        for record in records
        if record.get("op") == "commit"
    }
    return (
        records,
        committed == set(range(intervals)),
        epochs_monotonic(records),
    )


def run_soak(family, plan, seed=7, log=None, obs_path=None, obs_dir=None,
             **overrides):
    """Run one soak; returns a :class:`SoakResult`.

    ``family`` is a family name (``chaos``, ``ha``, ``wire``, ``fleet``,
    ``tenancy``) or a :class:`SoakFamily`; ``plan`` is one of its plan
    names or, for families that take them, a ready plan object.
    ``overrides`` replace the plan's default sizes (``None`` keeps the
    default; the pinned digests hold only for the defaults) or name a
    caller-owned state dir, which is kept; a scratch dir the harness
    creates is removed.  Unknown plans and sizes below a plan's minimum
    raise :class:`ChaosError` before anything runs; run-time failures
    land in ``result.failure``.  ``log`` is an optional callable for
    progress lines (the CLI passes ``print``).

    ``obs_path`` writes the run's event stream as JSONL.  ``obs_dir``
    collects one line-buffered stream per process, so a dead process
    never loses its tail: the harness's own goes to
    ``<obs_dir>/server.jsonl`` (unless ``obs_path`` names another file)
    and a wire run's worker processes write ``worker-NN.jsonl`` beside
    it — what ``repro obs-report --trace-dir`` reads.
    """
    family = soak_family(family)
    seed = int(seed)
    state_dir = None
    if family.state_key is not None:
        state_dir = overrides.pop(family.state_key, None)
    name, entry = family.plan_entry(plan)
    unknown = sorted(set(overrides) - set(entry.sizes))
    if unknown:
        raise TypeError(
            "%s plan %r has no size(s) %s"
            % (family.command, name, ", ".join(unknown))
        )
    sizes = dict(entry.sizes)
    sizes.update(
        (key, int(value)) for key, value in overrides.items()
        if value is not None
    )
    for key, floor in sorted(entry.minimum.items()):
        if sizes[key] < floor:
            raise ChaosError(
                "plan %r needs at least %d %s, got %d"
                % (name, floor, key, sizes[key])
            )
    say = log if log is not None else (lambda line: None)
    owned = None
    if state_dir is None:
        state_dir = owned = tempfile.mkdtemp(prefix=family.command + "-")
    else:
        os.makedirs(state_dir, exist_ok=True)
    if obs_dir is not None:
        os.makedirs(obs_dir, exist_ok=True)
        if obs_path is None:
            obs_path = os.path.join(obs_dir, "server.jsonl")
    bus = EventBus(path=obs_path, line_buffered=obs_dir is not None)
    events = bus.tap(family.kinds)
    obs = Recorder(bus=bus)
    result = SoakResult(
        plan=name, seed=seed, counters=copy.deepcopy(family.counters)
    )
    for counter, size in family.targets.items():
        result.counters[counter] = sizes[size]
    soak = SoakRun(
        name, entry.spec, seed, sizes, state_dir, obs_dir, obs, result, say,
        events,
    )
    try:
        entry.run(soak)
        for invariant, passed in sorted(result.invariants.items()):
            obs.emit(
                family.invariant_event,
                invariant=invariant,
                passed=bool(passed),
            )
            say(
                "  invariant %-26s %s"
                % (invariant, "ok" if passed else "FAIL")
            )
    except ReproError as error:
        result.failure = error
        if isinstance(error, WorkerCrashError):
            result.counters["worker_crash"] = True
        say("  %s aborted: %s" % (family.command, error))
    finally:
        complete = {"plan": name, "seed": seed}
        for key, counter in family.complete_fields.items():
            complete[key] = result.counters[counter]
        if family.complete_event and not family.complete_after_digest:
            obs.emit(family.complete_event, **complete)
        result.timeline = canonical_timeline(
            events, family.kinds, family.ordered
        )
        result.events_dropped = bus.dropped
        result.digest = canonical_digest(getattr(result, family.digest_of))
        if family.complete_event and family.complete_after_digest:
            obs.emit(family.complete_event, digest=result.digest,
                     ok=result.ok, **complete)
        bus.close()
        if owned is not None:
            shutil.rmtree(owned, ignore_errors=True)
    return result


# -- the chaos family: one durable daemon under a fault plan -------------


def _apply_storage_fault(plan, fault, wal_path, snapshot_path):
    """Damage the durable files per one :class:`StorageFault`."""
    if fault.kind == "wal-flip":
        plan.flip_byte(wal_path)
    elif fault.kind == "wal-truncate":
        plan.truncate_tail(wal_path)
    elif fault.kind == "snapshot-flip":
        plan.flip_byte(snapshot_path)
    elif fault.kind == "snapshot-flip-all":
        plan.flip_byte(snapshot_path)
        previous = snapshot_path + ".prev"
        if os.path.exists(previous):
            plan.flip_byte(previous)
    else:  # pragma: no cover - STORAGE_KINDS is validated at plan build
        raise ChaosError("unhandled storage fault %r" % (fault.kind,))


def start_durable(fault_plan, seed, members, state_dir, obs, fs, clock,
                  start=None, **service):
    """A fresh durable daemon under ``fault_plan``.

    It runs on the lossy simulated transport (NACK feedback mangled per
    the plan) with Poisson churn and per-interval invariant checks.
    ``service`` overrides the daemon config, and the plan's own
    overrides win; ``start`` passes extra ``start_new`` arguments (an
    HA leader's epoch and fence).
    """
    from repro.core.config import GroupConfig
    from repro.service.churn import PoissonChurn
    from repro.service.daemon import DaemonConfig, RekeyDaemon
    from repro.service.transports import SessionDelivery

    config = GroupConfig(
        block_size=5, seed=seed, **fault_plan.group_overrides
    )
    service = {
        "state_dir": state_dir,
        "wal_compact_every": 4,
        "verify_invariants": True,
        **service,
        **fault_plan.daemon_overrides,
    }
    return RekeyDaemon.start_new(
        ["member-%03d" % index for index in range(members)],
        config=config,
        backend=SessionDelivery(
            config, seed=seed + 1, chaos=FeedbackChaos(fault_plan)
        ),
        churn=PoissonChurn(alpha=0.15),
        service=DaemonConfig(**service),
        seed=seed,
        obs=obs,
        fs=fs,
        clock=clock,
        **(start or {}),
    )


def run_single_node(fault_plan, seed, intervals, members, state_dir, obs,
                    tally, say=None, **service):
    """The single-node loop: one durable daemon for ``intervals``.

    Each interval applies the plan's clock jump, runs, then damages the
    durable files per the plan's storage faults and restarts the daemon
    through recovery; an injected
    :class:`~repro.service.daemon.DaemonCrash` also restarts it through
    recovery.  ``tally`` tracks ``restarts`` and
    ``intervals_completed`` even when the loop raises.  Returns the
    daemon, still open, and whether every restart resumed no interval
    behind where the damage struck.  The HA soak runs this
    same loop with ``obs=NULL`` as its single-node key oracle.
    """
    from repro.service.daemon import DaemonCrash, RekeyDaemon

    say = say if say is not None else (lambda line: None)
    fault_plan.bind(obs)
    fs = FaultyFilesystem(fault_plan)
    clock = FaultyClock()
    wal_path = os.path.join(state_dir, "wal.jsonl")
    snapshot_path = os.path.join(state_dir, "server.json")
    daemon = start_durable(
        fault_plan, seed, members, state_dir, obs, fs, clock, **service
    )
    config = daemon.server.config
    say(
        "chaos-soak: plan %r, seed %d, %d members, %d intervals"
        % (fault_plan.name, seed, members, intervals)
    )
    recovery_bounded = True
    fired_jumps = set()
    fired_storage = set()
    try:
        for current in steps(
            intervals, lambda: daemon.server.intervals_processed
        ):
            fault_plan.set_interval(current)
            if current not in fired_jumps:
                if fault_plan.apply_clock_jump(clock, current) is not None:
                    fired_jumps.add(current)
            processed_before = current
            try:
                daemon.run_interval()
            except DaemonCrash:
                # the crash already fired; the recovered daemon must
                # not trip over the same plan at its replay interval
                daemon.service.crash_plan = None
                due = []
            else:
                due = [
                    f
                    for f in fault_plan.storage_faults_after(current)
                    if (f.kind, f.after_interval) not in fired_storage
                ]
                if not due:
                    continue
                processed_before = daemon.server.intervals_processed
            daemon.close()
            if due:
                for storage_fault in due:
                    fired_storage.add(
                        (storage_fault.kind, storage_fault.after_interval)
                    )
                    _apply_storage_fault(
                        fault_plan, storage_fault, wal_path, snapshot_path
                    )
                obs.emit(
                    "soak_restart",
                    interval=current,
                    faults=[f.kind for f in due],
                )
                say(
                    "  interval %d: %s -> restarting through recovery"
                    % (current, ", ".join(f.kind for f in due))
                )
            daemon = RekeyDaemon.recover(
                state_dir,
                config=config,
                backend=daemon.backend,
                fleet=daemon.fleet,
                churn=daemon.churn,
                service=daemon.service,
                seed=seed,
                obs=obs,
                fs=fs,
                clock=clock,
            )
            tally["restarts"] += 1
            if daemon.server.intervals_processed < processed_before:
                recovery_bounded = False
    except BaseException:
        daemon.close()
        raise
    finally:
        tally["intervals_completed"] = daemon.server.intervals_processed
    return daemon, recovery_bounded


def _run_chaos(soak):
    from repro.keytree.persistence import load_server
    from repro.service.wal import scan_records

    fault_plan = make_plan(soak.name, seed=soak.seed)
    tally = soak.result.counters
    intervals = soak.sizes["intervals"]
    tally["expect_recoverable"] = fault_plan.expect_recoverable
    try:
        daemon, recovery_bounded = run_single_node(
            fault_plan,
            soak.seed,
            intervals,
            soak.sizes["members"],
            soak.state_dir,
            soak.obs,
            tally,
            say=soak.say,
        )
        try:
            invariants = soak.result.invariants
            invariants["completed"] = (
                daemon.server.intervals_processed >= intervals
            )
            invariants["key-agreement"] = agreement_ok(daemon)
            invariants["recovery-bounded"] = recovery_bounded
            _, wal_error = scan_records(
                os.path.join(soak.state_dir, "wal.jsonl")
            )
            invariants["wal-roundtrip"] = wal_error is None
            invariants["snapshot-roundtrip"] = False
            if daemon._save_snapshot():
                try:
                    reloaded = load_server(
                        daemon.snapshot_path, config=daemon.server.config
                    )
                    invariants["snapshot-roundtrip"] = (
                        reloaded.intervals_processed
                        == daemon.server.intervals_processed
                        and reloaded.group_key.fingerprint()
                        == daemon.server.group_key.fingerprint()
                    )
                except ReproError:
                    pass
        finally:
            daemon.close()
            tally["intervals_completed"] = (
                daemon.server.intervals_processed
            )
    finally:
        tally["faults_injected"] = fault_plan.injected


SOAK_FAMILY = SoakFamily(
    command="chaos-soak",
    plans={
        name: SoakPlan(
            _run_chaos,
            sizes={"intervals": PLAN_INTERVALS[name], "members": 24},
            description=PLAN_DESCRIPTIONS[name],
        )
        for name in PLAN_NAMES
    },
    kinds=TIMELINE_KINDS,
    counters={
        "intervals_target": 0,
        "intervals_completed": 0,
        "restarts": 0,
        "faults_injected": 0,
        "expect_recoverable": True,
    },
    targets={"intervals_target": "intervals"},
    state_key="state_dir",
    refused={
        name: "needs a cluster: run it with ha-soak, not chaos-soak"
        for name in HA_PLAN_NAMES
    },
)
