"""The long-running rekey daemon: scheduler, WAL, recovery, degradation.

:class:`RekeyDaemon` runs a :class:`~repro.core.server.GroupKeyServer`
*as a server*: membership requests arrive concurrently (from a churn
driver and/or :meth:`submit_join`/:meth:`submit_leave` callers on other
threads), the paper's periodic rekey fires at each interval end, and the
interval's message travels over a pluggable delivery backend
(:mod:`repro.service.transports`).

**Durability.**  With a ``state_dir`` configured, every acknowledged
request is fsynced to the write-ahead log (:mod:`repro.service.wal`)
and every committed interval atomically replaces the server snapshot
(:func:`repro.keytree.persistence.save_server`).  The discipline:

1. apply the request in memory, *then* append to the WAL, *then*
   acknowledge — nothing is acknowledged before it is durable;
2. at interval end: rekey → deliver → snapshot (atomic replace) →
   ``commit`` marker carrying the snapshot's state digest.  Replay
   filters on the snapshot's interval number, so a crash between
   snapshot and marker changes nothing.

:meth:`recover` inverts that: load the snapshot and replay the WAL
through :func:`repro.service.wal.replay` — re-run each interval the
log shows was rekeyed since the snapshot, re-queue the requests of the
one the crash cut short — and, since key derivation is deterministic in
``(seed, node id, version)``, the re-run rekey regenerates
byte-identical key material, making redelivery after a crash idempotent
for members who already absorbed part of the lost interval.
Forward/backward secrecy survives because evictions are either in the
snapshot (already rekeyed) or in the WAL (re-run in their own interval,
or re-queued and rekeyed on the next one).

**Crash injection.**  A :class:`CrashPlan` raises :class:`DaemonCrash`
(a stand-in for ``SIGKILL`` — no cleanup runs, fsynced state is all
that survives) at a chosen interval and :data:`CRASH_POINTS` site; the
recovery property tests drive this at every point.

**Fault tolerance.**  Storage I/O (WAL appends, snapshot writes) runs
through the :class:`~repro.chaos.seams.Filesystem`/``Clock`` seams with
bounded-retry backoff; a WAL found corrupt at startup is quarantined
instead of aborting; :meth:`recover` walks a snapshot *ladder*
(``server.json`` → ``server.json.prev``) before giving up with
:class:`~repro.errors.RecoveryError`; and a :class:`CircuitBreaker`
caps consecutive unicast-cutover degradations by forcing the cheaper
``carry`` policy for a cooldown.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

from repro.chaos.seams import REAL_FILESYSTEM, SYSTEM_CLOCK
from repro.core.server import GroupKeyServer
from repro.errors import RecoveryError, ReproError, ServiceError
from repro.obs.metrics import ROUNDS_BUCKETS
from repro.obs.recorder import NULL
from repro.obs.slo import SLOTracker
from repro.obs.trace import (
    PhaseProfiler,
    format_trace,
    mint_trace_id,
    tracing,
)
from repro.service.churn import ChurnEvents, NoChurn
from repro.service.health import IN_DEADLINE, IntervalMetrics, ServiceMetrics
from repro.service.members import MemberFleet
from repro.service.transports import UNICAST_CUTOVER, DirectDelivery
from repro.service.wal import (
    WriteAheadLog,
    quarantine_path,
    queue_request,
    replay,
)
from repro.util.retry import RetryPolicy
from repro.util.rng import RandomSource

logger = logging.getLogger(__name__)

#: where an injected crash can fire inside one interval, in order
CRASH_POINTS = (
    "mid-requests",   # half the interval's churn accepted (and logged)
    "pre-rekey",      # all requests logged; marking not yet run
    "post-rekey",     # new keys exist in memory; nothing delivered
    "post-delivery",  # members updated; snapshot not yet written
    "post-snapshot",  # snapshot durable; commit marker not yet appended
)


class DaemonCrash(ServiceError):
    """The injected SIGKILL stand-in: abandon the process state."""


@dataclass
class CrashPlan:
    """Fire :class:`DaemonCrash` at (``interval``, ``point``)."""

    interval: int
    point: str

    def __post_init__(self):
        if self.point not in CRASH_POINTS:
            raise ServiceError(
                "unknown crash point %r (valid: %s)"
                % (self.point, ", ".join(CRASH_POINTS))
            )

    def should_fire(self, interval, point):
        return interval == self.interval and point == self.point


class CircuitBreaker:
    """Caps consecutive unicast-cutover degradations (see docs/robustness.md).

    Unicast cutover serves every straggler point-to-point inside the
    interval — correct, but the most expensive failure mode the daemon
    has, and under sustained feedback abuse or loss it can recur every
    interval.  The breaker watches delivery decisions: ``threshold``
    consecutive cutovers **open** it, which forces the cheaper ``carry``
    policy (stale users are served from the stored message next
    interval) for ``cooldown`` intervals; then a **half-open** trial
    interval runs the configured policy again — a clean result closes
    the breaker, another cutover re-opens it.  ``threshold=0`` disables.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold=5, cooldown=3):
        if threshold < 0 or cooldown < 1:
            raise ServiceError(
                "circuit breaker needs threshold >= 0 and cooldown >= 1"
            )
        self.threshold = int(threshold)
        self.cooldown = int(cooldown)
        self.state = self.CLOSED
        self.consecutive = 0
        self.opened_total = 0
        self._open_left = 0

    @property
    def enabled(self):
        return self.threshold > 0

    @property
    def forcing_carry(self):
        """Whether this interval's delivery must use the carry policy."""
        return self.enabled and self.state == self.OPEN

    def _trip(self):
        self.state = self.OPEN
        self._open_left = self.cooldown
        self.opened_total += 1
        self.consecutive = 0
        return "circuit_open"

    def record(self, decision):
        """Feed one interval's delivery decision; returns the transition
        event kind (``circuit_open`` / ``circuit_half_open`` /
        ``circuit_close``) or ``None`` when the state did not change."""
        if not self.enabled:
            return None
        if self.state == self.OPEN:
            self._open_left -= 1
            if self._open_left <= 0:
                self.state = self.HALF_OPEN
                return "circuit_half_open"
            return None
        if decision == UNICAST_CUTOVER:
            if self.state == self.HALF_OPEN:
                return self._trip()  # trial failed: straight back open
            self.consecutive += 1
            if self.consecutive >= self.threshold:
                return self._trip()
            return None
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED
            self.consecutive = 0
            return "circuit_close"
        self.consecutive = 0
        return None

    def snapshot(self):
        """Health-surface view of the breaker."""
        return {
            "state": self.state if self.enabled else "disabled",
            "consecutive_cutovers": self.consecutive,
            "opened_total": self.opened_total,
        }


@dataclass
class DaemonConfig:
    """Service-level knobs (the protocol knobs live in GroupConfig)."""

    state_dir: object = None  # str | Path | None (None = not durable)
    interval_seconds: float = 0.0  # 0 → intervals run back to back
    deadline_rounds: int = 2
    deadline_policy: str = "unicast"  # or "carry"
    wal_compact_every: int = 32  # intervals between WAL compactions
    verify_invariants: bool = True
    crash_plan: object = None  # CrashPlan | None
    #: consecutive unicast-cutover intervals before the circuit breaker
    #: opens and forces the carry policy (0 disables the breaker)
    circuit_threshold: int = 5
    #: intervals the breaker stays open before a half-open trial
    circuit_cooldown: int = 3

    def __post_init__(self):
        if self.deadline_policy not in ("unicast", "carry"):
            raise ServiceError(
                "deadline_policy must be 'unicast' or 'carry', got %r"
                % (self.deadline_policy,)
            )


class RekeyDaemon:
    """One key server, run as a service across many rekey intervals."""

    def __init__(
        self,
        server,
        backend=None,
        fleet=None,
        churn=None,
        service=None,
        seed=None,
        obs=None,
        fs=None,
        clock=None,
        retry=None,
        epoch=None,
        fence=None,
    ):
        self.server = server
        #: observability recorder (NULL = disabled, zero-overhead)
        self.obs = obs if obs is not None else NULL
        #: storage/time seams — the chaos layer swaps in faulty doubles
        self.fs = fs if fs is not None else REAL_FILESYSTEM
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.retry = retry if retry is not None else RetryPolicy()
        self.backend = backend or DirectDelivery()
        self.server.set_observer(self.obs)
        self.backend.set_observer(self.obs)
        self.fleet = (
            fleet if fleet is not None else MemberFleet.register_all(server)
        )
        self.churn = churn or NoChurn()
        self.service = service or DaemonConfig()
        self.metrics = ServiceMetrics()
        self.circuit = CircuitBreaker(
            threshold=self.service.circuit_threshold,
            cooldown=self.service.circuit_cooldown,
        )
        #: multi-window SLO burn-rate tracking (enabled with obs)
        self.slo = (
            SLOTracker(clock=self.clock.monotonic)
            if self.obs.enabled
            else None
        )
        self._rng = RandomSource(
            server.config.seed if seed is None else seed
        ).generator()
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread = None
        #: (message, [names]) batches deferred by the carry policy
        self._carry = []
        #: recovery sets this: the next interval replays the WAL's
        #: requests *only* (no fresh churn), so its rekey reproduces the
        #: crashed interval byte for byte — see :meth:`recover`
        self._replay_interval = False
        #: commit digest verdict of recovery or promotion (``None``:
        #: no commit checked)
        self.digest_ok = None
        self.crashed = None  # DaemonCrash captured by the background loop
        #: HA identity (see docs/ha.md): the writer's epoch fencing
        #: token and the lease that mints them.  ``None`` epoch =
        #: standalone (no fencing, no ``epoch`` keys on disk).
        self.epoch = epoch if epoch is None else int(epoch)
        self.fence = fence
        self.role = "standalone" if epoch is None else "leader"
        #: leader-side replication tap (a ``LeaderPublisher``), attached
        #: via :meth:`attach_replication`
        self.replication = None
        self.wal = None
        self.snapshot_path = None
        if self.service.state_dir is not None:
            import os

            state_dir = os.fspath(self.service.state_dir)
            os.makedirs(state_dir, exist_ok=True)
            # Quarantine (not abort) on a corrupt log: startup always
            # gets *a* WAL; what was salvaged/lost is an emitted event.
            self.wal = WriteAheadLog(
                os.path.join(state_dir, "wal.jsonl"),
                fs=self.fs,
                clock=self.clock,
                retry=self.retry,
                on_corruption="quarantine",
                obs=self.obs,
                epoch=self.epoch,
                fence=self.fence,
            )
            self.snapshot_path = os.path.join(state_dir, "server.json")

    # -- construction ------------------------------------------------------

    @classmethod
    def start_new(
        cls,
        initial_users,
        config=None,
        backend=None,
        churn=None,
        service=None,
        seed=None,
        obs=None,
        fs=None,
        clock=None,
        retry=None,
        epoch=None,
        fence=None,
    ):
        """Boot a fresh group and (if durable) write the initial snapshot."""
        server = GroupKeyServer(initial_users, config=config)
        daemon = cls(
            server,
            backend=backend,
            churn=churn,
            service=service,
            seed=seed,
            obs=obs,
            fs=fs,
            clock=clock,
            retry=retry,
            epoch=epoch,
            fence=fence,
        )
        if daemon.snapshot_path is not None:
            if not daemon._save_snapshot():
                # Without a baseline snapshot there is nothing to
                # recover into — refuse to pretend we are durable.
                raise ServiceError(
                    "could not write the initial snapshot to %s"
                    % daemon.snapshot_path
                )
        return daemon

    @classmethod
    def recover(
        cls,
        state_dir,
        config=None,
        backend=None,
        fleet=None,
        churn=None,
        service=None,
        seed=None,
        resync_members=True,
        obs=None,
        fs=None,
        clock=None,
        retry=None,
        epoch=None,
        fence=None,
    ):
        """Restart from ``state_dir``: snapshot load +
        :func:`~repro.service.wal.replay` of the whole log.

        ``fleet`` is the surviving member population (in-process tests
        pass the pre-crash fleet — members are remote in reality and do
        not die with the server); omit it to re-register every current
        user (the fresh-process path).  With ``resync_members`` set,
        members whose group key does not match the restored server's
        are re-registered over the stand-in SSL channel — the paper's
        story for a member that missed rekey messages; recovery is
        correct without it for any crash point, because the replay
        interval regenerates identical keys, but carried-over users
        whose serve was lost with the crash need the resync.

        When replay leaves requests queued (the interval the crash cut
        short), the next interval is a *replay interval*: it processes
        exactly those requests (churn holds off one interval) so the
        re-run rekey matches what a pre-crash delivery may already have
        handed out.  With ``resync_members``
        off, callers must likewise not submit new requests before that
        interval has run.

        Replay's commit digest verdict lands in :attr:`digest_ok` and
        the ``digests_verified``/``digest_mismatches`` counters; a
        mismatch is reported, not refused.
        """
        import os

        from repro.keytree.persistence import PREVIOUS_SUFFIX

        service = service or DaemonConfig()
        service.state_dir = state_dir
        snapshot_path = os.path.join(os.fspath(state_dir), "server.json")
        server, snapshot_fallbacks = cls._load_snapshot_ladder(
            snapshot_path,
            [snapshot_path, snapshot_path + PREVIOUS_SUFFIX],
            config=config,
            obs=obs if obs is not None else NULL,
            fs=fs if fs is not None else REAL_FILESYSTEM,
        )
        daemon = cls(
            server,
            backend=backend,
            fleet=fleet,
            churn=churn,
            service=service,
            seed=seed,
            obs=obs,
            fs=fs,
            clock=clock,
            retry=retry,
            epoch=epoch,
            fence=fence,
        )
        daemon.metrics.bump("recoveries")
        daemon.metrics.bump("snapshot_fallbacks", snapshot_fallbacks)
        replayed, rejected, checks = replay(server, daemon.wal.records())
        matched = sum(ok for _, ok in checks)
        daemon.digest_ok = matched == len(checks) if checks else None
        daemon.metrics.bump("requests_replayed", replayed)
        daemon.metrics.bump("requests_rejected", rejected)
        daemon.metrics.bump("digests_verified", matched)
        daemon.metrics.bump("digest_mismatches", len(checks) - matched)
        daemon.take_over(resync_members)
        daemon.obs.emit(
            "recovery",
            interval=server.intervals_processed,
            replayed=replayed,
            rejected=rejected,
            replay_interval=daemon._replay_interval,
        )
        return daemon

    def take_over(self, resync_members=True):
        """Resume service over a server rebuilt from the durable log.

        Crash recovery and a standby's promotion both end here, once the
        logged requests are queued again.  The crashed interval may
        already have *delivered* before dying (post-delivery crash):
        members then hold the keys of a rekey the snapshot never saw.
        Key derivation is deterministic in (seed, node id, version) but
        NOT in the request set — mixing fresh churn into the re-run would
        mint the *same* key bytes for a different eviction set, handing
        the current group key to users the crashed delivery already
        served.  So the next interval replays the logged requests only;
        churn resumes after.

        With ``resync_members``, the member fleet (remote in reality: it
        did not die with the server) is brought back in line: a joiner
        registered just before the crash is in the fleet but not yet in
        the rebuilt tree (its join is pending again) — it re-registers
        when that join is processed, so its stale state is dropped now;
        missing and out-of-sync members re-register.
        """
        server, fleet = self.server, self.fleet
        self._replay_interval = any(server.pending_requests)
        if not resync_members:
            return
        for name in sorted(set(fleet.members) - server.users):
            fleet.evict(name)
        for name in sorted(server.users - set(fleet.members)):
            fleet.register(server, name)
            self.metrics.bump("members_resynced")
        for name in fleet.out_of_sync(server):
            fleet.register(server, name)
            self.metrics.bump("members_resynced")

    @classmethod
    def _load_snapshot_ladder(cls, primary, candidates, config, obs, fs):
        """Walk the snapshot escalation ladder, newest generation first.

        Returns ``(server, n_fallbacks)`` — the first generation that
        loads and verifies, plus how many damaged ones were passed over.
        A damaged generation (CRC mismatch, unparseable JSON, wrong
        kind) is quarantined to ``<path>.corrupt-<n>`` and a
        ``snapshot_fallback`` event emitted; the ladder then tries the
        next one.  Missing generations are skipped silently.  When the
        *current* generation was damaged, falling back to ``.prev``
        composes with WAL replay because compaction always keeps the
        last committed interval's records (see ``_interval_body``).

        Raises :class:`~repro.errors.RecoveryError` when every rung is
        exhausted, or :class:`ServiceError` when none ever existed.
        """
        from repro.errors import KeyTreeError
        from repro.keytree.persistence import load_server

        import os

        found_any = False
        failures = []
        for candidate in candidates:
            try:
                server = load_server(candidate, config=config)
            except FileNotFoundError:
                continue
            except KeyTreeError as exc:
                found_any = True
                failures.append("%s: %s" % (os.path.basename(candidate), exc))
                destination = quarantine_path(candidate, fs)
                fs.replace(candidate, destination)
                fs.fsync_dir(os.path.dirname(candidate) or ".")
                obs.emit(
                    "snapshot_fallback",
                    snapshot=os.path.basename(candidate),
                    quarantined=os.path.basename(destination),
                    error=str(exc),
                )
                logger.warning(
                    "snapshot %s is damaged (%s); quarantined to %s",
                    candidate,
                    exc,
                    destination,
                )
                continue
            if candidate != primary:
                obs.emit(
                    "snapshot_recovered_from",
                    snapshot=os.path.basename(candidate),
                    interval=server.intervals_processed,
                )
            return server, len(failures)
        if not found_any:
            raise ServiceError(
                "no snapshot at %s; nothing to recover" % primary
            )
        raise RecoveryError(
            "every snapshot generation is damaged (%s); quarantined copies "
            "are alongside the state dir for forensics" % "; ".join(failures)
        )

    # -- replication -------------------------------------------------------

    def attach_replication(self, publisher):
        """Wire a :class:`repro.ha.replication.LeaderPublisher` into the
        write path: every durable WAL append is streamed to followers,
        commit records with their state digests included, so followers
        verify convergence before they would promote.
        """
        if self.wal is None:
            raise ServiceError("replication needs a durable daemon")
        self.replication = publisher
        self.wal.on_append = publisher.on_wal_record
        return publisher

    # -- request intake ----------------------------------------------------

    def submit_join(self, name):
        """Accept (apply + durably log) a join for the next rekey."""
        self._submit("join", name)

    def submit_leave(self, name):
        """Accept (apply + durably log) a leave for the next rekey."""
        self._submit("leave", name)

    def _submit(self, op, name):
        with self._lock:
            interval = self.server.intervals_processed
            queue_request(self.server, op, name)
            if self.wal is not None:
                try:
                    self.wal.append_request(op, name, interval)
                except OSError as exc:
                    # Retries are exhausted (``io_giveup`` was emitted).
                    # The request is applied in memory but NOT durable,
                    # so it must not be acknowledged: surface the
                    # failure as a WalError — churn drivers count it
                    # rejected; direct submitters see the refusal.
                    from repro.errors import WalError

                    raise WalError(
                        "accepted %s(%r) could not be durably logged: %s"
                        % (op, name, exc)
                    )
                if self.obs.enabled:
                    self.obs.emit(
                        "wal_append", op=op, user=name, interval=interval
                    )
            self.metrics.bump(
                "joins_accepted" if op == "join" else "leaves_accepted"
            )

    def _accept_churn(self, events):
        """Apply a churn driver's batch, tolerating invalid requests."""
        rejected = 0
        for op, name in [("join", u) for u in events.joins] + [
            ("leave", u) for u in events.leaves
        ]:
            try:
                self._submit(op, name)
            except ReproError:
                rejected += 1
                self.metrics.bump("requests_rejected")
        return rejected

    # -- crash injection ---------------------------------------------------

    def _maybe_crash(self, interval, point):
        plan = self.service.crash_plan
        if plan is not None and plan.should_fire(interval, point):
            if self.obs.enabled:
                self.obs.emit("crash", interval=interval, point=point)
                if self.obs.bus is not None:
                    self.obs.bus.flush()
            raise DaemonCrash(
                "injected crash at interval %d, point %r" % (interval, point)
            )

    # -- the interval ------------------------------------------------------

    def run_interval(self):
        """Run one complete rekey interval; returns its metrics record."""
        with self._lock:
            obs = self.obs
            interval = self.server.intervals_processed
            # Deterministic in (seed, interval): the same run always
            # mints the same trace ids, so pinned-digest tests hold.
            trace_id = mint_trace_id(self.server.config.seed, interval)
            profiler = None
            if obs.enabled:
                if obs.bus is not None:
                    # Stamp every event emitted while this interval runs
                    # (spans, FEC, WAL, protocol rounds) with its number
                    # and the interval's trace id.
                    obs.bus.set_context(
                        interval=interval, trace=format_trace(trace_id)
                    )
                obs.emit("interval_start", members=self.server.n_users)
                profiler = PhaseProfiler(self.server.config.engine)
                obs.profiler = profiler
            try:
                with tracing(trace_id, interval):
                    with obs.span("daemon.interval", interval=interval):
                        record, report = self._interval_body(interval)
            finally:
                if profiler is not None:
                    obs.profiler = None
            if obs.enabled:
                profiler.finish(obs, interval)
                self._record_obs(record, report)
            return record

    def _interval_body(self, interval):
        """The interval pipeline; the caller holds the lock and the
        ``daemon.interval`` root span."""
        obs = self.obs
        t_start = time.perf_counter()
        with obs.span("daemon.carry"):
            carry_served = self._serve_carry()
        if carry_served and obs.enabled:
            obs.emit("carry_served", served=carry_served)
        if self._replay_interval:
            events = ChurnEvents()
            self._replay_interval = False
        else:
            events = self.churn.events(
                interval, self.server.users, self._rng
            )
        with obs.span("daemon.intake"):
            rejected = self._split_accept(events, interval)
        self._maybe_crash(interval, "pre-rekey")

        marking_ms = 0.0

        def rekey(joins, leaves):
            nonlocal marking_ms
            t_mark = time.perf_counter()
            with obs.span("daemon.rekey"):
                batch, message = self.server.rekey()
            marking_ms = (time.perf_counter() - t_mark) * 1e3
            if obs.enabled:
                obs.emit(
                    "marking_complete",
                    joins=len(joins),
                    leaves=len(leaves),
                    n_encryptions=batch.n_encryptions,
                    marking_ms=round(marking_ms, 3),
                )
            self._maybe_crash(interval, "post-rekey")
            return batch, message

        joins, leaves, batch, message = self.fleet.rekey(self.server, rekey)

        report = None
        policy = self.service.deadline_policy
        if self.circuit.forcing_carry:
            policy = "carry"
        if not message.is_empty:
            with obs.span("daemon.deliver"):
                report = self.backend.deliver(
                    message,
                    self.fleet,
                    deadline_rounds=self.service.deadline_rounds,
                    policy=policy,
                )
            if report.carried:
                self._carry.append((message, list(report.carried)))
            if report.detail.get("policy_ignored"):
                # The transport could not honour the configured carry
                # policy (the wire plane always cuts over) — count it so
                # the health ledger shows the policy is not in force.
                self.metrics.bump("policy_ignored")
            transition = self.circuit.record(report.decision)
            if transition is not None:
                if transition == "circuit_open":
                    self.metrics.bump("circuit_opens")
                if obs.enabled:
                    obs.emit(
                        transition,
                        interval=interval,
                        consecutive=self.circuit.consecutive,
                        cooldown=self.circuit.cooldown,
                    )
        self._maybe_crash(interval, "post-delivery")

        if self.service.verify_invariants:
            self.fleet.check_agreement(
                self.server, exclude=self.pending_carry_names()
            )
        if self.snapshot_path is not None:
            with obs.span("daemon.snapshot"):
                digest = self._save_snapshot()
            if digest:
                if obs.enabled:
                    obs.emit("snapshot", path=self.snapshot_path)
                self._maybe_crash(interval, "post-snapshot")
                self.wal.append_commit(interval, digest)
                every = self.service.wal_compact_every
                if every and (interval + 1) % every == 0:
                    # Keep the last committed interval's records too:
                    # recovery may fall back to the ``.prev`` snapshot
                    # generation, which replays from one interval back.
                    try:
                        self.wal.compact(
                            max(0, self.server.intervals_processed - 1)
                        )
                    except OSError as exc:
                        # Compaction only reclaims space; a failed one
                        # leaves the full (valid) log in place.
                        if obs.enabled:
                            obs.emit(
                                "io_giveup",
                                op="wal-compact",
                                attempts=1,
                                error=str(exc),
                            )
                    else:
                        if obs.enabled:
                            obs.emit(
                                "wal_compact",
                                through_interval=(
                                    self.server.intervals_processed - 1
                                ),
                            )
            else:
                # The interval's state is only in memory + WAL: skip the
                # commit marker and compaction so a crash now recovers
                # from the previous snapshot and replays this interval.
                self.metrics.bump("snapshot_failures")
                if obs.enabled:
                    obs.emit(
                        "snapshot_skipped",
                        interval=interval,
                        path=self.snapshot_path,
                    )

        record = IntervalMetrics.from_parts(
            interval=interval,
            n_members=self.server.n_users,
            n_joins=len(joins),
            n_leaves=len(leaves),
            rejected_requests=rejected,
            message=None if message.is_empty else message,
            batch=batch,
            marking_ms=marking_ms,
            duration_ms=(time.perf_counter() - t_start) * 1e3,
            report=report,
            carry_served=carry_served,
            group_key_fp=self.server.group_key.fingerprint(),
            wal_seq=self.wal.next_seq - 1 if self.wal else -1,
        )
        self.metrics.record(record)
        return record, report

    def _record_obs(self, record, report):
        """Mirror one interval's record onto the obs surfaces: Prometheus
        histograms/gauges and the ``interval_complete`` event."""
        obs = self.obs
        obs.observe("marking_ms", record.marking_ms)
        obs.observe("interval_ms", record.duration_ms)
        obs.gauge("members", record.n_members)
        obs.gauge("rho", record.rho)
        if self.epoch is not None:
            obs.gauge("ha_epoch", self.epoch)
        latencies = IntervalMetrics.recovery_latencies(report)
        if latencies is not None:
            for latency in latencies:
                obs.observe(
                    "recovery_latency_rounds",
                    latency,
                    buckets=ROUNDS_BUCKETS,
                )
        if self.slo is not None:
            self.slo.record_deadline(
                record.decision in (IN_DEADLINE, "empty")
            )
            if latencies is not None:
                budget = self.service.deadline_rounds
                for latency in latencies:
                    self.slo.record_recovery(latency <= budget)
            self.slo.publish(obs, interval=record.interval)
        if record.decision not in (IN_DEADLINE, "empty"):
            obs.emit(
                "degradation",
                decision=record.decision,
                unicast_served=record.unicast_served,
                carried_users=record.carried_users,
            )
        obs.emit("interval_complete", **record.to_dict())
        if obs.bus is not None:
            obs.bus.flush()

    def _split_accept(self, events, interval):
        """Accept the driver's events with the mid-requests crash point
        firing after the first half has been logged."""
        half_joins = len(events.joins) // 2
        half_leaves = len(events.leaves) // 2
        first = type(events)(
            joins=events.joins[:half_joins],
            leaves=events.leaves[:half_leaves],
        )
        second = type(events)(
            joins=events.joins[half_joins:],
            leaves=events.leaves[half_leaves:],
        )
        rejected = self._accept_churn(first)
        self._maybe_crash(interval, "mid-requests")
        rejected += self._accept_churn(second)
        return rejected

    def _serve_carry(self):
        """Serve last interval's carried users by unicast from the
        stored message, before this interval's work begins."""
        served = 0
        for message, names in self._carry:
            for name in names:
                member = self.fleet.members.get(name)
                if member is None:  # evicted while stale; stays out
                    continue
                wanted = message.needs_by_user.get(member.user_id, ())
                member.absorb_encryptions(
                    [message.encryption_map[e] for e in wanted],
                    max_kid=message.max_kid,
                )
                served += 1
        self._carry = []
        return served

    def pending_carry_names(self):
        """Names whose key updates are still deferred."""
        names = set()
        for _, batch_names in self._carry:
            names.update(batch_names)
        return names

    def _save_snapshot(self):
        """Write the server snapshot (rotating the previous generation),
        retrying transient I/O errors; returns its state digest, or
        ``None`` when it failed.

        On persistent failure the caller must treat the interval as
        uncommitted — the WAL still covers it, so nothing is lost, only
        not yet folded into a snapshot.
        """
        from repro.keytree.persistence import save_server

        def attempt():
            return save_server(
                self.server,
                self.snapshot_path,
                fs=self.fs,
                rotate=True,
                epoch=self.epoch,
            )

        try:
            return self.retry.run(
                attempt,
                clock=self.clock,
                on_retry=lambda n, err: self.obs.emit(
                    "io_retry", op="snapshot-save", attempt=n, error=str(err)
                ),
                on_giveup=lambda n, err: self.obs.emit(
                    "io_giveup", op="snapshot-save", attempts=n, error=str(err)
                ),
            )
        except OSError as exc:
            logger.warning(
                "snapshot save to %s failed after retries: %s",
                self.snapshot_path,
                exc,
            )
            return None

    # -- scheduling --------------------------------------------------------

    def run(self, n_intervals, on_interval=None):
        """Run ``n_intervals`` back to back (paced if configured)."""
        records = []
        for _ in range(int(n_intervals)):
            t0 = self.clock.monotonic()
            record = self.run_interval()
            records.append(record)
            if on_interval is not None:
                on_interval(record)
            pace = self.service.interval_seconds
            if pace > 0:
                remaining = pace - (self.clock.monotonic() - t0)
                if remaining > 0:
                    self.clock.sleep(remaining)
        return records

    def start(self, n_intervals=None, on_interval=None):
        """Run intervals on a background thread (stop with :meth:`stop`).

        Requests submitted from other threads interleave safely with
        interval processing.  A :class:`DaemonCrash` fired by the crash
        plan is captured in :attr:`crashed` and terminates the loop —
        exactly like the process dying.
        """
        if self._thread is not None and self._thread.is_alive():
            raise ServiceError("daemon already running")
        self._stop.clear()

        def _loop():
            done = 0
            while not self._stop.is_set():
                if n_intervals is not None and done >= n_intervals:
                    break
                t0 = time.monotonic()
                try:
                    record = self.run_interval()
                except DaemonCrash as crash:
                    self.crashed = crash
                    return
                done += 1
                if on_interval is not None:
                    on_interval(record)
                pace = self.service.interval_seconds
                if pace > 0:
                    self._stop.wait(
                        max(0.0, pace - (time.monotonic() - t0))
                    )

        self._thread = threading.Thread(target=_loop, daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout=30.0):
        """Signal the background loop to finish and wait for it.

        Returns ``True`` when the loop exited within ``timeout`` (or no
        loop was running); ``False`` — with a logged warning — when the
        thread is still alive, so operators see a hung shutdown instead
        of silently abandoning a daemon thread mid-interval.
        """
        self._stop.set()
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout=timeout)
        if thread.is_alive():
            logger.warning(
                "daemon loop did not stop within %.1fs "
                "(interval still running); thread left joined-to-daemon",
                timeout,
            )
            return False
        self._thread = None
        return True

    # -- introspection -----------------------------------------------------

    def health(self):
        report = self.metrics.health(n_members=self.server.n_users)
        report["engine"] = self.server.config.engine
        report["circuit"] = self.circuit.snapshot()
        report["digest_ok"] = self.digest_ok
        report["slo"] = (
            None if self.slo is None else self.slo.snapshot()
        )
        report["ha"] = {
            "role": self.role,
            "epoch": 0 if self.epoch is None else self.epoch,
            "replication": (
                None
                if self.replication is None
                else self.replication.snapshot()
            ),
        }
        return report

    def close(self):
        if self.wal is not None:
            self.wal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self):
        return "RekeyDaemon(members=%d, intervals=%d, durable=%s)" % (
            self.server.n_users,
            self.server.intervals_processed,
            self.wal is not None,
        )
