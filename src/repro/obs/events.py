"""The structured event bus: versioned schema, kind registry, JSONL.

Every observability event is one JSON object::

    {"v": 1, "t": <wall-clock seconds>, "kind": "<registered kind>",
     "detail": {...}}

``v`` is :data:`SCHEMA_VERSION` (additive evolution only: new kinds and
new detail keys never bump it; renaming or removing either does).  The
kind registry holds the session-protocol kinds a
:class:`~repro.transport.session.RekeySession` emits (with the
simulated time as the ``sim_time`` detail key) and the service-level
kinds (marking, FEC, WAL, degradation, recovery) the daemon emits.
The registry is *extensible* — embedders call
:func:`register_event_kind` instead of patching a frozen set, so a new
event kind is one line, not a ``ConfigurationError``.

An :class:`EventBus` collects events in memory and, when given a path,
appends them as JSONL (the daemon's ``--obs-file``).
:func:`validate_record` / :func:`validate_jsonl` check conformance; the
CI smoke job runs the latter over a real daemon run.
"""

from __future__ import annotations

import json
import time

from repro.errors import ObsError

#: Version of the event envelope. Additive changes keep it.
SCHEMA_VERSION = 1

#: Session-protocol kinds, emitted by ``RekeySession``.
SESSION_EVENT_KINDS = frozenset(
    {
        "session_start",
        "round_planned",
        "round_complete",
        "unicast_start",
        "unicast_attempt",
        "session_complete",
    }
)

#: Service- and pipeline-level kinds added by the obs layer.
SERVICE_EVENT_KINDS = frozenset(
    {
        "span",               # a closed span: name, ms, inherited fields
        "interval_start",     # daemon interval began
        "interval_complete",  # detail = the IntervalMetrics record
        "marking_complete",   # marking output summary for one batch
        "fec_encode",         # parity generated for one block
        "wal_append",         # a request record became durable
        "wal_compact",        # WAL compaction ran
        "snapshot",           # server snapshot atomically replaced
        "degradation",        # deadline missed: unicast-cutover/carry-over
        "carry_served",       # carried users served at interval start
        "recovery",           # daemon recovered from snapshot + WAL
        "crash",              # injected crash fired
        "degradation_policy_ignored",  # configured policy not in force
                                       # on this transport (wire + carry)
    }
)

#: Fault-injection and hardening kinds (see docs/robustness.md).
CHAOS_EVENT_KINDS = frozenset(
    {
        "fault_injected",          # the chaos plan fired one fault
        "io_retry",                # transient I/O error, retrying
        "io_giveup",               # retry budget exhausted
        "wal_quarantine",          # corrupt WAL moved aside, prefix salvaged
        "snapshot_fallback",       # damaged snapshot generation skipped
        "snapshot_recovered_from", # recovery used a non-primary generation
        "snapshot_skipped",        # snapshot save failed; interval uncommitted
        "circuit_open",            # degradation circuit breaker opened
        "circuit_half_open",       # cooldown elapsed; trial interval next
        "circuit_close",           # trial succeeded; breaker closed
        "feedback_chaos",          # NACK feedback was mangled in flight
        "rho_clamped",             # AdjustRho hit the rho_max ceiling
        "soak_restart",            # chaos soak restarted the daemon
        "soak_invariant",          # one soak invariant checked
    }
)

#: High-availability kinds: leases, replication, failover, fencing
#: (see docs/ha.md).
HA_EVENT_KINDS = frozenset(
    {
        "ha_role",                 # a node took a role (leader/standby)
        "ha_lease_acquired",       # lease written with a fresh epoch
        "ha_heartbeat_lost",       # standby saw the leader's lease lapse
        "ha_promote",              # standby promoted itself to leader
        "ha_fenced",               # stale-epoch append refused
        "ha_replication_connect",  # follower (re)subscribed to the stream
        "ha_catchup",              # follower replayed a backlog of records
        "ha_digest_check",         # follower compared state digests
    }
)

#: Asyncio UDP wire-plane kinds (see docs/networking.md).
WIRE_EVENT_KINDS = frozenset(
    {
        "wire_announce",           # announce barrier completed
        "wire_round",              # one multicast round sent + aggregated
        "wire_nack_window",        # the NACK aggregation window closed
        "wire_unicast",            # unicast phase served the stragglers
        "wire_member_recovered",   # one member reached key agreement
        "wire_delivery_complete",  # one interval delivered over the wire
        "wire_fleet_interval",     # a wire soak finished one interval
        "wire_fleet_invariant",    # one fleet invariant checked
        "wire_fleet_complete",     # fleet run summary
        "wire_decode_error",       # undecodable datagram reached a socket
    }
)

#: Wire-plane survivability kinds: the datagram fault injector, the
#: client resync state machine and the liveness/failover path (see
#: docs/robustness.md, "Surviving failures on the wire").
WIRE_CHAOS_EVENT_KINDS = frozenset(
    {
        "wire_chaos_fault",        # the injector applied one datagram fault
        "wire_client_crashed",     # a plan scheduled one client death
        "wire_client_evicted",     # liveness timeout declared a member dead
        "wire_resync",             # client FSM left sync (and re-REGISTERed)
        "wire_rehomed",            # client adopted a higher leader epoch
        "wire_stale_epoch",        # a stale-epoch frame was refused
        "wire_register_giveup",    # REGISTER retry budget exhausted
        "wire_chaos_invariant",    # one wire-chaos invariant checked
        "wire_chaos_complete",     # wire-chaos soak summary
    }
)

#: Multi-tenant key-service kinds: the shared deadline scheduler,
#: per-tenant admission control, quarantine circuit breakers, and bulk
#: failover (see docs/tenancy.md).  Every tenant-scoped event carries a
#: ``tenant`` detail key (the daemon stamps it via the bus context).
TENANCY_EVENT_KINDS = frozenset(
    {
        "tenancy_tick",        # one scheduler tick: ran/deferred/shed counts
        "tenant_interval",     # one tenant's interval committed
        "tenant_shed",         # admission control shed part of a batch
        "tenant_deferred",     # a due tenant missed its tick (budget)
        "tenant_overload",     # a tenant's estimated cost blew its share
        "tenant_degraded",     # overload forced the carry policy this run
        "tenant_quarantine",   # breaker opened: tenant off the run queue
        "tenant_trial",        # quarantine cooldown elapsed; trial tick
        "tenant_recovered",    # trial succeeded; tenant back in rotation
        "tenant_failure",      # a tenant's interval/submission failed
        "tenancy_promote",     # standby re-homed the whole tenant fleet
        "tenant_rehomed",      # one tenant recovered under the new epoch
        "tenancy_invariant",   # one tenancy-soak invariant checked
        "tenancy_complete",    # tenancy soak summary
    }
)

#: Distributed-tracing, profiling and SLO kinds (see
#: docs/observability.md).  The ``trace_*`` milestones are emitted
#: *client-side* — per member, per interval — and carry a ``mono``
#: monotonic timestamp so the trace assembler can skew-correct streams
#: from different processes against the server's announce barrier.
TRACE_EVENT_KINDS = frozenset(
    {
        "trace_announce",       # client saw (and acked) the ANNOUNCE
        "trace_first_data",     # first surviving DATA frame arrived
        "trace_decoded",        # parity decode completed (keys recovered)
        "trace_key_decrypted",  # recovered keys absorbed; group key held
        "phase_profile",        # one interval's per-phase cost breakdown
        "slo_burn",             # multi-window SLO burn-rate sample
    }
)

_REGISTRY = set(
    SESSION_EVENT_KINDS
    | SERVICE_EVENT_KINDS
    | CHAOS_EVENT_KINDS
    | HA_EVENT_KINDS
    | WIRE_EVENT_KINDS
    | WIRE_CHAOS_EVENT_KINDS
    | TENANCY_EVENT_KINDS
    | TRACE_EVENT_KINDS
)


def register_event_kind(kind):
    """Add ``kind`` to the registry (idempotent); returns the kind."""
    if not isinstance(kind, str) or not kind:
        raise ObsError("event kind must be a non-empty string")
    _REGISTRY.add(kind)
    return kind


def is_registered(kind):
    return kind in _REGISTRY


def registered_kinds():
    """Snapshot of every registered kind (sorted)."""
    return sorted(_REGISTRY)


class EventBus:
    """Append-only event sink with optional JSONL persistence.

    ``context`` keys (set via :meth:`set_context`) are merged into every
    record's detail — the daemon stamps the current interval there so
    events emitted deep in the pipeline (session rounds, FEC encodes)
    carry it without plumbing.

    With ``line_buffered`` every emitted record is flushed to the JSONL
    handle immediately, so a crashed or SIGKILLed process (a fleet
    worker, a chaos-plan casualty) never loses its stream's tail — at
    the cost of one flush syscall per event.  The default stays fully
    buffered for the daemon's hot path.
    """

    def __init__(self, path=None, clock=time.time, keep=10000,
                 line_buffered=False):
        self.path = path
        self.clock = clock
        self.events = []
        self._keep = int(keep)
        #: events trimmed off the ring's head to stay within ``keep``
        self.dropped = 0
        self._context = {}
        self.line_buffered = bool(line_buffered)
        self._handle = open(path, "w") if path else None

    def set_context(self, **fields):
        """Merge ``fields`` into the ambient context (None deletes)."""
        for key, value in fields.items():
            if value is None:
                self._context.pop(key, None)
            else:
                self._context[key] = value

    def emit(self, kind, **detail):
        """Record one event; returns the envelope dict."""
        if kind not in _REGISTRY:
            raise ObsError(
                "unregistered event kind %r (register_event_kind first)"
                % (kind,)
            )
        merged = dict(self._context)
        merged.update(detail)
        record = {
            "v": SCHEMA_VERSION,
            "t": float(self.clock()),
            "kind": kind,
            "detail": merged,
        }
        self.events.append(record)
        if len(self.events) > self._keep:
            excess = len(self.events) - self._keep
            del self.events[:excess]
            self.dropped += excess
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            if self.line_buffered:
                self._handle.flush()
        return record

    def of_kind(self, kind):
        return [e for e in self.events if e["kind"] == kind]

    def flush(self):
        if self._handle is not None:
            self._handle.flush()

    def close(self):
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __len__(self):
        return len(self.events)


def validate_record(record, strict_kinds=False):
    """Check one event envelope; raises :class:`ObsError` when invalid.

    With ``strict_kinds`` the kind must be in the registry; without, any
    non-empty string passes (a reader must tolerate kinds newer than
    itself — that is what makes the schema additive).
    """
    if not isinstance(record, dict):
        raise ObsError("event must be a JSON object, got %r" % type(record))
    if record.get("v") != SCHEMA_VERSION:
        raise ObsError(
            "unsupported event schema version %r (expected %d)"
            % (record.get("v"), SCHEMA_VERSION)
        )
    kind = record.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ObsError("event kind must be a non-empty string")
    if strict_kinds and kind not in _REGISTRY:
        raise ObsError("unregistered event kind %r" % (kind,))
    if not isinstance(record.get("t"), (int, float)):
        raise ObsError("event time %r is not a number" % (record.get("t"),))
    if not isinstance(record.get("detail"), dict):
        raise ObsError("event detail must be an object")
    return record


def validate_jsonl(path, strict_kinds=False):
    """Validate every line of a JSONL file; returns the record count."""
    count = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                raise ObsError(
                    "%s:%d: not JSON (%s)" % (path, lineno, error)
                )
            try:
                validate_record(record, strict_kinds=strict_kinds)
            except ObsError as error:
                raise ObsError("%s:%d: %s" % (path, lineno, error))
            count += 1
    return count


def read_events(path):
    """Load and validate a JSONL event file into a list of records."""
    out = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                raise ObsError(
                    "%s:%d: not JSON (%s)" % (path, lineno, error)
                )
            out.append(validate_record(record))
    return out
