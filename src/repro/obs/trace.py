"""Interval-scoped distributed tracing and per-phase profiling.

One rekey interval is one *trace*: the daemon mints a deterministic
64-bit trace id at ``interval_start`` (a pure function of the group
seed and the interval number, so the same run always mints the same
ids) and activates it as an ambient :class:`TraceContext` for the
duration of the interval.  Everything the interval touches tags its
events with that id:

- the daemon stamps the event-bus context, so every server-side event
  (spans, FEC, WAL, wire rounds) carries ``trace`` for free;
- the wire plane carries the id in its ``ANNOUNCE``/``REGISTER``/
  ``FEEDBACK`` control payloads (:mod:`repro.wire.codec`), so clients
  in *other processes* tag their recovery milestones with the same id;
- the HA replication stream tags its ``record``/``digest`` frames, so
  the standby's convergence checks join the interval's trace too.

Trace ids are deterministic on purpose: the cross-process timeline
assembly (:mod:`repro.obs.assemble`) can then be pinned by digest in CI
exactly like the wire fleet's protocol digest.

:class:`PhaseProfiler` is the per-interval phase-cost harness: the
:class:`~repro.obs.recorder.Recorder` taps every closing span into it,
and it folds span names onto the pipeline phases the batch-rekeying
literature prices (marking, keygen, assignment, FEC, delivery).  One
``phase_profile`` event per interval plus ``phase_ms`` Prometheus
histograms labeled by engine make the python/numpy cost breakdowns
first-class obs citizens.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ObsError

#: The "no trace" sentinel carried on the wire before an interval's
#: context exists (e.g. a client's initial REGISTER).
TRACE_NONE = 0

_TRACE_MASK = 0xFFFFFFFFFFFFFFFF


def mint_trace_id(seed, interval):
    """A deterministic 64-bit trace id for one (seed, interval) pair.

    Hash-derived, so ids from different seeds do not collide by
    construction of the interval counter alone; never returns
    :data:`TRACE_NONE`.
    """
    material = b"repro-trace:%d:%d" % (int(seed), int(interval))
    digest = hashlib.sha256(material).digest()
    value = int.from_bytes(digest[:8], "big")
    return value if value != TRACE_NONE else 1


def format_trace(trace_id):
    """Render a trace id as the canonical 16-hex-char event field."""
    return "%016x" % (int(trace_id) & _TRACE_MASK)


def parse_trace(text):
    """Inverse of :func:`format_trace`; raises :class:`ObsError`."""
    if not isinstance(text, str) or len(text) != 16:
        raise ObsError("trace id must be 16 hex chars, got %r" % (text,))
    try:
        return int(text, 16)
    except ValueError:
        raise ObsError("trace id %r is not hex" % (text,))


@dataclass(frozen=True)
class TraceContext:
    """The ambient identity of the interval currently being processed."""

    trace_id: int
    interval: int

    @property
    def hex(self):
        return format_trace(self.trace_id)


_ACTIVE = threading.local()


def current():
    """The active :class:`TraceContext` on this thread, or ``None``."""
    return getattr(_ACTIVE, "context", None)


def current_trace_id():
    """The active trace id, or :data:`TRACE_NONE` outside an interval."""
    context = current()
    return TRACE_NONE if context is None else context.trace_id


def current_trace():
    """The active trace id as hex, or ``None`` outside an interval."""
    context = current()
    return None if context is None else context.hex


@contextmanager
def tracing(trace_id, interval):
    """Activate a :class:`TraceContext` for the duration of a block."""
    previous = current()
    _ACTIVE.context = TraceContext(
        trace_id=int(trace_id), interval=int(interval)
    )
    try:
        yield _ACTIVE.context
    finally:
        _ACTIVE.context = previous


# -- per-phase interval profiling ---------------------------------------

#: The pipeline phases the profiler prices, in pipeline order.
PHASES = ("marking", "keygen", "assignment", "fec", "delivery")

#: Span-name -> phase.  ``marking`` includes the key renewal the marking
#: algorithm performs; ``keygen`` is the cryptographic cost of turning
#: renewed keys into a message (encryption + signing); ``fec`` overlaps
#: ``delivery`` when decode spans close inside it (attribution, not a
#: disjoint sum).
PHASE_OF_SPAN = {
    "marking.apply": "marking",
    "message.encrypt": "keygen",
    "message.sign": "keygen",
    "message.assign": "assignment",
    "fec.encode": "fec",
    "fec.encode_batch": "fec",
    "fec.decode": "fec",
    "daemon.deliver": "delivery",
}


class PhaseProfiler:
    """Aggregates one interval's span closures into phase costs.

    Installed by the daemon as the recorder's span tap for exactly one
    interval, then :meth:`finish`\\ ed: one ``phase_profile`` event and
    one ``phase_ms{phase,engine}`` histogram observation per phase.
    """

    def __init__(self, engine):
        self.engine = str(engine)
        self.totals = {}
        self.counts = {}

    def on_span(self, name, ms):
        """The recorder's tap: fold one closed span into its phase."""
        phase = PHASE_OF_SPAN.get(name)
        if phase is None:
            return
        self.totals[phase] = self.totals.get(phase, 0.0) + float(ms)
        self.counts[phase] = self.counts.get(phase, 0) + 1

    def finish(self, obs, interval):
        """Publish the interval's phase breakdown; returns it."""
        phases = {
            phase: round(self.totals[phase], 4)
            for phase in sorted(self.totals)
        }
        for phase, ms in phases.items():
            obs.observe("phase_ms", ms, phase=phase, engine=self.engine)
        if phases:
            obs.emit(
                "phase_profile",
                interval=int(interval),
                engine=self.engine,
                phases=phases,
                spans=dict(sorted(self.counts.items())),
            )
        return phases
