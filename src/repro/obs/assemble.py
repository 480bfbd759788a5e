"""Cross-process trace assembly: per-member recovery timelines.

A fleet run with ``--obs-dir`` leaves one JSONL event stream per
process: the server's (``server.jsonl``, which also carries in-process
clients' milestones) and one per worker (``worker-NN.jsonl``).  Each
stream's ``mono`` timestamps come from *that process's* monotonic
clock — wall-clock comparisons across streams would be garbage.  The
assembler therefore skew-corrects every stream against the **announce
barrier**: the server's ``wire_announce`` event records the barrier's
completion on the server clock, every client's ``trace_announce``
records when it saw (and acked) the same ANNOUNCE on its own clock, and
the per-stream offset is the median of those pairings.  After
correction, all milestones live on one approximate server timeline
(within barrier-ack jitter, microseconds on loopback).

The assembly's **digest** covers only the deterministic facts — which
member reached which milestones in which interval under which trace id,
with what recovery round and drop count — never clocks or stream
names, so the same ``(plan, seed)`` digests identically whether the
clients ran in-process or sharded over workers, on any machine.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field

from repro.errors import ObsError
from repro.obs.events import read_events
from repro.util import canonical_digest

#: milestone names in timeline order
MILESTONES = ("announce", "first_data", "decoded", "key_decrypted")

_MILESTONE_OF_KIND = {
    "trace_announce": "announce",
    "trace_first_data": "first_data",
    "trace_decoded": "decoded",
    "trace_key_decrypted": "key_decrypted",
}


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ObsError("median of an empty sequence")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _percentile(values, q):
    """Linear-interpolation percentile (numpy's default), stdlib-only."""
    ordered = sorted(values)
    if not ordered:
        raise ObsError("percentile of an empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


@dataclass
class Timeline:
    """One member's end-to-end recovery inside one interval."""

    interval: int
    member_index: int
    member: str
    trace: str
    cohort: str
    served: bool
    stream: str
    #: milestone name -> skew-corrected server-timeline seconds
    milestones: dict = field(default_factory=dict)
    recovery_round: object = None
    dropped: object = None
    latency_ms: object = None

    @property
    def complete(self):
        """Did the member's trace reach every milestone it owes?

        Every member owes ``announce``; a *served* member additionally
        owes ``decoded`` and ``key_decrypted`` (``first_data`` is owed
        too unless the whole first round was absorbed by injected loss
        and recovery came via unicast — so it is not required).
        """
        if "announce" not in self.milestones:
            return False
        if not self.served:
            return True
        return (
            "decoded" in self.milestones
            and "key_decrypted" in self.milestones
        )

    def canonical(self):
        """The digest projection: deterministic facts only, no clocks."""
        return {
            "interval": self.interval,
            "member_index": self.member_index,
            "member": self.member,
            "trace": self.trace,
            "cohort": self.cohort,
            "served": self.served,
            "milestones": sorted(self.milestones),
            "recovery_round": self.recovery_round,
            "dropped": self.dropped,
        }


def timeline_digest(timelines):
    """SHA-256 over the canonical timelines (the determinism pin)."""
    return canonical_digest(
        sorted(
            (t.canonical() for t in timelines),
            key=lambda c: (c["interval"], c["member_index"]),
        )
    )


@dataclass
class TraceAssembly:
    """The merged, skew-corrected view of one fleet run's streams."""

    timelines: list
    #: stream name -> applied clock offset (seconds, server − stream)
    offsets: dict
    #: interval -> the server's announce-barrier facts
    announces: dict
    streams: list

    def complete(self):
        return [t for t in self.timelines if t.complete]

    def incomplete(self):
        return [t for t in self.timelines if not t.complete]

    def digest(self):
        return timeline_digest(self.timelines)

    def completeness(self):
        """Per interval: expected members vs seen vs complete traces."""
        out = {}
        for interval, announce in sorted(self.announces.items()):
            seen = [t for t in self.timelines if t.interval == interval]
            out[interval] = {
                "expected": announce["members"],
                "seen": len(seen),
                "complete": sum(1 for t in seen if t.complete),
            }
        return out

    def recovery_cdf(self, points=(10, 25, 50, 75, 90, 95, 99)):
        """Client-side recovery-latency percentiles per loss cohort.

        Latencies are each client's *own* announce→decode measurement
        (one process, one clock — no skew correction involved), i.e.
        the member-perceived recovery latency the paper's CDFs plot.
        """
        by_cohort = {}
        for t in self.timelines:
            if t.served and t.latency_ms is not None:
                by_cohort.setdefault(t.cohort, []).append(t.latency_ms)
        cdf = {}
        for cohort, values in sorted(by_cohort.items()):
            cdf[cohort] = {
                "count": len(values),
                "percentiles_ms": {
                    "p%d" % q: round(_percentile(values, q), 3)
                    for q in points
                },
            }
        return cdf


def load_trace_dir(path):
    """Read every ``*.jsonl`` stream in a trace directory.

    Returns ``{stream name: [events]}`` (names are basenames, sorted).
    """
    pattern = os.path.join(os.fspath(path), "*.jsonl")
    files = sorted(glob.glob(pattern))
    if not files:
        raise ObsError("no .jsonl event streams under %r" % (path,))
    return {
        os.path.basename(name): read_events(name) for name in files
    }


def assemble(streams):
    """Merge per-process event streams into a :class:`TraceAssembly`.

    ``streams`` is ``{stream name: [event records]}`` as loaded by
    :func:`load_trace_dir`.  Exactly one stream (the server's) must
    carry the ``wire_announce`` events; client milestones may live in
    any stream, including the server's (in-process clients).
    """
    announces = {}
    for events in streams.values():
        for event in events:
            if event["kind"] != "wire_announce":
                continue
            detail = event["detail"]
            if "mono" not in detail:
                continue  # pre-tracing stream: nothing to anchor on
            announces[int(detail["interval"])] = {
                "trace": detail.get("trace"),
                "mono": float(detail["mono"]),
                "members": int(detail["members"]),
                "served": int(detail["served"]),
            }
    if not announces:
        raise ObsError(
            "no wire_announce barrier events found in any stream — "
            "was the run made with tracing enabled (--obs-dir)?"
        )

    # Per-stream clock offset: median over every (interval, announce)
    # pairing of  server-barrier-mono − client-announce-mono.
    offsets = {}
    grouped = {}  # (interval, member_index) -> (stream, milestone rows)
    for stream, events in sorted(streams.items()):
        samples = []
        for event in events:
            milestone = _MILESTONE_OF_KIND.get(event["kind"])
            if milestone is None:
                continue
            detail = event["detail"]
            interval = int(detail["interval"])
            if milestone == "announce" and interval in announces:
                samples.append(
                    announces[interval]["mono"] - float(detail["mono"])
                )
            key = (interval, int(detail["member_index"]))
            grouped.setdefault(key, (stream, []))[1].append(
                (milestone, detail)
            )
        if samples:
            offsets[stream] = round(_median(samples), 6)

    timelines = []
    for (interval, member_index), (stream, rows) in sorted(
        grouped.items()
    ):
        offset = offsets.get(stream, 0.0)
        first = rows[0][1]
        timeline = Timeline(
            interval=interval,
            member_index=member_index,
            member=first.get("member", "member-%04d" % member_index),
            trace=first.get("trace"),
            cohort=first.get("cohort"),
            served=bool(first.get("served")),
            stream=stream,
        )
        for milestone, detail in rows:
            timeline.milestones[milestone] = round(
                float(detail["mono"]) + offset, 6
            )
            if milestone == "decoded":
                timeline.recovery_round = detail.get("recovery_round")
                timeline.dropped = detail.get("dropped")
                timeline.latency_ms = detail.get("latency_ms")
        timelines.append(timeline)

    return TraceAssembly(
        timelines=timelines,
        offsets=offsets,
        announces=announces,
        streams=sorted(streams),
    )
