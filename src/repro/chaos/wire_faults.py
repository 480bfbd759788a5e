"""Seeded datagram faults for the asyncio UDP wire plane.

The wire plane's loss model (:mod:`repro.wire.loss`) is deliberately
polite: it only ever drops ``DATA`` frames, because the pinned fleet
digests need the control exchanges intact.  Real networks are not
polite.  :class:`DatagramFaultInjector` mangles *any* datagram the
server's socket sends or receives — control frames are fair game — with
five fault families:

- **corrupt** — flip a bit in the frame envelope so the receiver's
  ``decode_frame`` refuses the datagram (``WireDecodeError``).  The
  mutation targets the magic byte on purpose: a flipped *payload* byte
  could decode into a silently-valid-but-wrong frame, which no amount
  of retrying repairs; envelope damage is always detected, so the fault
  exercises the decode-error path and degrades to a deterministic drop.
- **duplicate** — the datagram is delivered twice (receivers must
  deduplicate: the server's aggregation windows by member, a receiver
  shard by slot).
- **reorder** — a multicast ``DATA`` frame is held back and released
  *after* the next frame to the same destination, or at the
  round-boundary flush — never across a round, so the round's feedback
  still reflects the same packet set and the protocol facts stay
  deterministic.
- **delay** — a *control* frame (``SHARD_ANNOUNCE`` / ``ROUND_END`` /
  unicast / the feedback path) is delivered late.  Control exchanges
  are retried-against-cached-state, so lateness costs retries, never
  correctness; multicast ``DATA`` frames are exempt because a late one
  crossing a round boundary would make the NACK trajectory
  timing-dependent.
- **blackout** — a chosen ``(destination, interval)`` loses the *first*
  copy of every frame in both directions: one receiver shard (with every
  member it hosts) or one member's own socket goes dark for one
  interval and must ride the announce-barrier and round retries back
  in.

**Destinations.**  Each decision is keyed on the datagram's destination
as the wire addresses it.  The group frames (``SHARD_ANNOUNCE``,
multicast ``DATA``, ``ROUND_END``, and ``SHARD_FEEDBACK`` on the way
back) belong to a receiver shard, named ``shard-<i>`` after the first
member subscribed to it (never its ephemeral port); ``REGISTER``, the
USR frames and their ``FEEDBACK`` acks to one member (``member-<i>``).
A damaged shard datagram hits every member the shard hosts, as a
damaged multicast datagram hits every receiver on a host.

**Determinism.**  Every decision is a pure function of ``(seed,
direction, destination, frame kind, interval, round, slot)`` — a keyed
hash compared against the plan's rates; a shard's control frames number
their fragments in ``slot`` — and drop-like faults apply only to the
*first* occurrence of a coordinate.  Retransmissions reuse the
coordinates of the frame they repeat, so retries always get through,
the run converges, and how *many* retries the scheduler needed never
enters the fault record.  The timeline of first applications, sorted
(receive-side ones land in socket-arrival order, which the scheduler
owns), is therefore identical for the same ``(plan, seed)`` on any
machine: the injector lives in the server process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ChaosError
from repro.obs.recorder import NULL
from repro.wire import codec

#: The five wire fault families, in the order the injector tests them.
WIRE_FAULT_KINDS = ("blackout", "corrupt", "reorder", "delay", "duplicate")


@dataclass(frozen=True)
class WireFaultParams:
    """Per-family rates for one plan (all default off)."""

    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.002
    blackout_rate: float = 0.0

    def __post_init__(self):
        for name in (
            "corrupt_rate",
            "duplicate_rate",
            "reorder_rate",
            "delay_rate",
            "blackout_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ChaosError(
                    "%s must be a probability, got %r" % (name, rate)
                )

    @property
    def any_enabled(self):
        return any(
            (
                self.corrupt_rate,
                self.duplicate_rate,
                self.reorder_rate,
                self.delay_rate,
                self.blackout_rate,
            )
        )


def corrupt_frame(data):
    """Deterministically damage a frame's envelope (see module docs:
    the magic byte, so the receiver always detects the damage)."""
    if not data:
        return data
    return bytes([data[0] ^ 0x40]) + bytes(data[1:])


def _destination(frame, index):
    """The label ``frame``'s faults are keyed on: ``member-<index>`` for
    ``REGISTER``, ``FEEDBACK`` and the unicast USR frames, and
    ``shard-<index>`` (``index`` = the shard's coordinate) for the group
    frames."""
    member = (
        frame.kind in (codec.FrameKind.REGISTER, codec.FrameKind.FEEDBACK)
        or frame.round_no == codec.UNICAST_ROUND
    )
    return ("member-%d" if member else "shard-%d") % index


class DatagramFaultInjector:
    """The wire transport's fault seam (one per server).

    The server routes every outgoing datagram through :meth:`plan_send`
    with its destination's index, every incoming one through
    :meth:`plan_recv`, and calls :meth:`flush` at each window boundary
    so held (reordered) frames never cross a round.
    """

    def __init__(self, params, seed, obs=NULL):
        self.params = params
        self.seed = int(seed)
        self.obs = obs
        #: first-application records, in arrival order (only the sorted
        #: set is a pure function of the plan and seed)
        self.timeline = []
        #: per-family totals of *applied* (first-occurrence) faults
        self.applied = {}
        self._seen = {}  # coordinate -> occurrence count
        #: destination label -> (its index, [held wire bytes])
        self._held = {}
        self._recorded = set()

    def bind(self, obs):
        self.obs = obs
        return self

    # -- decisions -------------------------------------------------------

    def _draw(self, fault, *coords):
        """Uniform [0, 1) keyed by (seed, fault, coordinates)."""
        digest = hashlib.blake2b(
            ("%d|%s|" % (self.seed, fault)).encode("ascii")
            + "|".join(str(c) for c in coords).encode("ascii"),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def _hits(self, fault, rate, *coords):
        return rate > 0.0 and self._draw(fault, *coords) < rate

    def blacked_out(self, destination, interval):
        """Whether ``(destination, interval)`` is inside a blackout."""
        return self._hits(
            "blackout", self.params.blackout_rate, destination, interval
        )

    def _occurrence(self, coord):
        count = self._seen.get(coord, 0)
        self._seen[coord] = count + 1
        return count

    def _record(self, fault, entry, key=None):
        key = key if key is not None else tuple(sorted(entry.items()))
        if key in self._recorded:
            return
        self._recorded.add(key)
        self.applied[fault] = self.applied.get(fault, 0) + 1
        self.timeline.append(entry)
        self.obs.count("wire_chaos_fault_total", fault=fault)
        self.obs.emit("wire_chaos_fault", **entry)

    def _record_frame(self, fault, direction, destination, frame):
        self._record(
            fault,
            {
                "fault": fault,
                "direction": direction,
                "dest": destination,
                "frame": frame.kind.name,
                "interval": frame.interval,
                "round": frame.round_no,
                "slot": frame.slot,
            },
        )

    def _record_blackout(self, destination, interval):
        # One record per darkened (destination, interval), whichever
        # direction notices first — the decision itself has no
        # direction, so the record must not either.
        self._record(
            "blackout",
            {
                "fault": "blackout",
                "dest": destination,
                "interval": interval,
            },
            key=("blackout", destination, interval),
        )

    def _plan(self, direction, destination, frame, wire):
        """The faults of one datagram: ``(wires, delay, hold)``, where
        ``wires`` is what to deliver (``()`` for a drop) — now, or after
        the next frame to the destination when ``hold``."""
        params = self.params
        coord = (
            direction,
            destination,
            int(frame.kind),
            frame.interval,
            frame.round_no,
            frame.slot,
        )
        if self._occurrence(coord):
            return (wire,), 0.0, False
        if self.blacked_out(destination, frame.interval):
            self._record_blackout(destination, frame.interval)
            return (), 0.0, False
        if self._hits("corrupt", params.corrupt_rate, *coord):
            wire = corrupt_frame(wire)
            self._record_frame("corrupt", direction, destination, frame)
        multicast_data = (
            frame.kind == codec.FrameKind.DATA
            and frame.round_no != codec.UNICAST_ROUND
        )
        if multicast_data and direction == "send":
            if self._hits("reorder", params.reorder_rate, *coord):
                self._record_frame("reorder", direction, destination, frame)
                return (wire,), 0.0, True
        delay = 0.0
        if (
            not multicast_data
            and direction == "send"
            and self._hits("delay", params.delay_rate, *coord)
        ):
            delay = params.delay_seconds
            self._record_frame("delay", direction, destination, frame)
        wires = (wire,)
        if self._hits("duplicate", params.duplicate_rate, *coord):
            wires = (wire, wire)
            self._record_frame("duplicate", direction, destination, frame)
        return wires, delay, False

    # -- the send path ---------------------------------------------------

    def plan_send(self, index, data):
        """Fault-plan one outgoing datagram to ``index``: the receiver
        shard's coordinate for a group frame, the member's index for
        the rest (see :func:`_destination`).  Returns what to send, as
        ``[(wire_bytes, delay_seconds), ...]``; empty is a drop."""
        frame = codec.decode_frame(data)
        destination = _destination(frame, index)
        wires, delay, hold = self._plan("send", destination, frame, data)
        if hold:
            self._held.setdefault(destination, (index, []))[1].extend(wires)
            return []
        sends = [(wire, delay) for wire in wires]
        sends.extend(self._release(destination))
        return sends

    def _release(self, destination):
        """Held frames for ``destination``, ready to send (delay 0)."""
        _, held = self._held.pop(destination, (None, ()))
        return [(wire, 0.0) for wire in held]

    def flush(self):
        """Release every held frame — called at window boundaries so a
        reordered frame never leaks into the next round.  Only multicast
        ``DATA`` is ever held, so this returns ``[(shard coordinate,
        wire_bytes), ...]`` for the server to send."""
        releases = [
            (index, wire)
            for _, (index, held) in sorted(self._held.items())
            for wire in held
        ]
        self._held.clear()
        return releases

    # -- the receive path ------------------------------------------------

    def plan_recv(self, data, shard=None):
        """Fault-plan one incoming datagram; returns the list of
        datagrams the server should process (empty = swallowed).
        ``shard`` is the coordinate of the receiver shard at the
        datagram's source address (``None``: no shard sent it)."""
        try:
            frame = codec.decode_frame(data)
        except Exception:
            # Already-garbage input: pass it through untouched so the
            # server's decode-error accounting sees it exactly once.
            return [data]
        if frame.kind is codec.FrameKind.SHARD_FEEDBACK:
            index = shard
        else:
            index = codec.peek_member_index(frame)
        if index is None:
            return [data]
        wires, _, _ = self._plan(
            "recv", _destination(frame, index), frame, data
        )
        return list(wires)


# -- wire chaos plans ----------------------------------------------------

@dataclass(frozen=True)
class ClientCrash:
    """One scheduled client death: ``member`` (initial ordinal, i.e.
    ``member-%04d``) goes silent at ``(interval, round_no)`` —
    ``round_no`` 0 means it never acknowledges that interval's
    ANNOUNCE."""

    member: int
    interval: int
    round_no: int = 1


@dataclass(frozen=True)
class WireChaosPlan:
    """One named wire-chaos configuration (overridable per run)."""

    name: str
    clients: int = 32
    intervals: int = 4
    workers: int = 0
    churn_alpha_join: float = 0.15
    churn_alpha_leave: float = 0.15
    block_size: int = 5
    nack_window_seconds: float = 0.3
    faults: WireFaultParams = WireFaultParams()
    crashes: tuple = ()
    #: interval whose post-delivery crash point kills the leader
    #: (0 = the leader lives)
    leader_kill_interval: int = 0
    #: client silence watchdog (seconds; 0 = off)
    resync_timeout: float = 0.0
    #: server liveness budget in window tries (0 = members never die)
    liveness_tries: int = 0
    description: str = ""


#: The pinned-digest wire survivability plans (docs/robustness.md).
WIRE_CHAOS_PLANS = {
    "datagram-storm": WireChaosPlan(
        "datagram-storm",
        clients=32,
        intervals=4,
        faults=WireFaultParams(
            corrupt_rate=0.25,
            duplicate_rate=0.25,
            reorder_rate=0.25,
            delay_rate=0.40,
            delay_seconds=0.002,
            blackout_rate=0.40,
        ),
        nack_window_seconds=0.15,
        description=(
            "every fault family at once against 32 clients — corruption,"
            " duplication, reordering, delay and per-interval blackouts,"
            " control frames included"
        ),
    ),
    "client-churn-crash": WireChaosPlan(
        "client-churn-crash",
        clients=32,
        intervals=6,
        churn_alpha_join=0.12,
        churn_alpha_leave=0.0,
        faults=WireFaultParams(corrupt_rate=0.05),
        crashes=(
            ClientCrash(member=5, interval=2, round_no=1),
            ClientCrash(member=11, interval=3, round_no=0),
            ClientCrash(member=17, interval=4, round_no=1),
        ),
        liveness_tries=15,
        nack_window_seconds=0.1,
        description=(
            "three clients die mid-interval (one mid-round, one at the"
            " announce); the server's liveness timeout evicts them into"
            " the leave intake while joins keep arriving"
        ),
    ),
    "leader-kill-live": WireChaosPlan(
        "leader-kill-live",
        clients=24,
        intervals=6,
        workers=2,
        churn_alpha_join=0.10,
        churn_alpha_leave=0.0,
        leader_kill_interval=3,
        resync_timeout=0.75,
        nack_window_seconds=0.15,
        description=(
            "the leader daemon is killed post-delivery while worker"
            " processes keep their clients alive; the fleet must re-home"
            " to the promoted standby and reach key agreement"
        ),
    ),
}

