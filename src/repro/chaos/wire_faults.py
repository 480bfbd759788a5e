"""Seeded datagram faults for the asyncio UDP wire plane.

The wire plane's loss model (:mod:`repro.wire.loss`) is deliberately
polite: it only ever drops ``DATA`` frames, because the pinned fleet
digests need the control exchanges intact.  Real networks are not
polite.  :class:`DatagramFaultInjector` mangles *any* frame — control
frames are fair game — with five fault families:

- **corrupt** — flip a bit in the frame envelope so the receiver's
  ``decode_frame`` refuses the datagram (``WireDecodeError``).  The
  mutation targets the magic byte on purpose: a flipped *payload* byte
  could decode into a silently-valid-but-wrong frame, which no amount
  of retrying repairs; envelope damage is always detected, so the fault
  exercises the decode-error path and degrades to a deterministic drop.
- **duplicate** — the datagram is delivered twice (receivers must
  deduplicate: the server's aggregation windows by member, the client
  by slot).
- **reorder** — a multicast ``DATA`` frame is held back and released
  *after* the next frame to the same member, or at the round-boundary
  flush — never across a round, so the round's feedback still reflects
  the same packet set and the protocol facts stay deterministic.
- **delay** — a *control* frame (ANNOUNCE / ROUND_END / unicast / the
  feedback path) is delivered late.  Control exchanges are
  retried-against-cached-state, so lateness costs retries, never
  correctness; ``DATA`` frames are exempt because a late one crossing a
  round boundary would make the NACK trajectory timing-dependent.
- **blackout** — a chosen ``(member, interval)`` loses the *first* copy
  of every frame in both directions: one member goes dark for one
  interval and must ride the announce-barrier and round retries back
  in.

**Determinism.**  Every decision is a pure function of ``(seed,
direction, member, frame kind, interval, round, slot)`` — a keyed hash
compared against the plan's rates — and drop-like faults apply only to
the *first* occurrence of a coordinate.  Retransmissions reuse the
coordinates of the frame they repeat, so retries always get through,
the run converges, and how *many* retries the scheduler needed never
enters the fault record.  The timeline of first applications, sorted (receive-side ones land in
socket-arrival order, which the scheduler owns), is therefore identical
for the same ``(plan, seed)`` on any machine and under any worker
placement: the
injector lives in the server process, and the client side of the fleet
never makes a fault decision.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class SendPlan:
    """What to do with one outgoing datagram: each entry is
    ``(wire_bytes, delay_seconds)``; an empty list is a drop."""

    sends: tuple = ()


def corrupt_frame(data):
    """Deterministically damage a frame's envelope (see module docs:
    the magic byte, so the receiver always detects the damage)."""
    if not data:
        return data
    return bytes([data[0] ^ 0x40]) + bytes(data[1:])


class DatagramFaultInjector:
    """The wire transport's fault seam (one per server).

    The server routes every outgoing datagram through
    :meth:`plan_send`, every incoming one through :meth:`plan_recv`,
    and calls :meth:`flush` at each window boundary so held (reordered)
    frames never cross a round.
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
        self._held = {}  # member_index -> [wire bytes] (reorder cells)
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

    def blacked_out(self, member_index, interval):
        """Whether ``(member, interval)`` is inside a burst blackout."""
        return self._hits(
            "blackout", self.params.blackout_rate, member_index, interval
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

    def _record_frame(self, fault, direction, member_index, frame):
        self._record(
            fault,
            {
                "fault": fault,
                "direction": direction,
                "member": member_index,
                "frame": frame.kind.name,
                "interval": frame.interval,
                "round": frame.round_no,
                "slot": frame.slot,
            },
        )

    def _record_blackout(self, member_index, interval):
        # One record per darkened (member, interval), whichever
        # direction notices first — the decision itself has no
        # direction, so the record must not either.
        self._record(
            "blackout",
            {
                "fault": "blackout",
                "member": member_index,
                "interval": interval,
            },
            key=("blackout", member_index, interval),
        )

    # -- the send path ---------------------------------------------------

    def plan_send(self, member_index, data):
        """Fault-plan one outgoing datagram to ``member_index``."""
        frame = codec.decode_frame(data)
        params = self.params
        coord = (
            "send",
            member_index,
            int(frame.kind),
            frame.interval,
            frame.round_no,
            frame.slot,
        )
        first = self._occurrence(coord) == 0
        if first and self.blacked_out(member_index, frame.interval):
            self._record_blackout(member_index, frame.interval)
            return SendPlan(tuple(self._release(member_index)))
        wire = data
        if first and self._hits("corrupt", params.corrupt_rate, *coord):
            wire = corrupt_frame(wire)
            self._record_frame("corrupt", "send", member_index, frame)
        multicast_data = (
            frame.kind == codec.FrameKind.DATA
            and frame.round_no != codec.UNICAST_ROUND
        )
        if (
            first
            and multicast_data
            and self._hits("reorder", params.reorder_rate, *coord)
        ):
            self._record_frame("reorder", "send", member_index, frame)
            self._held.setdefault(member_index, []).append(wire)
            return SendPlan(())
        delay = 0.0
        if (
            first
            and not multicast_data
            and self._hits("delay", params.delay_rate, *coord)
        ):
            delay = params.delay_seconds
            self._record_frame("delay", "send", member_index, frame)
        sends = [(wire, delay)]
        if first and self._hits(
            "duplicate", params.duplicate_rate, *coord
        ):
            sends.append((wire, delay))
            self._record_frame("duplicate", "send", member_index, frame)
        sends.extend(self._release(member_index))
        return SendPlan(tuple(sends))

    def _release(self, member_index):
        """Held frames for ``member_index``, ready to send (delay 0)."""
        held = self._held.pop(member_index, None)
        if not held:
            return []
        return [(wire, 0.0) for wire in held]

    def flush(self):
        """Release every held frame — called at window boundaries so a
        reordered frame never leaks into the next round.  Returns
        ``[(member_index, wire_bytes), ...]`` for the server to send."""
        releases = []
        for member_index in sorted(self._held):
            for wire in self._held[member_index]:
                releases.append((member_index, wire))
        self._held.clear()
        return releases

    # -- the receive path ------------------------------------------------

    def plan_recv(self, data):
        """Fault-plan one incoming datagram; returns the list of
        datagrams the server should process (empty = swallowed)."""
        try:
            frame = codec.decode_frame(data)
        except ChaosError:  # pragma: no cover - decode never raises this
            return [data]
        except Exception:
            # Already-garbage input: pass it through untouched so the
            # server's decode-error accounting sees it exactly once.
            return [data]
        member_index = codec.peek_member_index(frame)
        if member_index is None:
            return [data]
        params = self.params
        coord = (
            "recv",
            member_index,
            int(frame.kind),
            frame.interval,
            frame.round_no,
            frame.slot,
        )
        first = self._occurrence(coord) == 0
        if first and self.blacked_out(member_index, frame.interval):
            self._record_blackout(member_index, frame.interval)
            return []
        wire = data
        if first and self._hits("corrupt", params.corrupt_rate, *coord):
            wire = corrupt_frame(wire)
            self._record_frame("corrupt", "recv", member_index, frame)
        out = [wire]
        if first and self._hits(
            "duplicate", params.duplicate_rate, *coord
        ):
            out.append(wire)
            self._record_frame("duplicate", "recv", member_index, frame)
        return out


# -- wire chaos plans ----------------------------------------------------

#: The pinned-digest wire survivability plans (docs/robustness.md).
WIRE_CHAOS_PLAN_NAMES = (
    "datagram-storm",
    "client-churn-crash",
    "leader-kill-live",
)


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


WIRE_CHAOS_PLANS = {
    "datagram-storm": WireChaosPlan(
        "datagram-storm",
        clients=32,
        intervals=4,
        faults=WireFaultParams(
            corrupt_rate=0.10,
            duplicate_rate=0.10,
            reorder_rate=0.08,
            delay_rate=0.08,
            delay_seconds=0.002,
            blackout_rate=0.05,
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


def make_wire_plan(
    name, clients=None, intervals=None, workers=None, seed=None
):
    """A :class:`WireChaosPlan` by name, with optional size overrides.

    ``seed`` is accepted for symmetry with :func:`repro.chaos.plans.
    make_plan` but ignored: wire plans are pure configurations — the
    seed enters at run time, through the injector and the group config.
    """
    try:
        plan = WIRE_CHAOS_PLANS[name]
    except KeyError:
        raise ChaosError(
            "unknown wire chaos plan %r (valid: %s)"
            % (name, ", ".join(WIRE_CHAOS_PLAN_NAMES))
        )
    overrides = {}
    if clients is not None:
        overrides["clients"] = int(clients)
    if intervals is not None:
        overrides["intervals"] = int(intervals)
    if workers is not None:
        overrides["workers"] = int(workers)
    return replace(plan, **overrides) if overrides else plan


def describe_wire_plans():
    """``(name, description)`` pairs for ``--list-plans``."""
    return [
        (name, WIRE_CHAOS_PLANS[name].description)
        for name in WIRE_CHAOS_PLAN_NAMES
    ]
