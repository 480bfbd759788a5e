"""Asyncio server side of the wire plane.

:class:`WireServer` owns one bound UDP socket and drives whole rekey
intervals over it: an announce barrier, block-interleaved multicast
rounds feeding the same :class:`~repro.transport.server.ServerTransport`
scheduler as the simulator, a NACK aggregation window per round, and the
unicast switch-over of §7.1.  What follows each round is
:meth:`~repro.transport.server.ServerTransport.end_round`'s decision,
the same rule the simulated session follows.

Frames come in two address classes, the paper's split of multicast data
and unicast feedback:

- **shard-addressed** — ``DATA``, ``ROUND_END`` and the interval's
  ``SHARD_ANNOUNCE`` (the ANNOUNCE payload plus the shard's roster of
  member indices and served bits) go once per *receiver shard*
  (:class:`~repro.wire.client.ReceiverShard`, one socket per client
  process) that hosts a target member, the way a multicast datagram
  reaches each subscribed host once.  The shard answers each with one
  ``SHARD_FEEDBACK`` table of per-member entries, a few datagrams at
  most, and every entry is offered to the round's per-member
  :class:`AggregationWindow`.  Members are attached with
  :meth:`WireServer.subscribe`;
- **member-addressed** — ``REGISTER`` acks and the unicast USR frames
  go to the member's own socket, and each USR ack (a ``FEEDBACK``)
  comes back from it.

A datagram fault injector, when bound, sits on this one path: every
datagram passes through it keyed on its destination — the shard's
coordinate (the first member subscribed to it) for a shard-addressed
frame, the member's index for the rest.

Reliability model: injected loss only ever applies to multicast ``DATA``
frames (decided client-side from the frame's ``slot``), so every control
exchange converges by retransmission —

- the **announce barrier** resends the ``SHARD_ANNOUNCE`` to the
  shards of members that have not acked, and round 1 starts only when
  every participant has a session (a client that missed the announce
  would otherwise drop the whole round on the floor and break
  determinism);
- each **round** resends ``ROUND_END`` to the shards of members whose
  feedback has not arrived; shards and clients answer retries from a
  cache (and the window drops the duplicates of members that already
  reported), so a kernel-dropped feedback datagram costs latency, never
  different protocol input.  A member that died is absent from its
  shard's table, so the window retries it until the liveness budget
  evicts it;
- the **unicast phase** resends USR frames until every straggler acks.

A kernel-dropped ``DATA`` frame is not retried: it is loss no seed
decided, so receiver shards count it (``ReceiverShard.data_gaps``).

The per-try wait is ``GroupConfig.nack_window_seconds`` — the window
closes early the instant the last expected feedback lands.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.errors import WireDecodeError, WireError
from repro.obs.recorder import NULL
from repro.obs.trace import format_trace
from repro.rekey.packets import PacketType
from repro.transport.server import (
    NEXT_ROUND,
    UNICAST,
    ServerTransport,
    UnicastPolicy,
)
from repro.wire.codec import (
    UNICAST_ROUND,
    FrameKind,
    decode_feedback,
    decode_frame,
    decode_register,
    decode_shard_feedback,
    encode_announce,
    encode_frame,
    encode_register,
    encode_shard_announce,
    kernel_buffer_size,
    request_kernel_buffers,
)

#: Give up on a window after this many send-and-wait tries.  At the
#: default 0.3 s window this is a minute of dead air — a hung client,
#: not transient loss.
MAX_WINDOW_TRIES = 200

#: Yield to the event loop after this many multicast slots so in-process
#: receivers drain their sockets before kernel receive buffers overflow
#: (which would add *nondeterministic* loss on top of the seeded chains).
DEFAULT_PACE_EVERY = 4

#: Worst-case simultaneous senders the server socket is sized for: a
#: shard answers a ROUND_END with a few datagrams, but in the unicast
#: phase every straggler acks its USR frame from its own socket, so this
#: is the largest such fleet the buffers absorb without kernel drops
#: (which only cost retry latency, never protocol input).
DEFAULT_FAN_IN = 2048


@dataclass(frozen=True)
class Participant:
    """One member's coordinates for an interval's delivery.

    ``served`` mirrors membership in ``message.needs_by_user``: served
    members receive DATA/ROUND_END and owe round feedback; the rest only
    join the announce barrier (they still must learn ``maxKID``).
    """

    member_index: int
    user_id: int
    served: bool = True


@dataclass
class WireOutcome:
    """What one interval's wire delivery did, for the delivery layer."""

    interval: int
    rounds: int = 0
    #: round-1 parity shortfalls (sorted) — real AdjustRho input
    first_round_requests: list = field(default_factory=list)
    #: member_index -> final codec.Feedback for every served member
    results: dict = field(default_factory=dict)
    unicast_user_ids: list = field(default_factory=list)
    round_stats: list = field(default_factory=list)
    announce_retries: int = 0
    feedback_retries: int = 0
    unicast_retries: int = 0
    datagrams_sent: int = 0
    #: of ``datagrams_sent``, the multicast DATA frames (one per slot
    #: and receiver shard)
    data_datagrams: int = 0
    #: FEEDBACK datagrams (shard tables or USR acks) that reached one
    #: of this interval's windows, announce acks included
    feedback_datagrams: int = 0
    #: member indices the liveness timeout declared dead this interval
    casualties: set = field(default_factory=set)

    def survivors(self, participants):
        """``participants`` less this interval's casualties."""
        casualties = self.casualties
        return [p for p in participants if p.member_index not in casualties]


def _one_feedback(payload):
    return [decode_feedback(payload)]


class AggregationWindow:
    """Collects one round's FEEDBACK frames from an expected member set.

    The window is *complete* once every expected member has reported;
    duplicates (clients answering a retried ``ROUND_END`` from their
    cache) are dropped so one member can never report twice into the
    same round.
    """

    def __init__(self, expected):
        self.expected = frozenset(int(i) for i in expected)
        self.reported = {}
        self.nacks = []
        #: FEEDBACK datagrams that reached this window
        self.datagrams = 0
        self._complete = asyncio.Event()
        if not self.expected:
            self._complete.set()

    def offer(self, member_index, feedback):
        """Feed one feedback; returns True if it was new and expected."""
        if member_index not in self.expected:
            return False
        if member_index in self.reported:
            return False
        self.reported[member_index] = feedback
        if feedback.nack is not None:
            self.nacks.append(feedback.nack)
        if self.complete:
            self._complete.set()
        return True

    def forget(self, member_index):
        """Stop expecting ``member_index`` (a liveness eviction)."""
        member_index = int(member_index)
        if member_index not in self.expected:
            return
        self.expected = self.expected - {member_index}
        if self.complete:
            self._complete.set()

    @property
    def complete(self):
        return len(self.reported) == len(self.expected)

    @property
    def missing(self):
        return sorted(self.expected - set(self.reported))

    async def wait(self, timeout):
        """True if the window completed within ``timeout`` seconds."""
        try:
            await asyncio.wait_for(self._complete.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False


class _ServerProtocol(asyncio.DatagramProtocol):
    def __init__(self, server):
        self.server = server
        self.transport = None

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        self.server._on_datagram(data, addr)

    def error_received(self, exc):  # pragma: no cover - platform noise
        self.server.errors.append("socket error: %r" % (exc,))


class WireServer:
    """The key server's wire-plane endpoint."""

    def __init__(
        self,
        config,
        host="127.0.0.1",
        port=0,
        obs=NULL,
        epoch=0,
        faults=None,
        liveness_tries=None,
    ):
        """``epoch`` is the leader's fencing token (0 = unfenced);
        ``faults`` an optional
        :class:`~repro.chaos.wire_faults.DatagramFaultInjector` wrapping
        both socket directions; ``liveness_tries`` the window-try budget
        after which a silent member is declared dead and evicted
        (``None`` = members never die, the pre-chaos behaviour)."""
        self.config = config
        self.host = host
        self.port = int(port)
        self.obs = obs
        self.epoch = int(epoch)
        self.faults = faults
        self.liveness_tries = (
            None if liveness_tries is None else int(liveness_tries)
        )
        self.errors = []
        self.decode_errors = 0
        self.stale_feedback = 0
        self.stale_epoch_feedback = 0
        self.registrations = 0
        self.reregistrations = 0
        #: member indices declared dead by the liveness timeout, for the
        #: delivery layer to feed into the leave intake
        self.casualties = set()
        self._addresses = {}  # member_index -> (host, port)
        self._shards = {}  # member_index -> receiver shard (host, port)
        #: receiver shard address -> its fault coordinate: the index of
        #: the first member subscribed there (never the ephemeral port)
        self._shard_ids = {}
        self._windows = {}  # (interval, round_no) -> AggregationWindow
        self._registered = None  # asyncio.Event, created on start
        self._transport = None
        if self.faults is not None:
            self.faults.bind(self.obs)

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        loop = asyncio.get_running_loop()
        self._registered = asyncio.Event()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _ServerProtocol(self),
            local_addr=(self.host, self.port),
        )
        request_kernel_buffers(
            self._transport,
            kernel_buffer_size(self.config.packet_size, DEFAULT_FAN_IN),
        )
        return self

    @property
    def address(self):
        """The bound ``(host, port)`` — hand this to the clients."""
        if self._transport is None:
            raise WireError("server not started")
        return self._transport.get_extra_info("sockname")[:2]

    async def close(self):
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def subscribe(self, member_index, address):
        """Attach a member to the receiver shard at ``address``: its
        shard-addressed frames go there, shared with the shard's other
        members."""
        address = tuple(address)
        self._shards[int(member_index)] = address
        self._shard_ids.setdefault(address, int(member_index))

    @property
    def subscriptions(self):
        """``{member_index: shard address}`` (a copy, for handoff)."""
        return dict(self._shards)

    def forget(self, member_index):
        """Drop an evicted member's address and subscription."""
        self._addresses.pop(int(member_index), None)
        self._shards.pop(int(member_index), None)

    async def wait_registered(self, member_indices, timeout=30.0, abort=None):
        """Block until every index has announced an address.

        ``abort`` is an optional callable polled between waits; it
        raises to abandon the barrier early (the delivery layer uses it
        to surface dead worker processes instead of timing out here).
        """
        needed = set(int(i) for i in member_indices)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not needed <= set(self._addresses):
            if abort is not None:
                abort()
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise WireError(
                    "members never registered: %r"
                    % sorted(needed - set(self._addresses))
                )
            self._registered.clear()
            try:
                await asyncio.wait_for(
                    self._registered.wait(), min(0.25, remaining)
                )
            except asyncio.TimeoutError:
                continue

    # -- receive path ------------------------------------------------------

    def _on_datagram(self, data, addr):
        if self.faults is not None:
            shard = self._shard_ids.get(addr)
            for mangled in self.faults.plan_recv(data, shard):
                self._process_datagram(mangled, addr)
            return
        self._process_datagram(data, addr)

    def _process_datagram(self, data, addr):
        try:
            frame = decode_frame(data)
        except WireDecodeError as exc:
            self._count_decode_error(exc)
            return
        try:
            if frame.kind is FrameKind.REGISTER:
                self._on_register(frame, addr)
            elif frame.kind is FrameKind.FEEDBACK:
                self._on_feedback(frame, _one_feedback)
            elif frame.kind is FrameKind.SHARD_FEEDBACK:
                self._on_feedback(frame, decode_shard_feedback)
            # Anything else is a client-bound kind echoed back; ignore.
        except Exception as exc:  # noqa: BLE001 - surfaced to the runner
            self.errors.append("%s: %s" % (type(exc).__name__, exc))

    def _count_decode_error(self, exc):
        self.decode_errors += 1
        self.obs.count("wire_decode_error_total", side="server")
        self.obs.emit("wire_decode_error", error=str(exc), side="server")

    def _on_register(self, frame, addr):
        register = decode_register(frame.payload)
        known = self._addresses.get(register.member_index)
        self._addresses[register.member_index] = addr
        if known is None:
            self.registrations += 1
        else:
            # Idempotent re-REGISTER: a resent datagram, a resync after
            # silence, or a client re-homing onto a promoted leader.
            self.reregistrations += 1
            self.obs.count("wire_reregistrations")
        self._registered.set()
        # Ack with the server's epoch: this is how a client first learns
        # (or relearns, after a failover) who the leader is.  Any frame
        # stops the client's retry loop.
        self._transport.sendto(
            encode_frame(
                FrameKind.REGISTER,
                0,
                payload=encode_register(
                    register.member_index,
                    register.user_id,
                    trace_id=register.trace_id,
                    epoch=self.epoch,
                ),
            ),
            addr,
        )

    def _on_feedback(self, frame, decode):
        """A member's FEEDBACK or a shard's table of them, as ``decode``
        lists them: each entry is offered to the frame's window."""
        try:
            feedbacks = decode(frame.payload)
        except WireDecodeError as exc:
            self._count_decode_error(exc)
            return
        fresh = [f for f in feedbacks if self._epoch_ok(f, frame.interval)]
        if not fresh:
            return
        window = self._windows.get((frame.interval, frame.round_no))
        if window is None:
            self.stale_feedback += 1
            return
        window.datagrams += 1
        for feedback in fresh:
            window.offer(feedback.member_index, feedback)

    def _epoch_ok(self, feedback, interval):
        if not self.epoch or feedback.epoch == self.epoch:
            return True
        # End-to-end fencing: a report minted against another leader's
        # epoch never enters an aggregation window.
        self.stale_epoch_feedback += 1
        self.obs.count("wire_stale_epoch_total", side="server")
        self.obs.emit(
            "wire_stale_epoch",
            side="server",
            member=feedback.member_index,
            epoch=feedback.epoch,
            current=self.epoch,
            interval=interval,
        )
        return False

    # -- delivery ----------------------------------------------------------

    def _send_to(self, frames_by_index, member_indices, outcome):
        """Member-addressed: each member's own frame to its own socket."""
        for member_index in member_indices:
            if member_index in self.casualties:
                continue
            address = self._addresses.get(member_index)
            if address is None:
                raise WireError(
                    "no address for member index %d" % member_index
                )
            self._transmit(
                member_index, frames_by_index[member_index], address, outcome
            )

    def _multicast(self, frame, targets, outcome, shards=None):
        """Group-addressed: ``frame`` once per receiver shard hosting a
        live target (``shards``: those addresses, when the caller has
        them already)."""
        if shards is None:
            shards = self._shards_of(targets)
        for address in shards:
            self._transmit(self._shard_ids[address], frame, address, outcome)

    def _shard_of(self, member_index):
        address = self._shards.get(member_index)
        if address is None:
            raise WireError(
                "no receiver shard for member index %d" % member_index
            )
        return address

    def _shards_of(self, member_indices):
        """The receiver shards hosting the live ``member_indices``."""
        casualties = self.casualties
        return {
            self._shard_of(member_index)
            for member_index in member_indices
            if member_index not in casualties
        }

    def _transmit(self, index, wire, address, outcome):
        """One datagram to ``address`` through the fault seam, which
        keys it on ``index``: the shard's coordinate or the member's
        index (the no-faults path is a plain ``sendto``)."""
        if self.faults is None:
            self._transport.sendto(wire, address)
            outcome.datagrams_sent += 1
            return
        for data, delay in self.faults.plan_send(index, wire):
            if delay > 0:
                asyncio.get_running_loop().call_later(
                    delay, self._sendto_late, data, address
                )
            else:
                self._transport.sendto(data, address)
            outcome.datagrams_sent += 1

    def _sendto_late(self, data, address):
        if self._transport is not None:
            self._transport.sendto(data, address)

    def _flush_faults(self, outcome):
        """Release reorder-held frames at a window boundary, so a held
        DATA frame is always delivered before its round's ROUND_END."""
        if self.faults is None:
            return
        held = self.faults.flush()
        if held:
            addresses = {i: a for a, i in self._shard_ids.items()}
            for index, wire in held:
                self._transport.sendto(wire, addresses[index])
                outcome.datagrams_sent += 1

    def _evict(self, key, window, outcome):
        """Declare the window's missing members dead (liveness timeout):
        stop expecting them, record the casualties for the delivery
        layer's leave intake."""
        interval, round_no = key
        for member_index in list(window.missing):
            window.forget(member_index)
            outcome.casualties.add(member_index)
            self.casualties.add(member_index)
            self.obs.count("wire_client_evictions")
            self.obs.emit(
                "wire_client_evicted",
                interval=interval,
                phase=round_no,
                member=member_index,
            )

    def _announcer(self, interval, participants, payload, outcome):
        """The announce barrier's ``send(missing)``: each missing
        member's shard gets its ``SHARD_ANNOUNCE`` (the ANNOUNCE
        ``payload`` and the shard's whole roster, fragment number in
        ``slot``)."""
        rosters = {}
        for p in participants:
            rosters.setdefault(self._shard_of(p.member_index), []).append(
                (p.member_index, p.served)
            )
        announces = {
            address: [
                encode_frame(
                    FrameKind.SHARD_ANNOUNCE, interval, slot=slot, payload=part
                )
                for slot, part in enumerate(
                    encode_shard_announce(payload, roster)
                )
            ]
            for address, roster in rosters.items()
        }

        def send(missing):
            for address in self._shards_of(missing):
                for wire in announces[address]:
                    self._transmit(
                        self._shard_ids[address], wire, address, outcome
                    )

        return send

    async def _drive_window(self, key, window, send, outcome, what):
        """Send-and-wait until ``window`` completes; returns the retries.

        Each try calls ``send(missing)`` with the members still missing,
        then waits one aggregation window.  A shard-addressed send
        reaches each missing member's whole shard, which answers from
        its cached table; the window drops the entries of members that
        already reported.  The wait returns the moment the last
        feedback lands, so a healthy fleet never pays the full cap.
        With a liveness budget set, members still missing after
        ``liveness_tries`` tries are evicted instead of stalling the
        interval to the full cap.
        """
        self._windows[key] = window
        try:
            tries = 0
            while not window.complete:
                if (
                    self.liveness_tries is not None
                    and tries >= self.liveness_tries
                ):
                    self._evict(key, window, outcome)
                    continue
                if tries >= MAX_WINDOW_TRIES:
                    raise WireError(
                        "%s: no feedback from member indices %r after "
                        "%d tries" % (what, window.missing, tries)
                    )
                self._flush_faults(outcome)
                send(window.missing)
                tries += 1
                await window.wait(self.config.nack_window_seconds)
            return max(0, tries - 1)
        finally:
            outcome.feedback_datagrams += window.datagrams
            self._windows.pop(key, None)

    async def deliver(
        self,
        message,
        interval,
        participants,
        rho=1.0,
        deadline_rounds=None,
        pace_seconds=0.0,
        trace_id=0,
    ):
        """Run one rekey message over the wire; returns a WireOutcome.

        ``participants`` is the interval's roster of
        :class:`Participant` — every entry must already be registered,
        and every served one subscribed to a receiver shard.
        ``pace_seconds`` optionally sleeps between multicast slots
        (worker mode, where clients drain in other processes); the
        default in-process mode yields to the event loop every
        :data:`DEFAULT_PACE_EVERY` slots.  ``trace_id`` is the
        interval's distributed-trace id: carried in the ANNOUNCE payload
        so every client (in-process or in a worker) tags its recovery
        milestones with it.
        """
        if deadline_rounds is None:
            deadline_rounds = self.config.max_multicast_rounds
        participants = [
            p for p in participants if p.member_index not in self.casualties
        ]
        served = [p for p in participants if p.served]
        if not served:
            raise WireError("delivery with no served participants")
        transport = ServerTransport(
            message,
            rho=rho,
            sending_interval_ms=self.config.sending_interval_ms,
            unicast_policy=UnicastPolicy(
                max_multicast_rounds=deadline_rounds,
                compare_usr_bytes=False,
            ),
        )
        outcome = WireOutcome(interval=interval)

        # Announce barrier: nobody multicast-races a missing session.
        announce_payload = encode_announce(
            message, self.config.degree, trace_id=trace_id, epoch=self.epoch
        )
        outcome.announce_retries = await self._drive_window(
            (interval, 0),
            AggregationWindow(p.member_index for p in participants),
            self._announcer(interval, participants, announce_payload, outcome),
            outcome,
            what="interval %d announce" % interval,
        )
        served = outcome.survivors(served)
        if not served:
            return outcome
        # ``mono`` anchors skew correction: the assembler aligns each
        # worker stream's monotonic clock against this barrier instant.
        self.obs.emit(
            "wire_announce",
            interval=interval,
            members=len(participants),
            served=len(served),
            retries=outcome.announce_retries,
            trace=format_trace(trace_id),
            mono=time.monotonic(),
        )

        slot = 0
        verdict = NEXT_ROUND
        while verdict == NEXT_ROUND:
            # The served members' indices: this round's multicast targets.
            targets = [p.member_index for p in served]
            shards = self._shards_of(targets)
            planned = transport.plan_round()
            round_no = transport.rounds_completed
            for scheduled in planned:
                packet = scheduled.packet
                if packet.packet_type is PacketType.ENC:
                    payload = packet.encode(message.packet_size)
                else:
                    payload = packet.encode()
                frame = encode_frame(
                    FrameKind.DATA,
                    interval,
                    round_no=round_no,
                    slot=slot,
                    payload=payload,
                )
                sent = outcome.datagrams_sent
                self._multicast(frame, targets, outcome, shards)
                outcome.data_datagrams += outcome.datagrams_sent - sent
                slot += 1
                if pace_seconds:
                    await asyncio.sleep(pace_seconds)
                elif slot % DEFAULT_PACE_EVERY == 0:
                    await asyncio.sleep(0)

            end_frame = encode_frame(
                FrameKind.ROUND_END, interval, round_no=round_no
            )
            window = AggregationWindow(targets)
            retries = await self._drive_window(
                (interval, round_no),
                window,
                lambda missing: self._multicast(end_frame, missing, outcome),
                outcome,
                what="interval %d round %d" % (interval, round_no),
            )
            outcome.feedback_retries += retries
            outcome.results.update(window.reported)
            served = outcome.survivors(served)
            pending = [
                p
                for p in served
                if not window.reported[p.member_index].done
            ]
            verdict = transport.end_round(
                window.nacks, [p.user_id for p in pending]
            )
            if not served:
                break
            outcome.round_stats.append(
                {
                    "round": round_no,
                    "packets": len(planned),
                    "nacks": len(window.nacks),
                }
            )
            self.obs.emit(
                "wire_nack_window",
                interval=interval,
                round=round_no,
                nacks=len(window.nacks),
                retries=retries,
            )
            self.obs.emit(
                "wire_round",
                interval=interval,
                round=round_no,
                packets=len(planned),
                nacks=len(window.nacks),
                pending=len(pending),
            )
        outcome.rounds = transport.rounds_completed
        outcome.first_round_requests = sorted(transport.first_round_requests)
        if verdict == UNICAST:
            await self._unicast_phase(transport, interval, pending, outcome)
        return outcome

    async def _unicast_phase(self, transport, interval, pending, outcome):
        """Serve the stragglers by USR, retried until each one acks."""
        usr_frames = {
            p.member_index: encode_frame(
                FrameKind.DATA,
                interval,
                round_no=UNICAST_ROUND,
                payload=transport.usr_packet_for(p.user_id).encode(),
            )
            for p in pending
        }
        window = AggregationWindow(usr_frames)
        outcome.unicast_retries = await self._drive_window(
            (interval, UNICAST_ROUND),
            window,
            lambda missing: self._send_to(usr_frames, missing, outcome),
            outcome,
            what="interval %d unicast" % interval,
        )
        outcome.results.update(window.reported)
        pending = outcome.survivors(pending)
        outcome.unicast_user_ids = sorted(p.user_id for p in pending)
        self.obs.emit(
            "wire_unicast",
            interval=interval,
            users=len(pending),
            retries=outcome.unicast_retries,
        )

    def __repr__(self):
        return "WireServer(members=%d)" % len(self._addresses)
