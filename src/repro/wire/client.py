"""Asyncio client side of the wire plane.

One :class:`WireClient` per group member: an ephemeral UDP socket
connected to the server, a registration loop that retries until the
server has the address, and per-interval receiver state driven by the
frames defined in :mod:`repro.wire.codec`.

The member's own socket carries the *member-addressed* traffic:
``REGISTER`` and its ack, ``ANNOUNCE`` (it carries the per-member served
flag), ``FEEDBACK`` and unicast USR frames.  The *group-addressed*
frames, ``DATA`` and ``ROUND_END``, arrive on a :class:`ReceiverShard`:
one socket per client process that decodes each frame (and its ENC
header or PARITY packet) once and hands the same immutable objects to
every hosted client's state machine — multicast's one-datagram-per-host
delivery.  DATA and ROUND_END share the shard's socket because a socket
is FIFO: on two sockets, a round's ROUND_END could overtake its DATA.
The shard also does the work its members share: it decodes an ENC
frame's full packet once, for the first hosted member it covers, and
hands the same :class:`~repro.rekey.packets.EncPacket` to every other
covered member; and it builds the interval's shared-uplink loss chain
once (:class:`~repro.wire.loss.SharedUplink`) rather than once per
member.  Each hosted member still samples its own receiver loss, dedups
its own slots and runs its own crash and epoch checks, so placement
never changes the protocol.  Under a datagram fault seam the server
keeps every frame member-addressed, and the member's socket handles
DATA and ROUND_END itself.

The receive path mirrors the simulated user exactly — every ``DATA``
frame feeds the same :class:`~repro.transport.user.UserTransport` state
machine, and recovered encryptions are absorbed into a real
:class:`~repro.core.member.GroupMember` so key agreement is checked on
actual decrypted keys, not on simulator bookkeeping.

Determinism over real sockets rests on three rules:

- injected loss applies only to multicast ``DATA`` frames and is decided
  by the frame's ``slot`` (virtual time), never by arrival time;
- ``end_of_round`` runs exactly once per round; the resulting feedback
  is cached and *resent verbatim* when the server retries a
  ``ROUND_END`` (a feedback datagram the kernel dropped costs latency,
  never a different NACK);
- control frames (``ANNOUNCE``/``ROUND_END``/``FEEDBACK``/``REGISTER``)
  and unicast USR frames bypass injected loss entirely, so the protocol
  converges on every seed.

**Survivability** (docs/robustness.md): the client is also a small
resync state machine.  Every ANNOUNCE and REGISTER ack carries the
leader's epoch; the client adopts a higher epoch (a promoted leader),
refuses a lower one (a deposed leader's straggler — no stale-epoch key
is ever absorbed), and counts a skipped interval number as a missed
interval.  A silence watchdog (``resync_timeout``) re-enters the
bounded full-jitter REGISTER cycle whenever the leader goes quiet, so a
fleet orphaned by a leader kill re-homes onto the promoted standby by
itself.  Undecodable datagrams and ICMP refusals are counted, not
fatal — under the datagram fault injector both are routine weather.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.errors import PacketDecodeError, WireError
from repro.obs.recorder import NULL
from repro.obs.trace import format_trace
from repro.rekey.packets import (
    FEC_PAYLOAD_OFFSET,
    EncPacket,
    PacketType,
    decode_enc_header,
    decode_packet,
    packet_type_of,
)
from repro.transport.user import UserTransport
from repro.util.retry import RetryPolicy
from repro.wire.codec import (
    NO_FINGERPRINT,
    UNICAST_ROUND,
    Feedback,
    FrameKind,
    decode_announce,
    decode_frame,
    decode_register,
    encode_feedback,
    encode_frame,
    encode_register,
    kernel_buffer_size,
    request_kernel_buffers,
)
from repro.wire.loss import MemberLoss, SharedUplink, cohort_of

#: The REGISTER resend schedule: bounded attempts with full-jitter
#: backoff (replacing the old fixed 50 ms forever-loop).  Exhaustion
#: emits ``wire_register_giveup``; with a silence watchdog armed the
#: cycle re-runs on the next timeout, so a client keeps probing for a
#: (re)appearing leader without ever stampeding it.
REGISTER_POLICY = RetryPolicy(
    max_attempts=12,
    base_delay=0.05,
    multiplier=1.6,
    max_delay=1.0,
    jitter=True,
)

#: Floor on the per-attempt wait so a jitter draw near zero cannot turn
#: the cycle into a busy loop.
MIN_REGISTER_WAIT = 0.005

#: Datagram burst a client or shard socket is sized for: one whole
#: multicast round arriving before the event loop gets back to it.  The
#: packet-size ceiling is deliberately generous — the receiver learns
#: the real size only from traffic, after its socket already exists.
DATA_FAN_IN = 256
PACKET_SIZE_CEILING = 2048


def parse_multicast(payload):
    """Parse a multicast DATA payload: ``(EncHeader, FEC body)`` for an
    ENC packet, ``(ParityPacket, None)`` for a PARITY packet.

    Header only for ENC: the transport parses the body of the one ENC
    packet that covers its member.  Both results are immutable, so a
    receiver shard parses once and shares them among its members.
    """
    if packet_type_of(payload) is PacketType.ENC:
        return decode_enc_header(payload), payload[FEC_PAYLOAD_OFFSET:]
    packet = decode_packet(payload)
    if packet.packet_type is not PacketType.PARITY:
        raise WireError(
            "multicast DATA frame carried %s" % packet.packet_type
        )
    return packet, None


class CoveringPacket:
    """One ENC DATA frame's full packet, decoded at most once.

    A receiver shard makes one per ENC frame and every hosted member the
    frame's header covers reads :meth:`get`: the first decodes, the rest
    share the same immutable :class:`~repro.rekey.packets.EncPacket`.
    It is bound to the frame's own bytes, so two different payloads can
    never share a decode.
    """

    __slots__ = ("_wire", "_packet")

    def __init__(self, wire):
        self._wire = wire
        self._packet = None

    def get(self):
        if self._packet is None:
            self._packet = EncPacket.decode(self._wire)
        return self._packet


class _Session:
    """One interval's receiver state on the client."""

    __slots__ = (
        "interval",
        "announce",
        "served",
        "transport",
        "loss",
        "started_at",
        "absorbed",
        "latency_ms",
        "feedback_cache",
        "announce_ack",
        "unicast_ack",
        "trace_id",
        "saw_data",
        "epoch",
        "seen_slots",
    )

    def __init__(self, interval, announce, served):
        self.interval = interval
        self.announce = announce
        self.served = served
        self.epoch = announce.epoch
        #: multicast DATA slots already processed (duplicate defence)
        self.seen_slots = set()
        self.transport = None
        self.loss = None
        self.started_at = time.monotonic()
        self.absorbed = False
        self.latency_ms = 0.0
        #: encoded FEEDBACK datagram per completed round, 1-based
        self.feedback_cache = {}
        self.announce_ack = None
        self.unicast_ack = None
        self.trace_id = announce.trace_id
        self.saw_data = False

    @property
    def done(self):
        if not self.served:
            return True
        return self.transport.done

    @property
    def rounds_reported(self):
        return len(self.feedback_cache)


class _ClientProtocol(asyncio.DatagramProtocol):
    def __init__(self, client):
        self.client = client
        self.transport = None

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        self.client._on_datagram(data)

    def error_received(self, exc):
        self.client._on_socket_error(exc)


class ReceiverShard:
    """One socket receiving the group-addressed frames of many clients.

    Connected to the server like a client socket, so only the server's
    datagrams arrive.  Each DATA or ROUND_END frame is decoded once and
    handed to every hosted :class:`WireClient` (see the module docs),
    with a :class:`CoveringPacket` for an ENC frame's full packet.
    Clients attach themselves in :meth:`WireClient.start` and detach in
    :meth:`WireClient.close`; the server learns the shard's
    :attr:`address` per member through ``WireServer.subscribe``.

    **Gap accounting.**  The server sends an interval's DATA slots in
    order, and one socket delivers them in order, so a slot skipped
    between two consecutive DATA frames was dropped by the kernel — loss
    the seeded chains did not decide, hitting every hosted member at
    once.  Each skipped slot counts in :attr:`data_gaps` and
    ``wire_data_gaps_total``.

    **Shared loss.**  :meth:`uplink` hands every hosted member the same
    :class:`~repro.wire.loss.SharedUplink` for an interval, so the
    source chain is walked once per interval, not once per member.
    """

    def __init__(self, server_address, obs=NULL):
        self.server_address = tuple(server_address)
        self.obs = obs
        #: member_index -> hosted WireClient
        self.clients = {}
        self.errors = []
        self.decode_errors = 0
        self.data_gaps = 0
        self._interval = None
        self._next_slot = 0
        self._uplink = None
        self._transport = None

    async def start(self):
        loop = asyncio.get_running_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _ShardProtocol(self),
            remote_addr=self.server_address,
        )
        request_kernel_buffers(
            self._transport,
            kernel_buffer_size(PACKET_SIZE_CEILING, DATA_FAN_IN),
        )
        return self

    @property
    def address(self):
        """The shard socket's ``(host, port)`` — subscribe members here."""
        if self._transport is None:
            raise WireError("receiver shard not started")
        return self._transport.get_extra_info("sockname")[:2]

    async def close(self):
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def host(self, client):
        self.clients[client.member_index] = client

    def drop(self, client):
        self.clients.pop(client.member_index, None)

    def uplink(self, params, interval, seed, spacing_seconds):
        """The interval's :class:`~repro.wire.loss.SharedUplink`, built
        once for every hosted member asking with the same arguments."""
        uplink = self._uplink
        if uplink is None or uplink.key != SharedUplink.key_for(
            params, interval, seed, spacing_seconds
        ):
            uplink = self._uplink = SharedUplink(
                params, interval, seed, spacing_seconds
            )
        return uplink

    def _on_datagram(self, data):
        try:
            frame = decode_frame(data)
            parsed = covering = None
            if frame.kind is FrameKind.DATA:
                if frame.round_no == UNICAST_ROUND:
                    raise WireError("receiver shard got a unicast frame")
                self._note_slot(frame)
                parsed = parse_multicast(frame.payload)
                if parsed[1] is not None:
                    covering = CoveringPacket(frame.payload)
            elif frame.kind is not FrameKind.ROUND_END:
                raise WireError(
                    "receiver shard got member-addressed frame %s"
                    % frame.kind.name
                )
        except PacketDecodeError as exc:
            self.decode_errors += 1
            self.obs.count("wire_decode_error_total", side="shard")
            self.obs.emit("wire_decode_error", error=str(exc), side="shard")
            return
        except WireError as exc:  # a protocol violation: fail the interval
            self.errors.append("%s: %s" % (type(exc).__name__, exc))
            return
        now = time.monotonic()
        for client in self.clients.values():
            client._on_group_frame(frame, parsed, covering, now)

    def _note_slot(self, frame):
        if frame.interval != self._interval:
            self._interval = frame.interval
            self._next_slot = 0
        skipped = frame.slot - self._next_slot
        if skipped > 0:
            self.data_gaps += skipped
            self.obs.count("wire_data_gaps_total", by=skipped)
        self._next_slot = max(self._next_slot, frame.slot + 1)


class _ShardProtocol(asyncio.DatagramProtocol):
    def __init__(self, shard):
        self.shard = shard

    def datagram_received(self, data, addr):
        self.shard._on_datagram(data)


class WireClient:
    """One member's endpoint on the wire plane.

    ``member`` is the member's real :class:`GroupMember` key state — the
    fleet's own object when the client runs in-process, a reconstructed
    shadow in a worker process.  ``member_index`` is the member's stable
    fleet index: it addresses the client at the server and seeds the
    member's loss chains, so it must never be reused for a different
    member within one fleet run.
    """

    def __init__(
        self,
        name,
        member_index,
        member,
        server_address,
        loss_params,
        seed,
        spacing_seconds,
        obs=NULL,
        resync_timeout=None,
        crash_at=None,
        register_policy=None,
        shard=None,
    ):
        """``resync_timeout`` (seconds) arms the silence watchdog: after
        that long without any server datagram the client re-enters the
        REGISTER cycle (``None`` = off, the pre-chaos behaviour).
        ``crash_at`` is an optional ``(interval, round)`` at which this
        client goes silent forever — the chaos plans' deterministic
        mid-interval death (round 0 = at the ANNOUNCE).  ``shard`` is
        the :class:`ReceiverShard` this client joins while started
        (``None``: group-addressed frames must come to its own
        socket)."""
        self.name = name
        self.member_index = int(member_index)
        self.member = member
        self.server_address = server_address
        self.loss_params = loss_params
        self.seed = int(seed)
        self.spacing_seconds = float(spacing_seconds)
        self.obs = obs
        self.resync_timeout = (
            None if resync_timeout is None else float(resync_timeout)
        )
        self.crash_at = (
            None if crash_at is None else (int(crash_at[0]), int(crash_at[1]))
        )
        self.register_policy = (
            REGISTER_POLICY if register_policy is None else register_policy
        )
        self.shard = shard
        self.cohort = cohort_of(self.member_index, loss_params.alpha)
        self.errors = []
        self.frames_received = 0
        self.data_dropped = 0
        # -- resync FSM state (see module docs) --
        self.epoch = 0
        self.dead = False
        self.resyncs = 0
        self.reregisters = 0
        self.missed_intervals = 0
        self.stale_epoch_refused = 0
        self.decode_errors = 0
        self.socket_errors = 0
        self.register_giveups = 0
        self._rng = random.Random((self.seed << 20) ^ self.member_index)
        self._last_rx = time.monotonic()
        self._session = None
        self._transport = None
        self._registered = None  # asyncio.Event, created on start
        self._register_task = None
        self._watchdog_task = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        loop = asyncio.get_running_loop()
        self._registered = asyncio.Event()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _ClientProtocol(self),
            remote_addr=self.server_address,
        )
        request_kernel_buffers(
            self._transport,
            kernel_buffer_size(PACKET_SIZE_CEILING, DATA_FAN_IN),
        )
        self._last_rx = time.monotonic()
        if self.shard is not None:
            self.shard.host(self)
        self._register_task = loop.create_task(self._register_loop())
        if self.resync_timeout is not None:
            self._watchdog_task = loop.create_task(self._watchdog_loop())
        return self

    async def close(self):
        if self.shard is not None:
            self.shard.drop(self)
        for attr in ("_register_task", "_watchdog_task"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, attr, None)
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def _register_loop(self, resync=False):
        """One bounded REGISTER cycle: resend with full-jitter backoff
        until *any* server datagram arrives or the attempt budget is
        spent.  Returns whether registration was acknowledged."""
        payload = encode_register(self.member_index, self.member.user_id)
        frame = encode_frame(FrameKind.REGISTER, 0, payload=payload)
        policy = self.register_policy
        for attempt in range(policy.max_attempts):
            if self._registered.is_set():
                return True
            self._send(frame)
            wait = max(
                policy.delay(attempt, rng=self._rng), MIN_REGISTER_WAIT
            )
            try:
                await asyncio.wait_for(self._registered.wait(), wait)
                return True
            except asyncio.TimeoutError:
                continue
        if self._registered.is_set():
            return True
        self.register_giveups += 1
        self.obs.count("wire_register_giveups")
        self.obs.emit(
            "wire_register_giveup",
            member=self.name,
            member_index=self.member_index,
            attempts=policy.max_attempts,
            resync=resync,
        )
        return False

    async def _watchdog_loop(self):
        """The silence watchdog: when the server has been quiet past
        ``resync_timeout``, assume the leader is gone (or we are) and
        re-enter the REGISTER cycle.  Re-registration is idempotent at
        the server, so a false alarm costs one datagram exchange; a
        real leader failover ends with the promoted server learning our
        address and its ack teaching us the new epoch."""
        await self._registered.wait()
        while not self.dead:
            await asyncio.sleep(
                max(self.resync_timeout / 2.0, MIN_REGISTER_WAIT)
            )
            if self.dead:
                return
            idle = time.monotonic() - self._last_rx
            if idle < self.resync_timeout:
                continue
            self.resyncs += 1
            self.obs.count("wire_resyncs", reason="silence")
            self.obs.emit(
                "wire_resync",
                member=self.name,
                member_index=self.member_index,
                reason="silence",
                idle_ms=round(idle * 1000.0, 1),
            )
            self._registered.clear()
            await self._register_loop(resync=True)
            self.reregisters += 1

    def _send(self, wire):
        if self._transport is not None:
            self._transport.sendto(wire)

    def _on_socket_error(self, exc):
        # ICMP refusals while the leader is down (or a peer died) are
        # survivable noise — counted, never fatal; the register cycle
        # and watchdog keep probing.
        self.socket_errors += 1
        self.obs.count("wire_socket_errors")

    def stats(self):
        """The resync FSM's counters (the soak invariants read these)."""
        return {
            "epoch": self.epoch,
            "dead": self.dead,
            "resyncs": self.resyncs,
            "reregisters": self.reregisters,
            "missed_intervals": self.missed_intervals,
            "stale_epoch_refused": self.stale_epoch_refused,
            "decode_errors": self.decode_errors,
            "socket_errors": self.socket_errors,
            "register_giveups": self.register_giveups,
        }

    # -- receive path ------------------------------------------------------

    def _heard(self, now):
        """Any server datagram: the leader is alive, and registered us."""
        self._last_rx = now
        if self._registered is not None:
            self._registered.set()

    def _on_datagram(self, data):
        if self.dead:
            return
        self._heard(time.monotonic())
        self._guarded(self._on_frame, data)

    def _on_group_frame(self, frame, parsed, covering, now):
        """A DATA (with its :func:`parse_multicast` result and, for ENC,
        its shared :class:`CoveringPacket`) or ROUND_END frame handed
        over by this client's receiver shard."""
        if self.dead:
            return
        self._heard(now)
        self.frames_received += 1
        if frame.kind is FrameKind.DATA:
            self._guarded(self._on_data, frame, parsed, covering)
        else:
            self._guarded(self._on_round_end, frame)

    def _guarded(self, handler, *args):
        try:
            handler(*args)
        except PacketDecodeError as exc:
            # Garbage (bad envelope, corrupt payload) must not kill the
            # endpoint — counted and visible, never fatal.
            self.decode_errors += 1
            self.obs.count("wire_decode_error_total", side="client")
            self.obs.emit(
                "wire_decode_error", error=str(exc), side="client"
            )
        except Exception as exc:  # noqa: BLE001 - surfaced to the runner
            self.errors.append("%s: %s" % (type(exc).__name__, exc))

    def _on_frame(self, data):
        frame = decode_frame(data)
        self.frames_received += 1
        if frame.kind is FrameKind.ANNOUNCE:
            self._on_announce(frame)
        elif frame.kind is FrameKind.DATA:
            self._on_data(frame)
        elif frame.kind is FrameKind.ROUND_END:
            self._on_round_end(frame)
        elif frame.kind is FrameKind.REGISTER:
            self._on_register_ack(frame)
        else:
            raise WireError(
                "client received server-bound frame %s" % frame.kind
            )

    def _on_register_ack(self, frame):
        """The server's REGISTER ack carries its epoch — the client's
        first (or, after a failover, fresh) sighting of the leader."""
        self._adopt_epoch(decode_register(frame.payload).epoch, "register")

    def _adopt_epoch(self, epoch, source):
        """Adopt a higher leader epoch; returns True on a change of
        leadership (not on the initial sighting)."""
        if epoch <= self.epoch:
            return False
        previous, self.epoch = self.epoch, int(epoch)
        if previous:
            self.obs.count("wire_rehomes")
            self.obs.emit(
                "wire_rehomed",
                member=self.name,
                member_index=self.member_index,
                epoch=self.epoch,
                previous=previous,
                source=source,
            )
            return True
        return False

    def _refuse_stale_epoch(self, frame, epoch):
        self.stale_epoch_refused += 1
        self.obs.count("wire_stale_epoch_total", side="client")
        self.obs.emit(
            "wire_stale_epoch",
            side="client",
            member=self.name,
            member_index=self.member_index,
            epoch=epoch,
            current=self.epoch,
            interval=frame.interval,
        )

    def _on_announce(self, frame):
        announce = decode_announce(frame.payload)
        if announce.epoch < self.epoch:
            # Fencing, end to end: a deposed leader's ANNOUNCE never
            # builds a session, so its keys can never be absorbed.
            self._refuse_stale_epoch(frame, announce.epoch)
            return
        promoted = self._adopt_epoch(announce.epoch, "announce")
        session = self._session
        if session is not None and not promoted:
            if frame.interval < session.interval:
                return  # stale interval straggler
            if frame.interval == session.interval:
                self._send(session.announce_ack)  # ack was lost: resend
                return
        if self.crash_at is not None and self.crash_at == (
            frame.interval,
            0,
        ):
            self.dead = True  # scheduled death at the announce
            return
        if session is not None and frame.interval > session.interval + 1:
            gap = frame.interval - session.interval - 1
            self.missed_intervals += gap
            self.resyncs += 1
            self.obs.count("wire_resyncs", reason="missed-interval")
            self.obs.emit(
                "wire_resync",
                member=self.name,
                member_index=self.member_index,
                reason="missed-interval",
                interval=frame.interval,
                last=session.interval,
                missed=gap,
            )
        served = frame.slot == 1
        session = _Session(frame.interval, announce, served)
        # Theorem 4.2: re-derive our ID before interpreting coverage.
        self.member.absorb_encryptions([], max_kid=announce.max_kid)
        if served:
            session.transport = UserTransport(
                self.member.user_id,
                k=announce.k,
                degree=announce.degree,
                n_blocks=announce.n_blocks,
                message_id=announce.message_id,
            )
            uplink = None
            if self.shard is not None:
                uplink = self.shard.uplink(
                    self.loss_params,
                    frame.interval,
                    self.seed,
                    self.spacing_seconds,
                )
            session.loss = MemberLoss(
                self.loss_params,
                self.member_index,
                frame.interval,
                self.seed,
                self.spacing_seconds,
                uplink=uplink,
            )
        self._session = session
        session.announce_ack = self._feedback_frame(round_no=0)
        self._send(session.announce_ack)
        self._trace_event("trace_announce", session)

    def _on_data(self, frame, parsed=None, covering=None):
        """One DATA frame; ``parsed`` is its :func:`parse_multicast`
        result and ``covering`` its :class:`CoveringPacket` when a shard
        already parsed it."""
        session = self._session
        if session is None or frame.interval != session.interval:
            return
        if not session.served:
            return
        if frame.round_no == UNICAST_ROUND:
            self._on_unicast(frame)
            return
        if frame.slot in session.seen_slots:
            return  # injected duplicate: each slot feeds the FSM once
        session.seen_slots.add(frame.slot)
        if session.done:
            return
        if session.loss.lost(frame.slot):
            self.data_dropped += 1
            return
        if not session.saw_data:
            session.saw_data = True
            self._trace_event("trace_first_data", session, slot=frame.slot)
        packet, body = parsed or parse_multicast(frame.payload)
        transport = session.transport
        if body is None:
            transport.on_parity(packet)
        else:
            if covering is not None and packet.covers_user(
                transport.user_id
            ):
                packet = covering.get()
            transport.on_enc(packet, body)
        self._after_progress(session)

    def _on_unicast(self, frame):
        """A USR frame: immediate success, acked until the server stops."""
        session = self._session
        if not session.done:
            packet = decode_packet(frame.payload)
            if packet.packet_type is not PacketType.USR:
                raise WireError(
                    "unicast frame carried %s" % packet.packet_type
                )
            session.transport.on_usr(packet)
            self._after_progress(session)
        if session.unicast_ack is None:
            session.unicast_ack = self._feedback_frame(
                round_no=UNICAST_ROUND
            )
        self._send(session.unicast_ack)

    def _on_round_end(self, frame):
        session = self._session
        if session is None or frame.interval != session.interval:
            return
        if not session.served:
            return  # a shard hands ROUND_END to every hosted member
        round_no = frame.round_no
        if round_no < 1 or round_no == UNICAST_ROUND:
            return
        cached = session.feedback_cache.get(round_no)
        if cached is not None:
            self._send(cached)  # server retry: identical bytes
            return
        # Rounds close strictly in order; the server never starts round
        # r+1 before every member reported round r, so at most the
        # current round is missing from the cache.
        while session.rounds_reported < round_no:
            next_round = session.rounds_reported + 1
            if self.crash_at is not None and self.crash_at == (
                session.interval,
                next_round,
            ):
                self.dead = True  # scheduled mid-interval death
                return
            nack = None
            if not session.done:
                nack = session.transport.end_of_round()
                self._after_progress(session)
            else:
                # Keep the round counter honest while already done.
                session.transport.end_of_round()
            wire = self._feedback_frame(round_no=next_round, nack=nack)
            session.feedback_cache[next_round] = wire
        self._send(session.feedback_cache[round_no])

    # -- helpers -----------------------------------------------------------

    def _trace_event(self, kind, session, **extra):
        """Emit one client-side trace milestone for this session.

        ``mono`` is this *process's* monotonic clock — the assembler
        offsets it against the server's announce barrier per stream.
        """
        if not self.obs.enabled:
            return
        self.obs.emit(
            kind,
            member=self.name,
            member_index=self.member_index,
            interval=session.interval,
            trace=format_trace(session.trace_id),
            served=session.served,
            cohort=self.cohort,
            mono=time.monotonic(),
            **extra,
        )

    def _after_progress(self, session):
        """Absorb keys and stamp the latency the moment recovery lands."""
        if not session.served or session.absorbed:
            return
        if not session.transport.done:
            return
        session.latency_ms = (
            time.monotonic() - session.started_at
        ) * 1000.0
        self._trace_event(
            "trace_decoded",
            session,
            recovery_round=session.transport.recovery_round or 0,
            dropped=session.loss.dropped,
            latency_ms=round(session.latency_ms, 3),
        )
        self.member.absorb_encryptions(
            session.transport.recovered_encryptions,
            max_kid=session.announce.max_kid,
        )
        session.absorbed = True
        key = self.member.group_key
        self._trace_event(
            "trace_key_decrypted",
            session,
            fingerprint=key.fingerprint() if key else None,
        )

    def _feedback_frame(self, round_no, nack=None):
        session = self._session
        transport = session.transport
        recovery = 0
        if session.served and transport.recovery_round is not None:
            recovery = transport.recovery_round
        key = self.member.group_key
        fingerprint = NO_FINGERPRINT
        if key is not None and (not session.served or session.absorbed):
            fingerprint = key.fingerprint()
        feedback = Feedback(
            member_index=self.member_index,
            user_id=self.member.user_id,
            done=session.done,
            recovery_round=recovery,
            dropped=session.loss.dropped if session.loss else 0,
            fingerprint=fingerprint,
            latency_ms=session.latency_ms,
            nack=nack,
            trace_id=session.trace_id,
            epoch=self.epoch,
        )
        return encode_frame(
            FrameKind.FEEDBACK,
            session.interval,
            round_no=round_no,
            payload=encode_feedback(feedback),
        )

    def __repr__(self):
        return "WireClient(%r, index=%d)" % (self.name, self.member_index)
