"""Asyncio client side of the wire plane.

One :class:`WireClient` per group member: an ephemeral UDP socket
connected to the server, a registration loop that retries until the
server has the address, and per-interval receiver state driven by the
frames defined in :mod:`repro.wire.codec`.

The member's own socket carries only ``REGISTER`` and its ack and the
unicast USR frames of the deadline phase (and their ``FEEDBACK`` acks).
Everything else goes through a :class:`ReceiverShard`: one socket per
client process that speaks for its hosted members both ways, the way a
multicast host receives each datagram once and a NACK-only receiver
reports only what its server needs.

- **Down.**  One ``SHARD_ANNOUNCE`` carries the interval's ANNOUNCE and
  the shard's roster (member indices and served bits).  ``DATA`` and
  ``ROUND_END`` come once per shard; DATA and ROUND_END share the
  shard's socket because a socket is FIFO (on two sockets a round's
  ROUND_END could overtake its DATA).  The shard decodes each frame once
  and hands it only to the served members that are not done yet: a done
  member would ignore it, so every member-visible fact is what delivery
  to every member would give.
- **Up.**  After ANNOUNCE and after each round the shard sends one
  ``SHARD_FEEDBACK`` table of its members' reports, split into datagrams
  of at most :data:`~repro.wire.codec.PACKET_SIZE_CEILING` bytes, and
  resends it from its cache when the server retries a ROUND_END.

The shard also does the work its members share: it decodes an ENC
frame's full packet once, for the first hosted member it covers, and
hands the same :class:`~repro.rekey.packets.EncPacket` to every other
covered member; and it builds the interval's shared-uplink loss chain
once (:class:`~repro.wire.loss.SharedUplink`).  Each hosted member still
samples its own receiver loss and runs its own crash and epoch checks,
so placement never changes the protocol.  A datagram fault seam damages
these same shard datagrams, so a corrupt or dropped one reaches none of
the shard's members, as on a real multicast host.

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
- control frames (``SHARD_ANNOUNCE``/``ROUND_END``/the feedback
  tables/``REGISTER``) and unicast USR frames bypass injected loss
  entirely, so the protocol converges on every seed.

**Survivability** (docs/robustness.md): the client is also a small
resync state machine.  Every ``SHARD_ANNOUNCE`` and REGISTER ack
carries the leader's epoch; the client adopts a higher epoch (a
promoted leader), refuses a lower one (a deposed leader's straggler —
no stale-epoch key is ever absorbed), and counts a skipped interval
number as a missed interval.  A silence watchdog (``resync_timeout``)
re-enters the bounded full-jitter REGISTER cycle whenever the leader
goes quiet, so a fleet orphaned by a leader kill re-homes onto the
promoted standby by itself.  Undecodable datagrams and ICMP refusals
are counted, not fatal — under the datagram fault injector both are
routine weather.
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
    PACKET_SIZE_CEILING,
    UNICAST_ROUND,
    Feedback,
    FrameKind,
    decode_frame,
    decode_register,
    decode_shard_announce,
    encode_feedback,
    encode_frame,
    encode_register,
    encode_shard_feedback,
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
#: multicast round arriving before the event loop gets back to it.
DATA_FAN_IN = 256


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
        "reports",
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
        #: Feedback per completed round, 1-based
        self.reports = {}
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
        return len(self.reports)


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
    """One socket speaking for many clients: a host's multicast socket.

    Connected to the server like a client socket, so only the server's
    datagrams arrive.  It takes the ``SHARD_ANNOUNCE``, the DATA and the
    ROUND_END frames of every hosted :class:`WireClient` and answers
    with one FEEDBACK table per round (see the module docs).
    Clients attach themselves in :meth:`WireClient.start` and detach in
    :meth:`WireClient.close`; the server learns the shard's
    :attr:`address` per member through ``WireServer.subscribe``.

    **Fan-out.**  Each DATA frame is parsed once, with a
    :class:`CoveringPacket` for an ENC frame's full packet, and handed to
    the interval's *pending* members: every hosted member at the
    interval's first DATA frame, until it turns out unserved, done or
    dead.  A done member would ignore the frame, so dropping it from the
    fan-out changes nothing it reports.

    **Gap accounting.**  The server sends an interval's DATA slots in
    order, and one socket delivers them in order, so a slot skipped
    between two consecutive DATA frames was dropped by the kernel — loss
    the seeded chains did not decide, hitting every hosted member at
    once.  Each skipped slot counts in :attr:`data_gaps` and
    ``wire_data_gaps_total``.

    **Shared loss.**  :meth:`uplink` hands every hosted member the same
    :class:`~repro.wire.loss.SharedUplink` for an interval, so the
    source chain is walked once per interval, not once per member.

    **Liveness.**  Any datagram on the shard is the server speaking to
    every hosted member: :attr:`last_rx` is stamped once per datagram,
    and clients waiting on a registration are woken.
    """

    def __init__(self, server_address, obs=NULL):
        self.server_address = tuple(server_address)
        self.obs = obs
        #: member_index -> hosted WireClient
        self.clients = {}
        self.errors = []
        self.decode_errors = 0
        self.data_gaps = 0
        self.last_rx = time.monotonic()
        #: clients whose REGISTER cycle any server datagram may end
        self.waiting = set()
        self._interval = None
        self._next_slot = 0
        #: member_index -> hosted WireClient still taking this
        #: interval's DATA
        self._pending = {}
        #: (interval, round) -> the encoded SHARD_FEEDBACK datagrams
        self._reports = {}
        #: member_index -> (its latest report, that report encoded)
        self._entries = {}
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
        self._pending.pop(client.member_index, None)
        self._entries.pop(client.member_index, None)
        self.waiting.discard(client)

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

    def _send(self, wire):
        if self._transport is not None:
            self._transport.sendto(wire)

    def _on_datagram(self, data):
        now = time.monotonic()
        try:
            frame = decode_frame(data)
            self._heard(now)
            if frame.kind is FrameKind.DATA:
                self._on_data(frame)
            elif frame.kind is FrameKind.ROUND_END:
                self._on_round_end(frame)
            elif frame.kind is FrameKind.SHARD_ANNOUNCE:
                self._on_announce(frame)
            else:
                raise WireError(
                    "receiver shard got member-addressed frame %s"
                    % frame.kind.name
                )
        except PacketDecodeError as exc:
            self.decode_errors += 1
            self.obs.count("wire_decode_error_total", side="shard")
            self.obs.emit("wire_decode_error", error=str(exc), side="shard")
        except WireError as exc:  # a protocol violation: fail the interval
            self.errors.append("%s: %s" % (type(exc).__name__, exc))

    def _heard(self, now):
        """A server frame: every hosted member has heard the server."""
        self.last_rx = now
        for client in self.waiting:
            client._registered.set()
        self.waiting.clear()

    def _on_announce(self, frame):
        announce, roster = decode_shard_announce(frame.payload)
        acks = []
        for member_index, served in roster:
            client = self.clients.get(member_index)
            if client is None or client.dead:
                continue
            session = client._guarded(
                client._accept_announce, frame.interval, announce, served
            )
            if session is not None:
                acks.append(session.announce_ack)
        for wire in self._table(frame.interval, 0, acks):
            self._send(wire)

    def _on_data(self, frame):
        if frame.round_no == UNICAST_ROUND:
            raise WireError("receiver shard got a unicast frame")
        self._note_slot(frame)
        parsed = parse_multicast(frame.payload)
        covering = None
        if parsed[1] is not None:
            covering = CoveringPacket(frame.payload)
        pending = self._pending
        for member_index, client in list(pending.items()):
            if not client._on_shard_data(frame, parsed, covering):
                del pending[member_index]

    def _on_round_end(self, frame):
        if frame.round_no < 1 or frame.round_no == UNICAST_ROUND:
            return
        key = (frame.interval, frame.round_no)
        wires = self._reports.get(key)
        if wires is None:
            reports = []
            for client in self.clients.values():
                report = client._guarded(
                    client._close_round, frame.interval, frame.round_no
                )
                if report is not None:  # None: nothing to report
                    reports.append(report)
            wires = self._table(frame.interval, frame.round_no, reports)
            # A retried ROUND_END gets the same bytes; older intervals'
            # tables are never asked for again.
            self._reports = {
                cached: table
                for cached, table in self._reports.items()
                if cached[0] == frame.interval
            }
            self._reports[key] = wires
        for wire in wires:
            self._send(wire)

    def _table(self, interval, round_no, reports):
        """The SHARD_FEEDBACK datagrams of ``reports``, fragment number
        in ``slot``.  A member that repeats its last report (done before
        the round) reuses that report's encoded entry."""
        entries = []
        for report in reports:
            cached = self._entries.get(report.member_index)
            if cached is None or cached[0] is not report:
                cached = (report, encode_feedback(report))
                self._entries[report.member_index] = cached
            entries.append(cached[1])
        return [
            encode_frame(
                FrameKind.SHARD_FEEDBACK,
                interval,
                round_no=round_no,
                slot=slot,
                payload=payload,
            )
            for slot, payload in enumerate(encode_shard_feedback(entries))
        ]

    def _note_slot(self, frame):
        if frame.interval != self._interval:
            self._interval = frame.interval
            self._next_slot = 0
            self._pending = dict(self.clients)
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
        shard,
        obs=NULL,
        resync_timeout=None,
        crash_at=None,
        register_policy=None,
    ):
        """``shard`` is the :class:`ReceiverShard` this client joins
        while started: the only way its ANNOUNCE, DATA and ROUND_END
        reach it.  ``resync_timeout`` (seconds) arms the silence
        watchdog: after that long without any server datagram the client
        re-enters the REGISTER cycle (``None`` = off, the pre-chaos
        behaviour).
        ``crash_at`` is an optional ``(interval, round)`` at which this
        client goes silent forever — the chaos plans' deterministic
        mid-interval death (round 0 = at the ANNOUNCE)."""
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
        self.shard.host(self)
        self._register_task = loop.create_task(self._register_loop())
        if self.resync_timeout is not None:
            self._watchdog_task = loop.create_task(self._watchdog_loop())
        return self

    async def close(self):
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
        self.shard.waiting.add(self)
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
            idle = time.monotonic() - max(self._last_rx, self.shard.last_rx)
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

    def _on_datagram(self, data):
        """A datagram on the member's own socket."""
        if self.dead:
            return
        self._last_rx = time.monotonic()
        if self._registered is not None:
            self._registered.set()
        self._guarded(self._on_frame, data)

    def _guarded(self, handler, *args):
        """``handler(*args)``; a failure is counted (garbage) or
        recorded (anything else), never raised, and returns ``None``."""
        try:
            return handler(*args)
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
        if frame.kind is FrameKind.REGISTER:
            self._on_register_ack(frame)
        elif frame.kind is FrameKind.DATA and frame.round_no == UNICAST_ROUND:
            self._on_unicast(frame)
        else:
            raise WireError(
                "client received %s on its own socket" % frame.kind.name
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

    def _refuse_stale_epoch(self, interval, epoch):
        self.stale_epoch_refused += 1
        self.obs.count("wire_stale_epoch_total", side="client")
        self.obs.emit(
            "wire_stale_epoch",
            side="client",
            member=self.name,
            member_index=self.member_index,
            epoch=epoch,
            current=self.epoch,
            interval=interval,
        )

    def _accept_announce(self, interval, announce, served):
        """The resync FSM's reading of one ANNOUNCE, handed over by the
        shard: returns the session whose ack to send, or ``None``."""
        if announce.epoch < self.epoch:
            # Fencing, end to end: a deposed leader's ANNOUNCE never
            # builds a session, so its keys can never be absorbed.
            self._refuse_stale_epoch(interval, announce.epoch)
            return None
        promoted = self._adopt_epoch(announce.epoch, "announce")
        session = self._session
        if session is not None and not promoted:
            if interval < session.interval:
                return None  # stale interval straggler
            if interval == session.interval:
                return session  # the ack was lost: send it again
        if self.crash_at == (interval, 0):
            self.dead = True  # scheduled death at the announce
            return None
        if session is not None and interval > session.interval + 1:
            gap = interval - session.interval - 1
            self.missed_intervals += gap
            self.resyncs += 1
            self.obs.count("wire_resyncs", reason="missed-interval")
            self.obs.emit(
                "wire_resync",
                member=self.name,
                member_index=self.member_index,
                reason="missed-interval",
                interval=interval,
                last=session.interval,
                missed=gap,
            )
        session = _Session(interval, announce, served)
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
            session.loss = MemberLoss(
                self.loss_params,
                self.member_index,
                interval,
                self.seed,
                self.spacing_seconds,
                uplink=self.shard.uplink(
                    self.loss_params,
                    interval,
                    self.seed,
                    self.spacing_seconds,
                ),
            )
        self._session = session
        session.announce_ack = self._feedback(session)
        self._trace_event("trace_announce", session)
        return session

    def _on_shard_data(self, frame, parsed, covering):
        """A DATA frame handed over by this client's receiver shard;
        returns whether the member still takes the interval's DATA."""
        if self.dead:
            return False
        self._guarded(self._on_data, frame, parsed, covering)
        session = self._session
        return (
            session is not None
            and session.interval == frame.interval
            and not session.done
        )

    def _on_data(self, frame, parsed, covering):
        """One multicast DATA frame; ``parsed`` is its
        :func:`parse_multicast` result and ``covering`` its
        :class:`CoveringPacket`, both from the shard."""
        session = self._served_session(frame.interval)
        if session is None:
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
        packet, body = parsed
        transport = session.transport
        if body is None:
            transport.on_parity(packet)
        else:
            if packet.covers_user(transport.user_id):
                packet = covering.get()
            transport.on_enc(packet, body)
        self._after_progress(session)

    def _on_unicast(self, frame):
        """A USR frame: immediate success, acked until the server stops."""
        session = self._served_session(frame.interval)
        if session is None:
            return
        if not session.done:
            packet = decode_packet(frame.payload)
            if packet.packet_type is not PacketType.USR:
                raise WireError(
                    "unicast frame carried %s" % packet.packet_type
                )
            session.transport.on_usr(packet)
            self._after_progress(session)
        if session.unicast_ack is None:
            session.unicast_ack = encode_frame(
                FrameKind.FEEDBACK,
                session.interval,
                round_no=UNICAST_ROUND,
                payload=encode_feedback(self._feedback(session)),
            )
        self._send(session.unicast_ack)

    def _close_round(self, interval, round_no):
        """This member's report for ``round_no``, or ``None`` (no
        session for ``interval``, unserved, or dead).  Each round closes
        once; a retried ROUND_END gets the cached report."""
        session = self._served_session(interval)
        if self.dead or session is None:
            return None
        if round_no < 1 or round_no == UNICAST_ROUND:
            return None
        cached = session.reports.get(round_no)
        if cached is not None:
            return cached
        # Rounds close strictly in order; the server never starts round
        # r+1 before every member reported round r, so at most the
        # current round is missing from the cache.
        while session.rounds_reported < round_no:
            next_round = session.rounds_reported + 1
            if self.crash_at == (interval, next_round):
                self.dead = True  # scheduled mid-interval death
                return None
            if not session.done:
                nack = session.transport.end_of_round()
                self._after_progress(session)
                report = self._feedback(session, nack)
            else:
                # Keep the round counter honest while already done.
                session.transport.end_of_round()
                # Done before this round, a member's report can change
                # only with its epoch: repeat the last one.
                report = session.reports.get(next_round - 1)
                if (
                    report is None
                    or not report.done
                    or report.epoch != self.epoch
                ):
                    report = self._feedback(session)
            session.reports[next_round] = report
        return session.reports[round_no]

    # -- helpers -----------------------------------------------------------

    def _served_session(self, interval):
        """The session a frame of ``interval`` feeds: ``None`` unless
        this member is served in that interval."""
        session = self._session
        if session is None or session.interval != interval:
            return None
        return session if session.served else None

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

    def _feedback(self, session, nack=None):
        """The member's report as of now, with ``nack`` for a round."""
        transport = session.transport
        recovery = 0
        if session.served and transport.recovery_round is not None:
            recovery = transport.recovery_round
        key = self.member.group_key
        fingerprint = NO_FINGERPRINT
        if key is not None and (not session.served or session.absorbed):
            fingerprint = key.fingerprint()
        return Feedback(
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

    def __repr__(self):
        return "WireClient(%r, index=%d)" % (self.name, self.member_index)
