"""Datagram framing for the asyncio UDP wire plane.

Every wire datagram is one *frame*: a fixed 10-byte versioned header
followed by a kind-specific payload.  The header carries the delivery
coordinates a receiver needs before it can interpret anything else::

    >BBBIBH   magic, version, kind, interval, round, slot

- ``interval`` — the daemon's rekey-interval number, so a late datagram
  from a previous interval can never poison the current session;
- ``round`` — the multicast round (1-based; 0 = the announce phase,
  :data:`UNICAST_ROUND` = the unicast phase), stamped on ``ROUND_END``
  and ``FEEDBACK`` so retransmitted round boundaries deduplicate;
- ``slot`` — the datagram's send index within the interval's multicast
  phase.  Receivers sample their Gilbert loss chain at *virtual* time
  ``slot * sending_interval`` (see :mod:`repro.wire.loss`), which makes
  injected loss a pure function of ``(seed, member, interval, slot)``
  rather than of wall-clock arrival — the whole fleet run stays
  deterministic even though real sockets deliver with real timing.

``DATA`` frames wrap the protocol's own wire bytes unchanged
(:mod:`repro.rekey.packets` — ENC/PARITY/USR from the server, NACKs ride
inside ``FEEDBACK`` frames so the aggregation window can close early).
The control frames (``ROUND_END``/``FEEDBACK``/``REGISTER``) and the
ANNOUNCE payload are this module's own small structs.  A receiver shard
speaks for all its members at once with two more: ``SHARD_ANNOUNCE``
(one ANNOUNCE payload plus the shard's roster: each participant's member
index and served bit) and ``SHARD_FEEDBACK`` (a table of its members'
FEEDBACK payloads, split into datagrams of at most
:data:`PACKET_SIZE_CEILING` bytes, fragment number in ``slot``).

The receive-buffer arithmetic lives here too, so the server and client
sockets size their buffers from one shared rule instead of a hardcoded
4 KiB.
"""

from __future__ import annotations

import enum
import socket
import struct
from dataclasses import dataclass

from repro.errors import PacketDecodeError, WireDecodeError, WireError
from repro.rekey.packets import NackPacket

#: First header byte of every wire datagram.
WIRE_MAGIC = 0xC3

#: Framing version; bumped only for incompatible layout changes.
WIRE_VERSION = 1

_HEADER = struct.Struct(">BBBIBH")

#: Size of the fixed frame header, in bytes.
WIRE_HEADER_SIZE = _HEADER.size

#: ``round`` value stamped on unicast-phase frames (rounds are 1-based
#: and bounded by the deadline, so 255 can never be a multicast round).
UNICAST_ROUND = 0xFF

#: Every control payload leads with the 64-bit trace id of the interval
#: that produced it (:mod:`repro.obs.trace`), 0 = no active trace.  The
#: id rides ANNOUNCE server→client and is echoed back in FEEDBACK, so
#: clients in other processes tag their recovery milestones with the
#: same trace the daemon minted at ``interval_start``.  It is carried
#: *outside* the protocol facts: the fleet digest never hashes it and
#: injected loss applies only to DATA frames, so tracing cannot perturb
#: the pinned deterministic runs.
#: Right behind the trace id rides the leader's 32-bit **epoch** (the HA
#: fencing token, :mod:`repro.ha.lease`).  ANNOUNCE and the REGISTER ack
#: carry it server→client so a client can tell a promoted leader from a
#: deposed one; FEEDBACK echoes it client→server so a server can fence
#: reports minted against a stale epoch.  Like the trace id it sits
#: outside the protocol facts: the fleet digest never hashes it, and in
#: single-leader runs it is simply 0 end to end.
_ANNOUNCE = struct.Struct(">QIBBHHB")
_FEEDBACK = struct.Struct(">QIIHBBH6sf")
_REGISTER = struct.Struct(">QIIH")

_TRACE_MASK = 0xFFFFFFFFFFFFFFFF
_EPOCH_MASK = 0xFFFFFFFF

#: Fingerprint placeholder sent while a member has not recovered yet.
NO_FINGERPRINT = "000000000000"

#: Largest datagram a shard's own control frames are packed into, and
#: the size a receiver sizes its socket for.  Deliberately generous: the
#: receiver learns the real packet size only from traffic, after its
#: socket already exists.
PACKET_SIZE_CEILING = 2048

#: Payload bytes a shard frame may carry within that ceiling.
SHARD_PAYLOAD_BUDGET = PACKET_SIZE_CEILING - WIRE_HEADER_SIZE

#: ``SHARD_ANNOUNCE`` roster word: member index, served flag on top.
_ROSTER = struct.Struct(">I")
_SERVED_BIT = 0x80000000

#: ``SHARD_FEEDBACK`` entry count, and each entry's length.
_U16 = struct.Struct(">H")


class FrameKind(enum.IntEnum):
    """The 1-byte frame kind in every wire header."""

    DATA = 0       # payload = one repro.rekey.packets wire packet
    # 1 stays unassigned: it was the member-addressed ANNOUNCE, and a
    # stray one must be refused, not read as another kind
    ROUND_END = 2  # server -> shard: the round's send phase is over
    FEEDBACK = 3   # client -> server: USR ack (+ optional NACK bytes)
    REGISTER = 4   # client -> server: here is my address
    SHARD_ANNOUNCE = 5  # server -> shard: ANNOUNCE + the shard's roster
    SHARD_FEEDBACK = 6  # shard -> server: per-member FEEDBACK table


@dataclass(frozen=True)
class WireFrame:
    """One decoded datagram: header fields + raw payload bytes."""

    kind: FrameKind
    interval: int
    round_no: int
    slot: int
    payload: bytes


@dataclass(frozen=True)
class Announce:
    """The ``ANNOUNCE`` payload: what a client needs to build its
    :class:`~repro.transport.user.UserTransport` for one message."""

    message_id: int
    k: int
    n_blocks: int
    max_kid: int
    degree: int
    trace_id: int = 0
    epoch: int = 0


@dataclass(frozen=True)
class Feedback:
    """The ``FEEDBACK`` payload: one member's round (or phase) report.

    ``dropped`` counts the datagrams the member's injected loss chain
    discarded so far this interval — the server aggregates it into the
    per-cohort drop counts without a second exchange.  ``nack`` is the
    member's :class:`~repro.rekey.packets.NackPacket` for the round, or
    ``None`` when it has nothing (or nothing left) to request.
    """

    member_index: int
    user_id: int
    done: bool
    recovery_round: int
    dropped: int
    fingerprint: str
    latency_ms: float
    nack: object = None
    trace_id: int = 0
    epoch: int = 0


@dataclass(frozen=True)
class Register:
    """The ``REGISTER`` payload: a client binding its stable index."""

    member_index: int
    user_id: int
    trace_id: int = 0
    epoch: int = 0


def encode_frame(kind, interval, round_no=0, slot=0, payload=b""):
    """Serialise one frame; validates the header ranges."""
    if not 0 <= interval <= 0xFFFFFFFF:
        raise WireError("interval %r does not fit in 32 bits" % (interval,))
    if not 0 <= round_no <= 0xFF:
        raise WireError("round %r does not fit in 8 bits" % (round_no,))
    if not 0 <= slot <= 0xFFFF:
        raise WireError("slot %r does not fit in 16 bits" % (slot,))
    return (
        _HEADER.pack(
            WIRE_MAGIC,
            WIRE_VERSION,
            int(FrameKind(kind)),
            interval,
            round_no,
            slot,
        )
        + payload
    )


def decode_frame(data):
    """Parse one datagram into a :class:`WireFrame`.

    Rejects short datagrams, wrong magic, unsupported versions and
    unknown kinds with :class:`~repro.errors.WireDecodeError` — garbage
    on the socket must never reach the protocol state machines.
    """
    if len(data) < WIRE_HEADER_SIZE:
        raise WireDecodeError(
            "datagram of %d bytes is shorter than the %d-byte header"
            % (len(data), WIRE_HEADER_SIZE)
        )
    magic, version, kind, interval, round_no, slot = _HEADER.unpack(
        data[:WIRE_HEADER_SIZE]
    )
    if magic != WIRE_MAGIC:
        raise WireDecodeError("bad magic 0x%02X" % magic)
    if version != WIRE_VERSION:
        raise WireDecodeError(
            "unsupported wire version %d (speak %d)" % (version, WIRE_VERSION)
        )
    try:
        kind = FrameKind(kind)
    except ValueError:
        raise WireDecodeError("unknown frame kind %d" % kind)
    return WireFrame(
        kind=kind,
        interval=interval,
        round_no=round_no,
        slot=slot,
        payload=bytes(data[WIRE_HEADER_SIZE:]),
    )


# -- control payloads ---------------------------------------------------


def encode_announce(message, degree, trace_id=0, epoch=0):
    """The ``ANNOUNCE`` payload for one rekey message."""
    if message.k > 0xFF:
        raise WireError("block size %d does not fit in 8 bits" % message.k)
    return _ANNOUNCE.pack(
        int(trace_id) & _TRACE_MASK,
        int(epoch) & _EPOCH_MASK,
        message.message_id,
        message.k,
        message.n_blocks,
        message.max_kid,
        int(degree),
    )


def decode_announce(payload):
    if len(payload) != _ANNOUNCE.size:
        raise WireDecodeError(
            "ANNOUNCE payload must be %d bytes, got %d"
            % (_ANNOUNCE.size, len(payload))
        )
    (
        trace_id,
        epoch,
        message_id,
        k,
        n_blocks,
        max_kid,
        degree,
    ) = _ANNOUNCE.unpack(payload)
    if k < 1 or n_blocks < 1 or degree < 2:
        raise WireDecodeError("ANNOUNCE with degenerate geometry")
    return Announce(
        message_id=message_id,
        k=k,
        n_blocks=n_blocks,
        max_kid=max_kid,
        degree=degree,
        trace_id=trace_id,
        epoch=epoch,
    )


def encode_feedback(feedback):
    """The ``FEEDBACK`` payload (fixed struct + optional NACK bytes)."""
    try:
        fingerprint = bytes.fromhex(feedback.fingerprint)
    except ValueError:
        raise WireError(
            "fingerprint %r is not hex" % (feedback.fingerprint,)
        )
    if len(fingerprint) != 6:
        raise WireError("fingerprint must be 6 bytes of hex")
    fixed = _FEEDBACK.pack(
        int(feedback.trace_id) & _TRACE_MASK,
        int(feedback.epoch) & _EPOCH_MASK,
        feedback.member_index,
        feedback.user_id,
        1 if feedback.done else 0,
        feedback.recovery_round,
        min(feedback.dropped, 0xFFFF),
        fingerprint,
        float(feedback.latency_ms),
    )
    if feedback.nack is None:
        return fixed
    return fixed + feedback.nack.encode()


def decode_feedback(payload):
    if len(payload) < _FEEDBACK.size:
        raise WireDecodeError(
            "FEEDBACK payload must be at least %d bytes, got %d"
            % (_FEEDBACK.size, len(payload))
        )
    (
        trace_id,
        epoch,
        member_index,
        user_id,
        done,
        recovery_round,
        dropped,
        fingerprint,
        latency_ms,
    ) = _FEEDBACK.unpack(payload[: _FEEDBACK.size])
    nack = None
    tail = payload[_FEEDBACK.size :]
    if tail:
        try:
            nack = NackPacket.decode(tail)
        except PacketDecodeError as exc:
            # Surface as a *wire* decode failure: a corrupt NACK tail is
            # this layer's garbage to refuse, same as a bad header.
            raise WireDecodeError("FEEDBACK with bad NACK tail: %s" % exc)
    return Feedback(
        member_index=member_index,
        user_id=user_id,
        done=bool(done),
        recovery_round=recovery_round,
        dropped=dropped,
        fingerprint=fingerprint.hex(),
        latency_ms=latency_ms,
        nack=nack,
        trace_id=trace_id,
        epoch=epoch,
    )


# -- shard payloads -----------------------------------------------------


def encode_shard_announce(announce_payload, roster):
    """``SHARD_ANNOUNCE`` payloads: one ANNOUNCE payload for a shard's
    ``roster`` of ``(member_index, served)`` pairs.

    Each payload is the ANNOUNCE struct followed by one 32-bit word per
    member: its index, with the served flag in the top bit.  A roster
    that would outgrow :data:`SHARD_PAYLOAD_BUDGET` is split into
    several payloads, each standalone.
    """
    words = []
    for member_index, served in roster:
        if not 0 <= member_index < _SERVED_BIT:
            raise WireError("member index %d out of range" % member_index)
        words.append(member_index | (_SERVED_BIT if served else 0))
    room = SHARD_PAYLOAD_BUDGET - len(announce_payload)
    per_payload = room // _ROSTER.size
    return [
        announce_payload + struct.pack(">%dI" % len(part), *part)
        for part in (
            words[i : i + per_payload]
            for i in range(0, max(len(words), 1), per_payload)
        )
    ]


def decode_shard_announce(payload):
    """``(Announce, [(member_index, served), ...])`` of one
    ``SHARD_ANNOUNCE`` payload."""
    announce = decode_announce(payload[: _ANNOUNCE.size])
    body = payload[_ANNOUNCE.size :]
    if len(body) % _ROSTER.size:
        raise WireDecodeError("SHARD_ANNOUNCE roster is truncated")
    return announce, [
        (word & ~_SERVED_BIT, bool(word & _SERVED_BIT))
        for (word,) in _ROSTER.iter_unpack(body)
    ]


def encode_shard_feedback(reports):
    """``SHARD_FEEDBACK`` payloads carrying ``reports`` (one
    :func:`encode_feedback` payload per member, encoded by the caller so
    a repeated report is encoded once), packed into as few payloads of
    at most :data:`SHARD_PAYLOAD_BUDGET` bytes as the entries allow.

    A payload is an entry count, then each entry as its
    :func:`encode_feedback` payload behind a 16-bit length.  One entry
    is never split: an entry larger than the budget travels alone.
    """
    payloads = []
    entries = []
    size = _U16.size
    for report in reports:
        entry = _U16.pack(len(report)) + report
        if entries and size + len(entry) > SHARD_PAYLOAD_BUDGET:
            payloads.append(_U16.pack(len(entries)) + b"".join(entries))
            entries = []
            size = _U16.size
        entries.append(entry)
        size += len(entry)
    if entries:
        payloads.append(_U16.pack(len(entries)) + b"".join(entries))
    return payloads


def decode_shard_feedback(payload):
    """The :class:`Feedback` entries of one ``SHARD_FEEDBACK`` payload."""
    if len(payload) < _U16.size:
        raise WireDecodeError("SHARD_FEEDBACK payload is empty")
    (count,) = _U16.unpack_from(payload)
    offset = _U16.size
    feedbacks = []
    for _ in range(count):
        if offset + _U16.size > len(payload):
            raise WireDecodeError("SHARD_FEEDBACK table is truncated")
        (size,) = _U16.unpack_from(payload, offset)
        offset += _U16.size
        entry = payload[offset : offset + size]
        if len(entry) != size:
            raise WireDecodeError("SHARD_FEEDBACK table is truncated")
        feedbacks.append(decode_feedback(entry))
        offset += size
    if offset != len(payload):
        raise WireDecodeError("SHARD_FEEDBACK table has trailing bytes")
    return feedbacks


def encode_register(member_index, user_id, trace_id=0, epoch=0):
    return _REGISTER.pack(
        int(trace_id) & _TRACE_MASK,
        int(epoch) & _EPOCH_MASK,
        member_index,
        user_id,
    )


def decode_register(payload):
    if len(payload) != _REGISTER.size:
        raise WireDecodeError(
            "REGISTER payload must be %d bytes, got %d"
            % (_REGISTER.size, len(payload))
        )
    trace_id, epoch, member_index, user_id = _REGISTER.unpack(payload)
    return Register(
        member_index=member_index,
        user_id=user_id,
        trace_id=trace_id,
        epoch=epoch,
    )


_MEMBER_INDEX_OFFSET = struct.calcsize(">QI")  # trace_id + epoch
_MEMBER_INDEX = struct.Struct(">I")


def peek_member_index(frame):
    """The ``member_index`` of a decoded FEEDBACK/REGISTER frame,
    read without a full payload decode (the fault injector needs the
    sender's coordinate *before* deciding whether to mangle the bytes).
    Returns ``None`` for other kinds or truncated payloads.
    """
    if frame.kind not in (FrameKind.FEEDBACK, FrameKind.REGISTER):
        return None
    end = _MEMBER_INDEX_OFFSET + _MEMBER_INDEX.size
    if len(frame.payload) < end:
        return None
    return _MEMBER_INDEX.unpack(
        frame.payload[_MEMBER_INDEX_OFFSET:end]
    )[0]


# -- buffer sizing ------------------------------------------------------


def max_datagram_size(packet_size):
    """The largest wire datagram a configuration can produce.

    ENC packets encode to exactly ``packet_size`` bytes and PARITY
    packets to the same total (3 header bytes + a payload of
    ``packet_size - 3``); USR, NACK and the control payloads are all
    smaller.  A framed datagram therefore never exceeds the header plus
    ``packet_size``.
    """
    return WIRE_HEADER_SIZE + int(packet_size)


def recv_buffer_size(packet_size):
    """Receive-buffer size for sockets carrying protocol datagrams.

    Sized from the *configured* packet size — ``recvfrom`` silently
    truncates anything larger than its buffer, so a hardcoded constant
    corrupts PARITY packets as soon as ``packet_size`` outgrows it.  The
    result is rounded up to a 1 KiB multiple (with slack for the frame
    header) and never below 2 KiB.
    """
    needed = max_datagram_size(packet_size) + 64
    return max(2048, -(-needed // 1024) * 1024)


def kernel_buffer_size(packet_size, fan_in):
    """``SO_RCVBUF``/``SO_SNDBUF`` request for a wire-plane socket.

    ``fan_in`` is the worst-case number of peers whose datagrams can
    land in one burst before the event loop drains the socket: the
    fleet size for the server (every client answers ROUND_END at once),
    the per-round packet budget for a client.  The kernel charges each
    queued datagram its skb overhead — far more than the payload for
    small frames — so the estimate budgets a full KiB per datagram and
    doubles it for headroom.  The kernel silently clamps the request to
    ``net.core.{r,w}mem_max``; an undersized buffer only costs retries,
    never correctness, because every control exchange is retried
    against cached state.
    """
    per_datagram = max(1024, max_datagram_size(packet_size))
    return max(1 << 18, 2 * per_datagram * max(1, int(fan_in)))


def request_kernel_buffers(transport, size):
    """Best-effort ``SO_RCVBUF``/``SO_SNDBUF`` request on a datagram
    transport (asyncio's, or anything with ``get_extra_info``).

    The kernel clamps to ``net.core.{r,w}mem_max`` and some platforms
    refuse the option entirely; both are fine — the protocol survives
    kernel drops by retrying, buffers only trim the latency tail.
    """
    sock = transport.get_extra_info("socket")
    if sock is None:  # pragma: no cover - non-socket transports
        return
    for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, option, int(size))
        except OSError:  # pragma: no cover - platform refusal
            pass
