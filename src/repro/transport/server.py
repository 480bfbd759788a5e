"""Server-side transport protocol (Fig. 2 / Fig. 26 of the companion text).

:class:`ServerTransport` drives one rekey message through multicast
rounds and the unicast switch-over.  It is deliberately free of any
network code: it *plans* packet emissions (returning packet objects with
relative send times) and *consumes* NACKs.  The simulated session and
the UDP wire plane move the packets, and both ask
:meth:`ServerTransport.end_round` what follows each round.
"""

from __future__ import annotations

from repro.errors import TransportError
from repro.rekey.packets import FEC_PAYLOAD_OFFSET
from repro.transport.adaptive import proactive_parity_count
from repro.util.validation import check_non_negative, check_positive

#: Round verdicts of :meth:`ServerTransport.end_round`.
DONE = "done"
NEXT_ROUND = "next-round"
UNICAST = "unicast"

#: A run still multicasting after this many rounds is not converging
#: (only a multicast-only run can get this far): it raises instead.
MAX_ROUNDS = 64


class UnicastPolicy:
    """When to abandon multicast (§7.1).

    The protocol switches after at most ``max_multicast_rounds`` (two by
    default; one for small rekey intervals).  With
    ``compare_usr_bytes=True`` it may switch *earlier*: as soon as the
    USR packets for the remaining users would cost no more bytes than
    the PARITY packets of another multicast round.
    """

    def __init__(self, max_multicast_rounds=2, compare_usr_bytes=True):
        check_positive(
            "max_multicast_rounds", max_multicast_rounds, integral=True
        )
        self.max_multicast_rounds = int(max_multicast_rounds)
        self.compare_usr_bytes = bool(compare_usr_bytes)

    def should_switch(
        self, rounds_completed, usr_bytes_pending, parity_bytes_next_round
    ):
        """Decide after ``rounds_completed`` multicast rounds."""
        if rounds_completed >= self.max_multicast_rounds:
            return True
        if self.compare_usr_bytes and usr_bytes_pending is not None:
            return usr_bytes_pending <= parity_bytes_next_round
        return False


class ScheduledPacket:
    """A packet with its send-time offset within the round."""

    __slots__ = ("offset", "packet", "payload")

    def __init__(self, offset, packet, payload):
        self.offset = offset
        self.packet = packet
        #: FEC-covered bytes (for ENC packets), or None
        self.payload = payload


class ServerTransport:
    """Multicast scheduling and NACK aggregation for one rekey message."""

    def __init__(
        self,
        message,
        rho=1.0,
        sending_interval_ms=100.0,
        unicast_policy=None,
    ):
        if message.is_empty:
            raise TransportError("cannot run transport for an empty message")
        check_non_negative("rho", rho)
        check_positive("sending_interval_ms", sending_interval_ms)
        self.message = message
        self.rho = float(rho)
        self.sending_interval = sending_interval_ms * 1e-3
        self.unicast_policy = unicast_policy or UnicastPolicy()
        self.k = message.k
        self.n_blocks = message.n_blocks
        # Parity rows already generated per block (so retransmissions
        # are always fresh codeword rows).
        self._parity_rows_used = [0] * self.n_blocks
        self._round = 0
        self._first_round_requests = None
        self._amax = [0] * self.n_blocks
        self._nack_users = set()

    # -- multicast rounds -------------------------------------------------

    @property
    def rounds_completed(self):
        return self._round

    @property
    def first_round_requests(self):
        """The AdjustRho input ``A`` (available after round 1's NACKs)."""
        if self._first_round_requests is None:
            raise TransportError("round 1 has not completed yet")
        return list(self._first_round_requests)

    def _parity_for_block(self, block_id, count):
        packets = self.message.parity_packets(
            block_id,
            count,
            first_parity_index=self._parity_rows_used[block_id],
        )
        self._parity_rows_used[block_id] += count
        return packets

    def plan_round(self):
        """Plan the next multicast round's packets, block-interleaved.

        Round 1 sends ``k`` ENC + proactive parity per block; later
        rounds send ``amax[i]`` fresh parity per block.  Returns a list
        of :class:`ScheduledPacket` (empty when nothing to send).
        """
        self._round += 1
        per_block = []
        if self._round == 1:
            parity_count = proactive_parity_count(self.rho, self.k)
            enc_packets = self.message.enc_packets()
            wires = [p.encode(self.message.packet_size) for p in enc_packets]
            for block_id in range(self.n_blocks):
                first = block_id * self.k
                column = [
                    (enc_packets[first + seq], wires[first + seq])
                    for seq in range(self.k)
                ]
                column += [
                    (p, None) for p in self._parity_for_block(block_id, parity_count)
                ]
                per_block.append(column)
        else:
            for block_id in range(self.n_blocks):
                count = self._amax[block_id]
                per_block.append(
                    [(p, None) for p in self._parity_for_block(block_id, count)]
                )
            self._amax = [0] * self.n_blocks
        self._nack_users = set()

        planned = []
        index = 0
        depth = max((len(column) for column in per_block), default=0)
        for slot in range(depth):
            for column in per_block:
                if slot < len(column):
                    packet, wire = column[slot]
                    payload = (
                        wire[FEC_PAYLOAD_OFFSET:] if wire is not None else None
                    )
                    planned.append(
                        ScheduledPacket(
                            offset=index * self.sending_interval,
                            packet=packet,
                            payload=payload,
                        )
                    )
                    index += 1
        return planned

    def accept_nack(self, nack):
        """Register one user's NACK (Fig. 26 step 8).

        Requests are untrusted: a user missing ``m`` of a block's ``k``
        ENC packets needs exactly ``m`` parity packets, so any request
        above ``k`` is hostile or corrupt and is clamped to ``k`` —
        a NACK storm cannot schedule an unbounded parity round.
        """
        if nack.rekey_message_id != self.message.message_id:
            raise TransportError("NACK for a different rekey message")
        self._nack_users.add(nack.user_id)
        for request in nack.requests:
            if not 0 <= request.block_id < self.n_blocks:
                raise TransportError(
                    "NACK names unknown block %d" % request.block_id
                )
            self._amax[request.block_id] = max(
                self._amax[request.block_id],
                min(request.n_parity, self.k),
            )

    def finish_round(self, nacks):
        """Register the NACKs that arrived in this round."""
        for nack in nacks:
            self.accept_nack(nack)
        if self._round == 1:
            self._first_round_requests = [
                nack.max_requested for nack in nacks
            ]

    def should_switch_to_unicast(self, pending_user_ids):
        """Apply the unicast policy given who is still unserved."""
        usr_bytes = None
        if self.unicast_policy.compare_usr_bytes:
            usr_bytes = 0
            for user_id in pending_user_ids:
                usr_bytes += len(
                    self.message.usr_packet(user_id).encode()
                ) + 8  # UDP header, per §7.1
        parity_bytes = sum(self._amax) * self.message.packet_size
        return self.unicast_policy.should_switch(
            self._round, usr_bytes, parity_bytes
        )

    def end_round(self, nacks, pending_user_ids, multicast_only=False):
        """Close the round with its NACKs and say what follows (§7.1).

        ``pending_user_ids`` are the users still without their keys.
        Returns :data:`DONE` when nobody is pending, :data:`UNICAST`
        when the stragglers switch to unicast (at the policy's deadline,
        or when no parity is left to send them) and :data:`NEXT_ROUND`
        otherwise.  A multicast-only run never switches; a run still
        multicasting after :data:`MAX_ROUNDS` raises
        :class:`~repro.errors.TransportError`.
        """
        self.finish_round(nacks)
        if not pending_user_ids:
            return DONE
        if not multicast_only and (
            not any(self._amax)
            or self.should_switch_to_unicast(pending_user_ids)
        ):
            return UNICAST
        if self._round >= MAX_ROUNDS:
            raise TransportError(
                "round cap exceeded: protocol is not converging"
            )
        return NEXT_ROUND

    def usr_packet_for(self, user_id):
        """The unicast packet for one user."""
        return self.message.usr_packet(user_id)
