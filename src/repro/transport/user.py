"""User-side transport protocol (Fig. 3 / Fig. 27 of the companion text).

Per rekey message a user succeeds by any of:

1. receiving its *specific* ENC packet (the one whose
   ``<frmID, toID>`` interval covers the user's ID);
2. collecting at least ``k`` packets (ENC or PARITY) of the block that
   contains its specific packet, FEC-decoding the block and finding the
   packet inside;
3. receiving a USR packet during the unicast phase.

A user that lost its specific packet may not know the block to ask for;
the :class:`~repro.rekey.estimate.BlockIdEstimator` narrows the range
from received packets (including packets recovered by decoding other
blocks), and the user NACKs every block still in range.
"""

from __future__ import annotations

from repro.errors import NotEnoughPacketsError, TransportError
from repro.fec.rse import RSECoder
from repro.rekey.estimate import BlockIdEstimator
from repro.rekey.message import RekeyMessage
from repro.rekey.packets import EncPacket, NackPacket, NackRequest
from repro.util.validation import check_non_negative, check_positive


class UserTransport:
    """Receiver state machine for one rekey message."""

    def __init__(self, user_id, k, degree, n_blocks, message_id, coder=None):
        check_non_negative("user_id", user_id, integral=True)
        check_positive("k", k, integral=True)
        check_positive("n_blocks", n_blocks, integral=True)
        self.user_id = int(user_id)
        self.k = int(k)
        self.n_blocks = int(n_blocks)
        self.message_id = int(message_id)
        self._coder = coder or RSECoder(self.k)
        self._estimator = BlockIdEstimator(user_id, k, degree)
        self._payloads = {}  # block_id -> {codeword index -> payload}
        self._decoded_blocks = set()
        self.specific_packet = None
        self.usr_packet = None
        self.recovery_round = None  # 1-based multicast round; 0 = unicast
        self._current_round = 1

    # -- status ----------------------------------------------------------

    @property
    def done(self):
        """True once the user's encryptions are recovered."""
        return self.specific_packet is not None or self.usr_packet is not None

    @property
    def recovered_encryptions(self):
        """The encryptions recovered (from ENC or USR), or None."""
        if self.usr_packet is not None:
            return list(self.usr_packet.encryptions)
        if self.specific_packet is not None:
            return list(self.specific_packet.encryptions)
        return None

    # -- packet ingestion --------------------------------------------------

    def _check_message(self, packet):
        if packet.rekey_message_id != self.message_id:
            raise TransportError(
                "packet for message %d delivered to session %d"
                % (packet.rekey_message_id, self.message_id)
            )

    def on_enc(self, packet, payload):
        """Receive one ENC packet (``payload`` = its FEC-covered bytes).

        ``packet`` is an :class:`~repro.rekey.packets.EncPacket` or just
        its :class:`~repro.rekey.packets.EncHeader`; a header that
        covers this user is materialised from ``payload``.
        """
        self._check_message(packet)
        if self.done:
            return
        block = self._payloads.setdefault(packet.block_id, {})
        block[packet.seq_in_block] = payload
        self._observe(packet, payload)

    def _observe(self, packet, payload):
        """Estimator and coverage bookkeeping for one ENC packet or
        header: the packet covering this user is the only one whose
        encryptions are ever parsed (UKA puts them all in it)."""
        self._estimator.observe(packet)
        if self.done or not packet.covers_user(self.user_id):
            return
        if not isinstance(packet, EncPacket):
            packet = RekeyMessage.rebuild_enc_packet(
                self.message_id, packet.block_id, packet.seq_in_block, payload
            )
        self.specific_packet = packet
        self.recovery_round = self._current_round

    def on_parity(self, packet):
        """Receive one PARITY packet."""
        self._check_message(packet)
        if self.done:
            return
        block = self._payloads.setdefault(packet.block_id, {})
        block[packet.seq_in_block] = packet.payload

    def on_usr(self, packet):
        """Receive a unicast USR packet — immediate success."""
        self._check_message(packet)
        if packet.user_id != self.user_id:
            raise TransportError(
                "USR packet for user %d delivered to user %d"
                % (packet.user_id, self.user_id)
            )
        if self.done:
            return
        self.usr_packet = packet
        self.recovery_round = 0

    # -- round boundary ------------------------------------------------------

    def _try_decode(self, block_id):
        """FEC-decode one block; feed recovered ENC packets back in."""
        if block_id in self._decoded_blocks:
            return
        received = self._payloads.get(block_id, {})
        if len(received) < self.k:
            return
        try:
            payloads = self._coder.decode(dict(received))
        except NotEnoughPacketsError:  # pragma: no cover - guarded above
            return
        self._decoded_blocks.add(block_id)
        for seq, payload in enumerate(payloads):
            # Recovered packets tighten the estimator and may be ours.
            self._observe(
                RekeyMessage.rebuild_enc_header(
                    self.message_id, block_id, seq, payload
                ),
                payload,
            )

    def end_of_round(self):
        """Round timeout: attempt recovery, emit a NACK if still short.

        Returns a :class:`NackPacket` or None (success or nothing
        recoverable to report).
        """
        if not self.done:
            for block_id in self._estimator.blocks_to_request(self.n_blocks):
                self._try_decode(block_id)
                if self.done:
                    break
        nack = None
        if not self.done:
            requests = []
            for block_id in self._estimator.blocks_to_request(self.n_blocks):
                have = len(self._payloads.get(block_id, {}))
                shortfall = self.k - have
                if shortfall > 0:
                    requests.append(
                        NackRequest(block_id=block_id, n_parity=shortfall)
                    )
            if requests:
                nack = NackPacket(
                    rekey_message_id=self.message_id,
                    user_id=self.user_id,
                    requests=tuple(requests),
                )
        self._current_round += 1
        return nack

    def __repr__(self):
        return "UserTransport(user=%d, done=%s, round=%d)" % (
            self.user_id,
            self.done,
            self._current_round,
        )
