"""End-to-end rekey-message construction.

:class:`RekeyMessageBuilder` chains the pieces: marking output →
UKA packing → block partition → (optionally) real wire packets with
toy-cipher ciphertexts, RSE parity, and a signature.

A :class:`RekeyMessage` exists in one of two modes:

- **plan mode** (keyless tree): packet counts, ID intervals, block
  structure and per-user needs only — the workload abstraction consumed
  by the vectorised fleet simulator and the workload benches;
- **wire mode** (keyed tree): additionally carries byte-exact ENC
  packets, generates PARITY packets on demand (incrementally, per
  round), builds per-user USR packets, and signs the message.
"""

from __future__ import annotations

import struct

from repro.crypto.cipher import XorStreamCipher
from repro.errors import ConfigurationError, TransportError
from repro.fec.rse import RSECoder
from repro.obs.recorder import NULL
from repro.rekey.assignment import UserOrientedKeyAssignment
from repro.rekey.blocks import BlockPartition
from repro.rekey.packets import (
    DEFAULT_ENC_PACKET_SIZE,
    EncPacket,
    FEC_PAYLOAD_OFFSET,
    ParityPacket,
    UsrPacket,
    decode_enc_header,
)
from repro.util.validation import check_non_negative, check_positive


class RekeyMessage:
    """One rekey interval's message: plans, blocks, optional wire bytes."""

    def __init__(
        self,
        message_id,
        assignment,
        partition,
        needs_by_user,
        max_kid,
        k,
        packet_size,
        encryption_map=None,
        signature=None,
        obs=None,
    ):
        self.message_id = message_id
        #: observability recorder, propagated to the FEC coder
        self.obs = obs if obs is not None else NULL
        self.assignment = assignment
        self.partition = partition
        self.needs_by_user = needs_by_user
        self.max_kid = max_kid
        self.k = k
        self.packet_size = packet_size
        #: encryption ID -> EncryptedKey (wire mode only)
        self.encryption_map = encryption_map
        self.signature = signature
        #: When True, parity rows are generated for *all* blocks in one
        #: stacked GF(256) kernel call and served from a cache, instead
        #: of one ``coder.parity`` call per block per round.  Rows are
        #: byte-identical either way (``tests/fec`` pins the stacked
        #: kernel to the per-block loop); the builder clears it for the
        #: ``python`` engine so the oracle exercises the per-block shape.
        self.batch_parity = True
        self._enc_packets = None
        self._slot_wires = None
        self._coder_cache = None
        #: per-block list of generated parity rows; all blocks always
        #: hold the *same* number of rows (every fill raises every block
        #: to one common target), which is what lets one fused call
        #: serve mixed per-block requests.
        self._parity_rows = None

    # -- plan-level accessors --------------------------------------------

    @property
    def is_empty(self):
        """True when the batch changed nothing (no packets to send)."""
        return self.assignment is None or self.assignment.n_packets == 0

    @property
    def n_enc_packets(self):
        """Distinct ENC packets produced by UKA."""
        return 0 if self.is_empty else self.assignment.n_packets

    @property
    def n_blocks(self):
        return 0 if self.is_empty else self.partition.n_blocks

    @property
    def plans(self):
        return [] if self.is_empty else self.assignment.plans

    @property
    def materialized(self):
        """True in wire mode (real ciphertexts available)."""
        return self.encryption_map is not None

    def plan_for_user(self, user_id):
        """The ENC packet plan covering ``user_id`` (None if unneeded)."""
        if self.is_empty:
            return None
        return self.assignment.plan_for_user(user_id)

    def block_of_user(self, user_id):
        """Block ID of the user's specific ENC packet."""
        plan = self.plan_for_user(user_id)
        if plan is None:
            return None
        return self.partition.block_of_packet(plan.index)

    # -- wire-level accessors ----------------------------------------------

    def _require_wire(self):
        if not self.materialized:
            raise TransportError(
                "message %d was built in plan mode; no wire bytes"
                % self.message_id
            )

    def enc_packet(self, plan_index, block_id, seq_in_block, is_duplicate):
        """Materialise the ENC packet for one block slot."""
        self._require_wire()
        plan = self.assignment.plans[plan_index]
        return EncPacket(
            rekey_message_id=self.message_id,
            block_id=block_id,
            seq_in_block=seq_in_block,
            max_kid=self.max_kid,
            frm_id=plan.frm_id,
            to_id=plan.to_id,
            encryptions=tuple(
                self.encryption_map[e] for e in plan.encryption_ids
            ),
            is_duplicate=is_duplicate,
        )

    def enc_packets(self):
        """All ENC packets in block-major slot order (cached)."""
        self._require_wire()
        if self._enc_packets is None:
            self._enc_packets = [
                self.enc_packet(
                    slot.plan_index,
                    slot.block_id,
                    slot.seq_in_block,
                    slot.is_duplicate,
                )
                for slot in self.partition.slots
            ]
        return self._enc_packets

    def _wires(self):
        if self._slot_wires is None:
            self._slot_wires = [
                packet.encode(self.packet_size)
                for packet in self.enc_packets()
            ]
        return self._slot_wires

    def _coder(self):
        if self._coder_cache is None:
            self._coder_cache = RSECoder(self.k)
            self._coder_cache.obs = self.obs
        return self._coder_cache

    def block_payloads(self, block_id):
        """The ``k`` FEC data payloads of ``block_id`` (bytes beyond the
        identification prefix of each ENC slot)."""
        self._require_wire()
        if not 0 <= block_id < self.n_blocks:
            raise ConfigurationError("block_id %d out of range" % block_id)
        wires = self._wires()
        first = block_id * self.k
        return [
            wires[first + seq][FEC_PAYLOAD_OFFSET:] for seq in range(self.k)
        ]

    def _ensure_parity_rows(self, target):
        """Grow the batched parity cache so every block has ``target`` rows.

        One :meth:`~repro.fec.rse.RSECoder.parity_blocks` call encodes
        the missing rows of *all* blocks at once — the stacked kernel
        fuses the whole interval's FEC work.  Because every fill raises
        every block to the same target, the cache stays uniform and
        ``first_parity_index`` bookkeeping per block is just an index.
        """
        if self._parity_rows is None:
            self._parity_rows = [[] for _ in range(self.n_blocks)]
        have = len(self._parity_rows[0]) if self._parity_rows else 0
        if target <= have:
            return
        fresh = self._coder().parity_blocks(
            [self.block_payloads(b) for b in range(self.n_blocks)],
            target - have,
            first_parity_index=have,
        )
        for block_id, rows in enumerate(fresh):
            self._parity_rows[block_id].extend(rows)

    def parity_packets(self, block_id, n_parity, first_parity_index=0):
        """Generate ``n_parity`` new PARITY packets for ``block_id``.

        ``first_parity_index`` continues the parity row space across
        rounds so retransmitted parity is always novel.
        """
        self._require_wire()
        check_non_negative("n_parity", n_parity, integral=True)
        if self.batch_parity:
            self._ensure_parity_rows(first_parity_index + n_parity)
            parity = self._parity_rows[block_id][
                first_parity_index : first_parity_index + n_parity
            ]
        else:
            parity = self._coder().parity(
                self.block_payloads(block_id),
                n_parity,
                first_parity_index=first_parity_index,
            )
        if self.obs.enabled:
            self.obs.emit(
                "fec_encode",
                message_id=self.message_id,
                block_id=block_id,
                n_parity=int(n_parity),
                first_parity_index=int(first_parity_index),
            )
        return [
            ParityPacket(
                rekey_message_id=self.message_id,
                block_id=block_id,
                seq_in_block=self.k + first_parity_index + row,
                payload=parity[row],
            )
            for row in range(n_parity)
        ]

    def usr_packet(self, user_id):
        """Build the unicast USR packet for ``user_id``."""
        self._require_wire()
        wanted = self.needs_by_user.get(user_id)
        if not wanted:
            raise TransportError(
                "user %d needs no encryptions this interval" % user_id
            )
        return UsrPacket(
            rekey_message_id=self.message_id,
            user_id=user_id,
            encryptions=tuple(self.encryption_map[e] for e in wanted),
        )

    @staticmethod
    def _recovered_wire(message_id, block_id, seq_in_block, payload):
        """The ENC packet bytes behind an FEC-recovered payload: its
        identification prefix (outside the FEC code) put back."""
        prefix = struct.pack(
            ">BBB",
            (0 << 6) | message_id,  # PacketType.ENC == 0
            block_id,
            seq_in_block,
        )
        return prefix + payload

    @staticmethod
    def rebuild_enc_packet(message_id, block_id, seq_in_block, payload):
        """Reconstruct an ENC packet from an FEC-recovered payload."""
        return EncPacket.decode(
            RekeyMessage._recovered_wire(
                message_id, block_id, seq_in_block, payload
            )
        )

    @staticmethod
    def rebuild_enc_header(message_id, block_id, seq_in_block, payload):
        """:meth:`rebuild_enc_packet` without the encryptions: the
        validated :class:`~repro.rekey.packets.EncHeader`."""
        return decode_enc_header(
            RekeyMessage._recovered_wire(
                message_id, block_id, seq_in_block, payload
            )
        )

    def __repr__(self):
        return "RekeyMessage(id=%d, enc=%d, blocks=%d, k=%d, %s)" % (
            self.message_id,
            self.n_enc_packets,
            self.n_blocks,
            self.k,
            "wire" if self.materialized else "plan",
        )


class RekeyMessageBuilder:
    """Builds :class:`RekeyMessage` objects from marking results."""

    def __init__(
        self,
        packet_size=DEFAULT_ENC_PACKET_SIZE,
        block_size=10,
        cipher=None,
        signer=None,
        obs=None,
        engine="numpy",
    ):
        check_positive("packet_size", packet_size, integral=True)
        check_positive("block_size", block_size, integral=True)
        self.packet_size = packet_size
        self.block_size = block_size
        self.cipher = cipher or XorStreamCipher()
        self.signer = signer
        self.obs = obs if obs is not None else NULL
        #: ``"python"`` (the oracle) gets messages whose parity is one
        #: coder call per block per round; the shipping engine batches
        #: it across blocks (RekeyMessage.batch_parity)
        self.engine = engine
        self._assigner = UserOrientedKeyAssignment(packet_size=packet_size)

    def build(self, batch_result, message_id):
        """Construct the rekey message for one batch.

        Wire mode is used when the batch's tree carries key material;
        otherwise the message is plan-only.
        """
        if not 0 <= message_id <= 0x3F:
            raise ConfigurationError(
                "message_id must fit the 6-bit field, got %r" % message_id
            )
        with self.obs.span("message.build", message_id=message_id):
            message = self._build(batch_result, message_id)
        message.batch_parity = self.engine != "python"
        return message

    def _build(self, batch_result, message_id):
        needs = batch_result.needs_by_user()
        max_kid = max(batch_result.max_knode_id, 0)
        if not needs:
            return RekeyMessage(
                message_id=message_id,
                assignment=None,
                partition=None,
                needs_by_user={},
                max_kid=max_kid,
                k=self.block_size,
                packet_size=self.packet_size,
                obs=self.obs,
            )
        with self.obs.span("message.assign"):
            assignment = self._assigner.assign(needs)
        partition = BlockPartition(assignment.n_packets, self.block_size)
        encryption_map = None
        signature = None
        tree = batch_result.tree
        if not tree.keyless:
            encryption_map = {}
            with self.obs.span(
                "message.encrypt",
                n_encryptions=len(batch_result.subtree.edges),
            ):
                for edge in batch_result.subtree.edges:
                    encryption_map[edge.child_id] = self.cipher.encrypt_key(
                        tree.key_of(edge.parent_id),
                        tree.key_of(edge.child_id),
                        encryption_id=edge.child_id,
                    )
            if self.signer is not None:
                digest_input = b"".join(
                    encryption_map[e].ciphertext
                    for e in sorted(encryption_map)
                )
                with self.obs.span("message.sign"):
                    signature = self.signer.sign(digest_input)
        return RekeyMessage(
            message_id=message_id,
            assignment=assignment,
            partition=partition,
            needs_by_user=needs,
            max_kid=max_kid,
            k=self.block_size,
            packet_size=self.packet_size,
            encryption_map=encryption_map,
            signature=signature,
            obs=self.obs,
        )
