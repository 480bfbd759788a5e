"""Failure injection: packet decoders must never crash unexpectedly.

Whatever bytes arrive off the (simulated) wire — truncated, corrupted,
or adversarial — ``decode_packet`` either returns a well-formed packet
or raises :class:`PacketDecodeError`.  Any other exception (a bare
:class:`PacketError` included: receivers count only decode errors) is a
robustness bug.

Every test also runs on the ENC header parser as a differential against
``EncPacket.decode``: the two must reject exactly the same bytes with
the same exception class and otherwise agree on every header field.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.cipher import EncryptedKey
from repro.errors import PacketDecodeError, PacketError
from repro.rekey.packets import (
    EncHeader,
    EncPacket,
    NackPacket,
    NackRequest,
    ParityPacket,
    UsrPacket,
    decode_enc_header,
    decode_packet,
)


def make_valid_wires():
    enc = EncPacket(
        rekey_message_id=5,
        block_id=2,
        seq_in_block=1,
        max_kid=340,
        frm_id=341,
        to_id=360,
        encryptions=tuple(
            EncryptedKey(i + 1, bytes([i]) * 20) for i in range(5)
        ),
    ).encode()
    parity = ParityPacket(
        rekey_message_id=5, block_id=2, seq_in_block=12, payload=b"x" * 64
    ).encode()
    usr = UsrPacket(
        rekey_message_id=5,
        user_id=341,
        encryptions=(EncryptedKey(3, b"y" * 20),),
    ).encode()
    nack = NackPacket(
        rekey_message_id=5,
        user_id=341,
        requests=(NackRequest(block_id=2, n_parity=3),),
    ).encode()
    return [enc, parity, usr, nack]


#: the property tests also run as methods of TestEncHeaderDifferential
SHARED = [HealthCheck.differing_executors]


def _outcome(decoder, data):
    try:
        return decoder(data), None
    except PacketError as exc:
        return None, exc


def decode_enc_differential(data):
    """``EncPacket.decode`` checked against the ENC header parser.

    Raises what both raise (they must raise the same class on the same
    bytes); otherwise the header must match the full packet field by
    field.
    """
    packet, error = _outcome(EncPacket.decode, data)
    header, header_error = _outcome(decode_enc_header, data)
    assert type(header_error) is type(error), (error, header_error)
    if error is not None:
        raise error
    assert header == EncHeader(
        rekey_message_id=packet.rekey_message_id,
        block_id=packet.block_id,
        seq_in_block=packet.seq_in_block,
        max_kid=packet.max_kid,
        frm_id=packet.frm_id,
        to_id=packet.to_id,
        n_encryptions=len(packet.encryptions),
        is_duplicate=packet.is_duplicate,
    )
    return packet


class TestRandomBytes:
    decode = staticmethod(decode_packet)

    @given(data=st.binary(min_size=0, max_size=200))
    @settings(max_examples=300, suppress_health_check=SHARED)
    def test_arbitrary_bytes_never_crash(self, data):
        try:
            packet = self.decode(data)
        except PacketDecodeError:
            return
        # If it decoded, it must re-encode to something decodable.
        assert packet.packet_type is not None


class TestTruncation:
    decode = staticmethod(decode_packet)

    @pytest.mark.parametrize("wire_index", range(4))
    def test_every_truncation_point(self, wire_index):
        wire = make_valid_wires()[wire_index]
        for cut in range(len(wire)):
            try:
                self.decode(wire[:cut])
            except PacketDecodeError:
                continue
            # Some prefixes of ENC packets are themselves valid (zero
            # padding shortens gracefully); that is fine.


class TestBitFlips:
    decode = staticmethod(decode_packet)

    @given(
        wire_index=st.integers(0, 3),
        position=st.integers(0, 2000),
        flip=st.integers(1, 255),
    )
    @settings(max_examples=300, suppress_health_check=SHARED)
    def test_single_byte_corruption(self, wire_index, position, flip):
        wire = bytearray(make_valid_wires()[wire_index])
        position %= len(wire)
        wire[position] ^= flip
        try:
            packet = self.decode(bytes(wire))
        except PacketDecodeError:
            return
        assert packet.packet_type is not None

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, suppress_health_check=SHARED)
    def test_heavy_corruption(self, seed):
        rng = np.random.default_rng(seed)
        wire = bytearray(make_valid_wires()[seed % 4])
        n_flips = int(rng.integers(1, 20))
        for _ in range(n_flips):
            wire[int(rng.integers(0, len(wire)))] ^= int(
                rng.integers(1, 256)
            )
        try:
            self.decode(bytes(wire))
        except PacketDecodeError:
            pass


class TestCrossTypeConfusion:
    decode = staticmethod(decode_packet)

    def test_type_field_rewrite_is_contained(self):
        """Rewriting the 2-bit type routes to another decoder, which
        must handle the mismatched body gracefully."""
        wires = make_valid_wires()
        for wire in wires:
            for new_type in range(4):
                mutated = bytearray(wire)
                mutated[0] = (new_type << 6) | (mutated[0] & 0x3F)
                try:
                    self.decode(bytes(mutated))
                except PacketDecodeError:
                    pass


def _patched(wire, offset, value):
    mutated = bytearray(wire)
    mutated[offset : offset + len(value)] = value
    return bytes(mutated)


class TestParsesButInvalid:
    """Bytes that parse field by field but break a packet rule are still
    decode errors, not a bare :class:`PacketError` from a constructor —
    a receiver counts the one and dies of the other."""

    decode = staticmethod(decode_packet)

    @pytest.mark.parametrize(
        "wire_index, offset, value",
        [
            (0, 6, b"\xff\xff"),  # ENC frm_id 65535 > to_id 360
            (0, 12, b"\x00\x00"),  # ENC first encryption ID is 0
            (3, 3, b"\x00"),  # NACK with zero requests
            (3, 4, b"\x00"),  # NACK entry asking for 0 parity packets
        ],
        ids=[
            "enc-frm-above-to",
            "enc-zero-id",
            "nack-empty",
            "nack-zero-parity",
        ],
    )
    def test_rejected_as_decode_error(self, wire_index, offset, value):
        wire = _patched(make_valid_wires()[wire_index], offset, value)
        with pytest.raises(PacketDecodeError):
            self.decode(wire)


class TestEncHeaderDifferential(
    TestRandomBytes,
    TestTruncation,
    TestBitFlips,
    TestCrossTypeConfusion,
    TestParsesButInvalid,
):
    """Every input above through ``EncPacket.decode`` and the ENC header
    parser at once (:func:`decode_enc_differential`)."""

    decode = staticmethod(decode_enc_differential)
