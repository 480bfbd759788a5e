"""Wire formats of the four protocol packet types (Appendix A).

Layouts follow the companion text's field lists; sizes are chosen so the
paper's packet-capacity arithmetic holds exactly: a 1027-byte ENC packet
carries 46 ``<encryption, ID>`` pairs of 22 bytes each
(``(1027 - 12) // 22 == 46``), the figure the paper uses for its
duplication-overhead bound.

Deviations from the byte-exact 2001 format, kept deliberately small:

- the 2-bit type and 6-bit rekey-message ID share one byte, as in the
  paper;
- one *flags* byte is added to ENC packets to carry the "duplicate of
  the last block" bit that the paper describes in a footnote;
- USR packets always carry encryption IDs (the paper makes them
  optional), costing 2 bytes per entry;
- NACK packets carry the sender's user ID explicitly (on a real network
  it would come from the UDP source address).

FEC protects ENC-packet bytes from :data:`FEC_PAYLOAD_OFFSET` onward
(the paper's "fields 5 to 8"): the identification prefix
(type / message / block / sequence) stays in the clear on PARITY
packets so receivers can index them without decoding.

UKA puts every user's encryptions in exactly one ENC packet, so a
receiver needs the body of that one packet and only the header of the
rest.  :func:`decode_enc_header` validates a whole ENC packet but
returns just its :class:`EncHeader`; :meth:`EncPacket.decode` is that
parser plus the materialised encryptions.

Every ``decode`` raises :class:`~repro.errors.PacketDecodeError` for
bytes it rejects, including bytes that parse but are invalid (an
``frm_id`` above ``to_id``, a zero encryption ID, an empty NACK).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.crypto.cipher import EncryptedKey
from repro.errors import PacketDecodeError, PacketError

#: Total size, in bytes, of an ENC or PARITY packet (paper default).
DEFAULT_ENC_PACKET_SIZE = 1027

#: Wire size of one <encryption ID, ciphertext> pair: 2 + (16 + 4).
ENCRYPTION_ENTRY_SIZE = 22

#: ENC header: type/msg, block, seq, flags, maxKID(2), frm(2), to(2), count(2).
ENC_HEADER_SIZE = 12

#: First byte of an ENC packet covered by FEC (after type/msg/block/seq).
FEC_PAYLOAD_OFFSET = 3

_MAX_U16 = 0xFFFF
_CIPHERTEXT_SIZE = 20
_ENC_HEADER = struct.Struct(">BBBBHHHH")
#: one <encryption ID, ciphertext> entry with the ciphertext skipped
_ID_COLUMN = "H%dx" % _CIPHERTEXT_SIZE


class PacketType(enum.IntEnum):
    """The 2-bit packet type carried in every packet's first byte."""

    ENC = 0
    PARITY = 1
    USR = 2
    NACK = 3


def enc_packet_capacity(packet_size=DEFAULT_ENC_PACKET_SIZE):
    """Number of encryptions one ENC packet of ``packet_size`` holds."""
    capacity = (packet_size - ENC_HEADER_SIZE) // ENCRYPTION_ENTRY_SIZE
    if capacity < 1:
        raise PacketError(
            "packet size %d cannot hold any encryption" % packet_size
        )
    return capacity


def _check_u16(name, value):
    if not 0 <= value <= _MAX_U16:
        raise PacketError("%s=%r does not fit in 16 bits" % (name, value))
    return value


def _check_u8(name, value):
    if not 0 <= value <= 0xFF:
        raise PacketError("%s=%r does not fit in 8 bits" % (name, value))
    return value


def _pack_type_byte(packet_type, rekey_message_id):
    if not 0 <= rekey_message_id <= 0x3F:
        raise PacketError(
            "rekey message ID %r does not fit in 6 bits" % rekey_message_id
        )
    return (int(packet_type) << 6) | rekey_message_id


def _unpack_type_byte(byte):
    return PacketType(byte >> 6), byte & 0x3F


def packet_type_of(data):
    """The :class:`PacketType` named by the first byte of ``data``."""
    if not data:
        raise PacketDecodeError("empty packet")
    return _unpack_type_byte(data[0])[0]


@dataclass(frozen=True)
class EncHeader:
    """The header of an ENC packet, without its encryptions.

    What a receiver reads of every ENC packet that does not cover it:
    the FEC coordinates, the ``<frmID, toID>`` interval and ``maxKID``
    for block-ID estimation.  ``n_encryptions`` is the packet's count
    field.
    """

    rekey_message_id: int
    block_id: int
    seq_in_block: int
    max_kid: int
    frm_id: int
    to_id: int
    n_encryptions: int
    is_duplicate: bool = False

    @property
    def packet_type(self):
        return PacketType.ENC

    def covers_user(self, user_id):
        """True iff the packet carries the encryptions of ``user_id``."""
        return self.frm_id <= user_id <= self.to_id


def decode_enc_header(data):
    """Validate ENC packet bytes and return their :class:`EncHeader`.

    Rejects exactly what :meth:`EncPacket.decode` rejects — a short or
    truncated packet, another type, ``frm_id > to_id``, a zero
    encryption ID — but reads the encryption IDs in one
    ``unpack_from`` and builds no :class:`EncryptedKey`.
    """
    if len(data) < ENC_HEADER_SIZE:
        raise PacketDecodeError("ENC packet shorter than its header")
    (
        type_byte,
        block_id,
        seq_in_block,
        flags,
        max_kid,
        frm_id,
        to_id,
        count,
    ) = _ENC_HEADER.unpack_from(data)
    packet_type, message_id = _unpack_type_byte(type_byte)
    if packet_type is not PacketType.ENC:
        raise PacketDecodeError("not an ENC packet")
    needed = ENC_HEADER_SIZE + count * ENCRYPTION_ENTRY_SIZE
    if len(data) < needed:
        raise PacketDecodeError(
            "ENC packet truncated: need %d bytes, have %d"
            % (needed, len(data))
        )
    if frm_id > to_id:
        raise PacketDecodeError("frm_id %d > to_id %d" % (frm_id, to_id))
    ids = struct.unpack_from(">" + _ID_COLUMN * count, data, ENC_HEADER_SIZE)
    if 0 in ids:
        raise PacketDecodeError("encryption ID 0 is reserved for padding")
    return EncHeader(
        rekey_message_id=message_id,
        block_id=block_id,
        seq_in_block=seq_in_block,
        max_kid=max_kid,
        frm_id=frm_id,
        to_id=to_id,
        n_encryptions=count,
        is_duplicate=bool(flags & 1),
    )


@dataclass(frozen=True)
class EncPacket:
    """An ENC packet: the encryptions for users in [frm_id, to_id]."""

    rekey_message_id: int
    block_id: int
    seq_in_block: int
    max_kid: int
    frm_id: int
    to_id: int
    encryptions: tuple
    is_duplicate: bool = False

    def __post_init__(self):
        _check_u8("block_id", self.block_id)
        _check_u8("seq_in_block", self.seq_in_block)
        _check_u16("max_kid", self.max_kid)
        _check_u16("frm_id", self.frm_id)
        _check_u16("to_id", self.to_id)
        if self.frm_id > self.to_id:
            raise PacketError(
                "frm_id %d > to_id %d" % (self.frm_id, self.to_id)
            )
        for encryption in self.encryptions:
            if not isinstance(encryption, EncryptedKey):
                raise PacketError("encryptions must be EncryptedKey objects")
            _check_u16("encryption ID", encryption.encryption_id)
            if encryption.encryption_id == 0:
                raise PacketError("encryption ID 0 is reserved for padding")
            if len(encryption.ciphertext) != _CIPHERTEXT_SIZE:
                raise PacketError(
                    "ciphertext must be %d bytes, got %d"
                    % (_CIPHERTEXT_SIZE, len(encryption.ciphertext))
                )

    @property
    def packet_type(self):
        return PacketType.ENC

    def covers_user(self, user_id):
        """True iff this packet carries the encryptions of ``user_id``."""
        return self.frm_id <= user_id <= self.to_id

    def encryptions_for(self, wanted_ids):
        """The subset of carried encryptions whose IDs are in ``wanted_ids``."""
        wanted = set(wanted_ids)
        return [e for e in self.encryptions if e.encryption_id in wanted]

    def encode(self, packet_size=DEFAULT_ENC_PACKET_SIZE):
        """Serialise to exactly ``packet_size`` bytes (zero padding)."""
        if len(self.encryptions) > enc_packet_capacity(packet_size):
            raise PacketError(
                "%d encryptions exceed capacity %d"
                % (len(self.encryptions), enc_packet_capacity(packet_size))
            )
        header = struct.pack(
            ">BBBBHHHH",
            _pack_type_byte(PacketType.ENC, self.rekey_message_id),
            self.block_id,
            self.seq_in_block,
            1 if self.is_duplicate else 0,
            self.max_kid,
            self.frm_id,
            self.to_id,
            len(self.encryptions),
        )
        body = b"".join(
            struct.pack(">H", e.encryption_id) + e.ciphertext
            for e in self.encryptions
        )
        packet = header + body
        if len(packet) > packet_size:
            raise PacketError(
                "encoded packet is %d bytes > packet size %d"
                % (len(packet), packet_size)
            )
        return packet + b"\x00" * (packet_size - len(packet))

    @classmethod
    def decode(cls, data):
        """Parse an ENC packet from its wire bytes: the header parser
        (which does all the validation) plus the encryptions."""
        header = decode_enc_header(data)
        encryptions = []
        offset = ENC_HEADER_SIZE
        for _ in range(header.n_encryptions):
            (encryption_id,) = struct.unpack(
                ">H", data[offset : offset + 2]
            )
            ciphertext = data[offset + 2 : offset + ENCRYPTION_ENTRY_SIZE]
            encryptions.append(EncryptedKey(encryption_id, ciphertext))
            offset += ENCRYPTION_ENTRY_SIZE
        return cls(
            rekey_message_id=header.rekey_message_id,
            block_id=header.block_id,
            seq_in_block=header.seq_in_block,
            max_kid=header.max_kid,
            frm_id=header.frm_id,
            to_id=header.to_id,
            encryptions=tuple(encryptions),
            is_duplicate=header.is_duplicate,
        )


@dataclass(frozen=True)
class ParityPacket:
    """A PARITY packet: FEC redundancy over one block's ENC payloads.

    ``seq_in_block`` is the codeword index: ``k + parity_row``, so a
    receiver can feed it straight into the RSE decoder.
    """

    rekey_message_id: int
    block_id: int
    seq_in_block: int
    payload: bytes

    def __post_init__(self):
        _check_u8("block_id", self.block_id)
        _check_u8("seq_in_block", self.seq_in_block)

    @property
    def packet_type(self):
        return PacketType.PARITY

    def encode(self):
        """Serialise; total size is 3 header bytes + payload."""
        return (
            struct.pack(
                ">BBB",
                _pack_type_byte(PacketType.PARITY, self.rekey_message_id),
                self.block_id,
                self.seq_in_block,
            )
            + self.payload
        )

    @classmethod
    def decode(cls, data):
        if len(data) < 3:
            raise PacketDecodeError("PARITY packet shorter than its header")
        packet_type, message_id = _unpack_type_byte(data[0])
        if packet_type is not PacketType.PARITY:
            raise PacketDecodeError("not a PARITY packet")
        return cls(
            rekey_message_id=message_id,
            block_id=data[1],
            seq_in_block=data[2],
            payload=bytes(data[3:]),
        )


@dataclass(frozen=True)
class UsrPacket:
    """A USR packet: one user's encryptions, unicast.

    Small by construction — at most ``4 + 22 h`` bytes for tree height
    ``h`` — which is why the switch to unicast is cheap (§7.1).
    """

    rekey_message_id: int
    user_id: int
    encryptions: tuple

    def __post_init__(self):
        _check_u16("user_id", self.user_id)
        if len(self.encryptions) > 0xFF:
            raise PacketError("too many encryptions for a USR packet")
        for encryption in self.encryptions:
            if not isinstance(encryption, EncryptedKey):
                raise PacketError("encryptions must be EncryptedKey objects")
            _check_u16("encryption ID", encryption.encryption_id)

    @property
    def packet_type(self):
        return PacketType.USR

    def encode(self):
        header = struct.pack(
            ">BHB",
            _pack_type_byte(PacketType.USR, self.rekey_message_id),
            self.user_id,
            len(self.encryptions),
        )
        body = b"".join(
            struct.pack(">H", e.encryption_id) + e.ciphertext
            for e in self.encryptions
        )
        return header + body

    @classmethod
    def decode(cls, data):
        if len(data) < 4:
            raise PacketDecodeError("USR packet shorter than its header")
        packet_type, message_id = _unpack_type_byte(data[0])
        if packet_type is not PacketType.USR:
            raise PacketDecodeError("not a USR packet")
        (user_id, count) = struct.unpack(">HB", data[1:4])
        encryptions = []
        offset = 4
        for _ in range(count):
            if offset + ENCRYPTION_ENTRY_SIZE > len(data):
                raise PacketDecodeError("USR packet truncated")
            (encryption_id,) = struct.unpack(
                ">H", data[offset : offset + 2]
            )
            encryptions.append(
                EncryptedKey(
                    encryption_id,
                    data[offset + 2 : offset + ENCRYPTION_ENTRY_SIZE],
                )
            )
            offset += ENCRYPTION_ENTRY_SIZE
        return cls(
            rekey_message_id=message_id,
            user_id=user_id,
            encryptions=tuple(encryptions),
        )


@dataclass(frozen=True)
class NackRequest:
    """One entry of a NACK: ``n_parity`` packets wanted for ``block_id``."""

    block_id: int
    n_parity: int

    def __post_init__(self):
        _check_u8("block_id", self.block_id)
        _check_u8("n_parity", self.n_parity)
        if self.n_parity == 0:
            raise PacketError("a NACK entry must request at least 1 packet")


@dataclass(frozen=True)
class NackPacket:
    """A NACK: per-block parity shortfalls reported by one user."""

    rekey_message_id: int
    user_id: int
    requests: tuple

    def __post_init__(self):
        _check_u16("user_id", self.user_id)
        if not self.requests:
            raise PacketError("a NACK must carry at least one request")
        if len(self.requests) > 0xFF:
            raise PacketError("too many requests for one NACK")
        for request in self.requests:
            if not isinstance(request, NackRequest):
                raise PacketError("requests must be NackRequest objects")

    @property
    def packet_type(self):
        return PacketType.NACK

    @property
    def max_requested(self):
        """The largest per-block request (what AdjustRho aggregates)."""
        return max(r.n_parity for r in self.requests)

    def encode(self):
        header = struct.pack(
            ">BHB",
            _pack_type_byte(PacketType.NACK, self.rekey_message_id),
            self.user_id,
            len(self.requests),
        )
        body = b"".join(
            struct.pack(">BB", r.n_parity, r.block_id) for r in self.requests
        )
        return header + body

    @classmethod
    def decode(cls, data):
        if len(data) < 4:
            raise PacketDecodeError("NACK packet shorter than its header")
        packet_type, message_id = _unpack_type_byte(data[0])
        if packet_type is not PacketType.NACK:
            raise PacketDecodeError("not a NACK packet")
        (user_id, count) = struct.unpack(">HB", data[1:4])
        if len(data) < 4 + 2 * count:
            raise PacketDecodeError("NACK packet truncated")
        try:
            requests = tuple(
                NackRequest(
                    block_id=data[4 + 2 * i + 1], n_parity=data[4 + 2 * i]
                )
                for i in range(count)
            )
            return cls(
                rekey_message_id=message_id, user_id=user_id, requests=requests
            )
        except PacketError as exc:
            # Well-formed bytes with no request or a zero-parity entry
            # are still bytes this decoder rejects.
            raise PacketDecodeError(str(exc)) from exc


_DECODERS = {
    PacketType.ENC: EncPacket.decode,
    PacketType.PARITY: ParityPacket.decode,
    PacketType.USR: UsrPacket.decode,
    PacketType.NACK: NackPacket.decode,
}


def decode_packet(data):
    """Dispatch on the 2-bit type and decode any protocol packet."""
    return _DECODERS[packet_type_of(data)](data)
